package experiments

import (
	"context"
	"fmt"

	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/routing"
)

// EstimatorAdmission (E13) puts the Fig. 4 estimators to operational
// use, which is what the paper proposes them for: admission control
// without global scheduling knowledge. Each 2 Mbps flow is routed with
// average-e2eD; each estimator decides admit/reject from carrier-sensed
// idleness; the exact Eq. 6 model is the oracle, and one oracle-driven
// admission run scores all five estimators at each step. A false admit
// lets a flow in that the network cannot actually carry; a false reject
// turns away a flow that would have fit.
func EstimatorAdmission(ctx context.Context) (*Table, error) {
	net, m, reqs, err := Fig2Setup()
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "E13",
		Title:  "Extension: estimator-driven admission vs the exact oracle (2 Mbps flows)",
		Header: []string{"estimator", "admitted", "false admits", "false rejects", "verdict"},
	}
	// The network state evolves by the ORACLE's truth — flows that
	// genuinely fit are carried (the estimator only gates them) — so
	// one admission run judges every estimator against the same load
	// sequence.
	admittedCount := make(map[estimate.Metric]int, 5)
	falseAdmit := make(map[estimate.Metric]int, 5)
	falseReject := make(map[estimate.Metric]int, 5)
	sess := core.NewSession(m, queryOptions())
	var admitted []core.Flow
	for _, req := range reqs {
		dec, bg, err := routing.AdmitStepContext(ctx, net, m, routing.MetricAvgE2ED, req, admitted, sess)
		if err != nil {
			return nil, err
		}
		if dec.Path == nil {
			continue // unroutable under current load: skip
		}
		ests, err := pathEstimates(net, m, bg, dec.Path)
		if err != nil {
			return nil, err
		}
		truth := dec.Admitted
		for metric, est := range ests {
			decision := est+1e-9 >= req.Demand
			switch {
			case decision && !truth:
				falseAdmit[metric]++
			case !decision && truth:
				falseReject[metric]++
			}
			if decision && truth {
				admittedCount[metric]++
			}
		}
		if truth {
			admitted = append(admitted, core.Flow{Path: dec.Path, Demand: req.Demand})
		}
	}
	for _, metric := range estimate.AllMetrics() {
		verdict := "safe but lossy"
		if falseAdmit[metric] > 0 {
			verdict = "UNSAFE (over-admits)"
		} else if falseReject[metric] == 0 {
			verdict = "matches oracle"
		}
		tbl.AddRow(metric.String(),
			fmt.Sprintf("%d", admittedCount[metric]),
			fmt.Sprintf("%d", falseAdmit[metric]),
			fmt.Sprintf("%d", falseReject[metric]),
			verdict)
	}
	tbl.AddNote("over-estimating metrics (clique constraint, bottleneck) admit flows the network cannot carry;")
	tbl.AddNote("the conservative clique constraint trades a few false rejects for zero false admits")
	return tbl, nil
}
