package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/topology"
	"abw/internal/trace"
)

// CSRangeSensitivity (E17) probes how the carrier-sense range shapes
// the distributed estimators — the knob the paper's reference [12]
// (physical carrier sensing and spatial reuse) optimizes. A short CS
// range under-hears interferers (idleness looks rosy, estimates climb);
// a long one over-hears (exposed-terminal pessimism). The conservative
// clique estimator's error is reported per CS-range factor on the
// Sec. 5.2 deployment.
func CSRangeSensitivity(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:     "E17",
		Title:  "Extension: carrier-sense range vs estimator accuracy (conservative clique, MAE in Mbps)",
		Header: []string{"CS range factor", "CS range (m)", "mean idle ratio", "conservative MAE", "bottleneck MAE"},
	}
	for _, factor := range []float64{1.0, 1.25, 1.5, 2.0} {
		prof := radio.NewProfile80211a(radio.WithCSRangeFactor(factor))
		rng := rand.New(rand.NewSource(TopologySeed))
		net, err := topology.New(prof, geom.UniformPoints(rng, geom.Rect{W: AreaWidth, H: AreaHeight}, NumNodes))
		if err != nil {
			return nil, err
		}
		m := conflict.NewPhysical(net)
		reqs, err := trace.RandomRequests(net, rand.New(rand.NewSource(RequestSeed)), NumFlows, FlowDemand)
		if err != nil {
			return nil, err
		}
		mae, n, err := estimationMAE(ctx, net, m, reqs)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		idleMean, err := meanIdleUnderLoad(ctx, net, m, reqs)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%.2f", factor),
			fmt.Sprintf("%.0f", prof.CSRange()),
			fmt.Sprintf("%.3f", idleMean),
			fmt.Sprintf("%.3f", mae[estimate.MetricConservativeClique]/float64(n)),
			fmt.Sprintf("%.3f", mae[estimate.MetricBottleneckNode]/float64(n)))
	}
	tbl.AddNote("longer CS ranges mark more of the network busy (lower idleness), pushing the")
	tbl.AddNote("idleness-based estimators conservative; the default 1.5x is a reasonable middle")
	return tbl, nil
}

// meanIdleUnderLoad admits the request sequence greedily (by the exact
// model) and returns the mean node idleness under the final background.
func meanIdleUnderLoad(ctx context.Context, net *topology.Network, m *conflict.Physical, reqs []routing.Request) (float64, error) {
	decs, err := routing.SequentialAdmissionContext(ctx, net, m, routing.MetricAvgE2ED, reqs,
		routing.AdmissionOptions{StopAtFirstFailure: false})
	if err != nil {
		return 0, err
	}
	var admitted []core.Flow
	for _, d := range decs {
		if d.Admitted {
			admitted = append(admitted, core.Flow{Path: d.Path, Demand: d.Request.Demand})
		}
	}
	idle, err := routing.BackgroundIdlenessContext(ctx, net, m, admitted, core.Options{})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, v := range idle {
		total += v
	}
	if len(idle) == 0 {
		return math.NaN(), nil
	}
	return total / float64(len(idle)), nil
}
