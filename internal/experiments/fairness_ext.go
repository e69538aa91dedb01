package experiments

import (
	"context"
	"fmt"

	"abw/internal/core"
	"abw/internal/routing"
	"abw/internal/scenario"
	"abw/internal/topology"
)

// FairAllocation (E15) applies the rate-coupled machinery to the
// resource-allocation question of the paper's reference [11]: max-min
// fair throughput shares. Three workloads: Scenario I (one contested
// and two compatible links), Scenario II twins, and the Sec. 5.2 random
// deployment's admitted flows freed from their 2 Mbps caps.
func FairAllocation(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:     "E15",
		Title:  "Extension: max-min fair allocation over the exact feasibility polytope",
		Header: []string{"workload", "flow", "fair share (Mbps)", "note"},
	}

	// Scenario I: the fair point gives everyone 27 (overlap pays).
	s1 := scenario.NewScenarioI(54)
	flows1 := []core.Flow{
		{Path: topology.Path{s1.L1}},
		{Path: topology.Path{s1.L2}},
		{Path: topology.Path{s1.L3}},
	}
	alloc1, _, err := core.MaxMinFairContext(ctx, s1.Model, flows1, core.Options{})
	if err != nil {
		return nil, err
	}
	for j, a := range alloc1 {
		tbl.AddRow("Scenario I", fmt.Sprintf("L%d", j+1), fmt.Sprintf("%.3f", a),
			"L1+L2 overlap; L3 gets the other half")
	}

	// Scenario II: twin 4-hop flows split the 16.2 capacity.
	s2 := scenario.NewScenarioII()
	alloc2, _, err := core.MaxMinFairContext(ctx, s2.Model, []core.Flow{{Path: s2.Path}, {Path: s2.Path}}, core.Options{})
	if err != nil {
		return nil, err
	}
	for j, a := range alloc2 {
		tbl.AddRow("Scenario II twins", fmt.Sprintf("flow %d", j+1), fmt.Sprintf("%.3f", a),
			"half of the 16.2 multirate optimum")
	}

	// Random deployment: the flows the paper's Fig. 3 admitted under
	// average-e2eD, now sharing max-min fairly instead of first-come.
	net, m, reqs, err := Fig2Setup()
	if err != nil {
		return nil, err
	}
	// The first four requests keep the LP small.
	decs, err := routing.SequentialAdmissionContext(ctx, net, m, routing.MetricAvgE2ED, reqs[:4], routing.AdmissionOptions{})
	if err != nil {
		return nil, err
	}
	var flows []core.Flow
	for _, d := range decs {
		if d.Admitted {
			flows = append(flows, core.Flow{Path: d.Path}) // uncapped for fairness
		}
	}
	allocR, _, err := core.MaxMinFairContext(ctx, m, flows, core.Options{})
	if err != nil {
		return nil, err
	}
	for j, a := range allocR {
		tbl.AddRow("Sec. 5.2 deployment", fmt.Sprintf("flow %d", j+1), fmt.Sprintf("%.3f", a),
			"uncapped max-min share of the admitted routes")
	}
	tbl.AddNote("progressive filling freezes each flow at its true rate-coupled bottleneck;")
	tbl.AddNote("first-come admission (Fig. 3) gives early flows more than their fair share")
	return tbl, nil
}
