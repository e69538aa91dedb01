package experiments

import (
	"context"
	"fmt"
	"math"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/topology"
)

// SimValidation reproduces experiment E9: the TDMA frame simulator
// executes LP-produced schedules and its measurements must match the
// analytic model — per-link throughput on the Scenario II optimum, and
// carrier-sensed node idleness on a geometric chain.
func SimValidation(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:     "E9",
		Title:  "Validation: TDMA simulator vs analytic model",
		Header: []string{"check", "analytic", "measured", "max |err|"},
	}

	// Scenario II optimal schedule throughput.
	s := scenario.NewScenarioII()
	res, err := core.AvailableBandwidthContext(ctx, s.Model, nil, s.Path, core.Options{})
	if err != nil {
		return nil, err
	}
	rep, err := sim.RunSchedule(s.Model, res.Schedule, sim.TDMAConfig{MicroSlots: 2000, Periods: 5})
	if err != nil {
		return nil, err
	}
	maxErr := 0.0
	for _, l := range s.Links() {
		if e := math.Abs(rep.LinkThroughput[l] - res.Schedule.Throughput(l)); e > maxErr {
			maxErr = e
		}
	}
	tbl.AddRow("Scenario II per-link throughput", "16.2000 Mbps",
		fmt.Sprintf("%.4f Mbps", rep.LinkThroughput[s.L1]), fmt.Sprintf("%.2e", maxErr))

	// End-to-end delivery through queues.
	flowRep, err := sim.RunFlows(s.Model, res.Schedule, []core.Flow{{Path: s.Path, Demand: res.Bandwidth}},
		sim.TDMAConfig{MicroSlots: 2000, Periods: 40})
	if err != nil {
		return nil, err
	}
	tbl.AddRow("Scenario II end-to-end goodput (40 periods)",
		fmt.Sprintf("%.4f Mbps", res.Bandwidth),
		fmt.Sprintf("%.4f Mbps", flowRep.FlowDelivered[0]),
		fmt.Sprintf("%.4f (pipeline fill)", res.Bandwidth-flowRep.FlowDelivered[0]))

	// Node idleness on a geometric chain.
	net, path, err := topology.Chain(radio.NewProfile80211a(), 4, 100)
	if err != nil {
		return nil, err
	}
	pm := conflict.NewPhysical(net)
	chainRes, err := core.AvailableBandwidthContext(ctx, pm, nil, path, core.Options{})
	if err != nil {
		return nil, err
	}
	if chainRes.Status != lp.Optimal {
		return nil, fmt.Errorf("chain LP %v", chainRes.Status)
	}
	analytic := estimate.NodeIdleRatios(net, chainRes.Schedule)
	measured, err := sim.MeasuredNodeIdle(net, chainRes.Schedule, sim.TDMAConfig{MicroSlots: 2000})
	if err != nil {
		return nil, err
	}
	maxIdleErr := 0.0
	for i := range analytic {
		if e := math.Abs(analytic[i] - measured[i]); e > maxIdleErr {
			maxIdleErr = e
		}
	}
	tbl.AddRow("4-hop chain node idleness",
		fmt.Sprintf("node0 %.4f", analytic[0]),
		fmt.Sprintf("node0 %.4f", measured[0]),
		fmt.Sprintf("%.2e", maxIdleErr))
	tbl.AddNote("quantization bound: 1/2000 per slot share")
	return tbl, nil
}

// CSMAIdle reproduces experiment E10: under slotted CSMA/CA in Scenario
// I, the listener at L3 measures idleness near 1 - busy(L1) - busy(L2)
// (the background links transmit independently and rarely overlap),
// while the true available share after optimal overlap is 1 - busy —
// idle-time admission is conservative, as the paper's introduction
// argues.
func CSMAIdle(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioI(54)
	hearing := sim.ModelHearing(s.Model, func(topology.LinkID) radio.Rate { return s.Rate })
	const offered = scenarioILambda * 54
	rep, err := sim.RunCSMA(s.Model, hearing, []sim.CSMALink{
		{Link: s.L1, Rate: 54, OfferedMbps: offered},
		{Link: s.L2, Rate: 54, OfferedMbps: offered},
		{Link: s.L3, Rate: 54, ListenOnly: true},
	}, 4000, sim.CSMAConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	busy1 := 1 - rep.IdleRatio[s.L1]
	busy2 := 1 - rep.IdleRatio[s.L2]
	idle3 := rep.IdleRatio[s.L3]

	// Exact availability with the same effective background load.
	bg := []core.Flow{
		{Path: topology.Path{s.L1}, Demand: rep.Throughput[s.L1]},
		{Path: topology.Path{s.L2}, Demand: rep.Throughput[s.L2]},
	}
	exact, err := core.AvailableBandwidthContext(ctx, s.Model, bg, topology.Path{s.L3}, core.Options{})
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:     "E10",
		Title:  "CSMA/CA measured idleness in Scenario I (background lambda=0.3 each on L1, L2)",
		Header: []string{"quantity", "value"},
	}
	tbl.AddRow("measured busy share, L1", fmt.Sprintf("%.4f", busy1))
	tbl.AddRow("measured busy share, L2", fmt.Sprintf("%.4f", busy2))
	tbl.AddRow("measured idle ratio at L3", fmt.Sprintf("%.4f", idle3))
	tbl.AddRow("idle-time admission bound (idle * r)", fmt.Sprintf("%.4f Mbps", idle3*54))
	tbl.AddRow("exact available bandwidth (Eq. 6)", fmt.Sprintf("%.4f Mbps", exact.Bandwidth))
	tbl.AddRow("optimal-overlap idle share (1 - busy)", fmt.Sprintf("%.4f", 1-math.Max(busy1, busy2)))
	tbl.AddNote("idle-time admission (%.2f Mbps) is conservative against the exact %.2f Mbps", idle3*54, exact.Bandwidth)
	return tbl, nil
}
