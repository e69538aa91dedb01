package sim

import (
	"context"
	"math"
	"testing"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// paperScheduleII is the optimal Scenario II schedule from Sec. 5.1.
func paperScheduleII(s *scenario.ScenarioII) schedule.Schedule {
	return schedule.Schedule{Slots: []schedule.Slot{
		{Share: 0.1, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(conflict.Couple{Link: s.L3, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(
			conflict.Couple{Link: s.L1, Rate: 36},
			conflict.Couple{Link: s.L4, Rate: 54},
		)},
	}}
}

func TestRunScheduleMatchesAnalytic(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	rep, err := RunSchedule(s.Model, sched, TDMAConfig{MicroSlots: 1000, Periods: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Shares 0.1/0.3 quantize exactly into 1000 micro-slots: measured
	// throughput must equal the analytic 16.2 on every link.
	for _, l := range s.Links() {
		if got := rep.LinkThroughput[l]; math.Abs(got-16.2) > 1e-9 {
			t.Errorf("measured throughput on L%d = %.6f, want 16.2", l+1, got)
		}
	}
}

func TestRunScheduleRejectsInvalid(t *testing.T) {
	s := scenario.NewScenarioII()
	bad := schedule.Schedule{Slots: []schedule.Slot{{
		Share: 0.5,
		Set: indepset.NewSet(
			conflict.Couple{Link: s.L1, Rate: 54},
			conflict.Couple{Link: s.L2, Rate: 54},
		),
	}}}
	if _, err := RunSchedule(s.Model, bad, TDMAConfig{}); err == nil {
		t.Error("conflicting slot: expected error")
	}
}

func TestRunFlowsDeliversScenarioII(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	flows := []core.Flow{{Path: s.Path, Demand: 16.2}}
	rep, err := RunFlows(s.Model, sched, flows, TDMAConfig{MicroSlots: 1000, Periods: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline fill means delivered < injected, but long runs approach
	// the demand.
	if rep.FlowDelivered[0] < 0.85*16.2 {
		t.Errorf("delivered %.3f Mbps, want close to 16.2", rep.FlowDelivered[0])
	}
	if rep.FlowDelivered[0] > 16.2+1e-9 {
		t.Errorf("delivered %.3f Mbps exceeds injected demand", rep.FlowDelivered[0])
	}
	if math.IsNaN(rep.FlowDelayPeriods[0]) || rep.FlowDelayPeriods[0] <= 0 {
		t.Errorf("delay = %v, want positive", rep.FlowDelayPeriods[0])
	}
	// Per-link carried traffic cannot exceed the schedule's capacity.
	for _, l := range s.Links() {
		if rep.LinkThroughput[l] > sched.Throughput(l)+1e-9 {
			t.Errorf("link L%d carried %.3f > scheduled %.3f", l+1, rep.LinkThroughput[l], sched.Throughput(l))
		}
	}
}

func TestRunFlowsOverload(t *testing.T) {
	// Demanding more than the schedule carries must deliver at most the
	// schedule's capacity.
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	flows := []core.Flow{{Path: s.Path, Demand: 30}}
	rep, err := RunFlows(s.Model, sched, flows, TDMAConfig{MicroSlots: 1000, Periods: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowDelivered[0] > 16.2+1e-6 {
		t.Errorf("delivered %.3f Mbps from a 16.2 Mbps schedule", rep.FlowDelivered[0])
	}
}

func TestRunFlowsValidation(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	if _, err := RunFlows(s.Model, sched, nil, TDMAConfig{}); err == nil {
		t.Error("no flows: expected error")
	}
	if _, err := RunFlows(s.Model, sched, []core.Flow{{Path: nil, Demand: 1}}, TDMAConfig{}); err == nil {
		t.Error("empty path: expected error")
	}
	if _, err := RunFlows(s.Model, sched, []core.Flow{{Path: s.Path, Demand: 0}}, TDMAConfig{}); err == nil {
		t.Error("zero demand: expected error")
	}
}

func TestFrameQuantization(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	timeline := frame(sched, 1000)
	if len(timeline) != 1000 {
		t.Fatalf("timeline length %d, want 1000", len(timeline))
	}
	counts := map[int]int{}
	for _, si := range timeline {
		counts[si]++
	}
	if counts[0] != 100 || counts[1] != 300 || counts[2] != 300 || counts[3] != 300 {
		t.Errorf("slot counts = %v, want 100/300/300/300", counts)
	}
	// Irregular shares still fill exactly micro slots with the largest
	// remainder method.
	odd := schedule.Schedule{Slots: []schedule.Slot{
		{Share: 1.0 / 3, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
		{Share: 1.0 / 3, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: 54})},
		{Share: 1.0 / 3, Set: indepset.NewSet(conflict.Couple{Link: s.L3, Rate: 54})},
	}}
	tl := frame(odd, 100)
	used := 0
	for _, si := range tl {
		if si >= 0 {
			used++
		}
	}
	if used != 100 {
		t.Errorf("thirds should fill all 100 micro-slots, used %d", used)
	}
}

func TestMeasuredNodeIdleMatchesAnalytic(t *testing.T) {
	net, path, err := topology.Chain(radio.NewProfile80211a(), 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	res, err := core.AvailableBandwidthContext(context.Background(), m, nil, path, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := res.Schedule
	analytic := estimate.NodeIdleRatios(net, sched)
	measured, err := MeasuredNodeIdle(net, sched, TDMAConfig{MicroSlots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range analytic {
		if math.Abs(analytic[i]-measured[i]) > 5.0/2000 {
			t.Errorf("node %d: analytic idle %.4f vs measured %.4f", i, analytic[i], measured[i])
		}
	}
}

// TestRunFlowsMultiFlowSharing splits the Scenario II schedule between
// two flows on the same path: per-flow goodput sums to at most the
// schedule capacity and the earlier-listed flow is not starved.
func TestRunFlowsMultiFlowSharing(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	flows := []core.Flow{
		{Path: s.Path, Demand: 8.1},
		{Path: s.Path, Demand: 8.1},
	}
	rep, err := RunFlows(s.Model, sched, flows, TDMAConfig{MicroSlots: 1000, Periods: 30})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.FlowDelivered[0] + rep.FlowDelivered[1]
	if total > 16.2+1e-6 {
		t.Errorf("combined goodput %.3f exceeds schedule capacity 16.2", total)
	}
	if total < 0.85*16.2 {
		t.Errorf("combined goodput %.3f too low", total)
	}
	for i, d := range rep.FlowDelivered {
		if d < 0.8*8.1 {
			t.Errorf("flow %d starved: %.3f of 8.1 Mbps", i, d)
		}
	}
}

// TestRunFlowsPartialPathFlow exercises a flow using only a suffix of
// the scheduled links.
func TestRunFlowsPartialPathFlow(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	flows := []core.Flow{{Path: s.Path[2:], Demand: 10}}
	rep, err := RunFlows(s.Model, sched, flows, TDMAConfig{MicroSlots: 1000, Periods: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowDelivered[0] < 0.85*10 {
		t.Errorf("suffix flow delivered %.3f of 10 Mbps", rep.FlowDelivered[0])
	}
}
