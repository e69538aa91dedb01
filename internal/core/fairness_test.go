package core

import (
	"context"
	"math"
	"testing"

	"abw/internal/scenario"
	"abw/internal/topology"
)

func TestMaxMinFairScenarioISymmetric(t *testing.T) {
	s := scenario.NewScenarioI(54)
	flows := []Flow{
		{Path: topology.Path{s.L1}},
		{Path: topology.Path{s.L2}},
		{Path: topology.Path{s.L3}},
	}
	alloc, sched, err := MaxMinFairContext(context.Background(), s.Model, flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// L1 and L2 overlap; L3 conflicts with both: the fair point is 27
	// each (half the channel to the {L1,L2} side, half to L3).
	for j, a := range alloc {
		if math.Abs(a-27) > 1e-6 {
			t.Errorf("flow %d allocation = %.4f, want 27", j, a)
		}
	}
	if err := sched.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	demand := map[topology.LinkID]float64{s.L1: alloc[0], s.L2: alloc[1], s.L3: alloc[2]}
	if !sched.Delivers(demand, 1e-6) {
		t.Error("schedule does not deliver the allocations")
	}
}

func TestMaxMinFairWithDemandCap(t *testing.T) {
	s := scenario.NewScenarioI(54)
	flows := []Flow{
		{Path: topology.Path{s.L1}, Demand: 10}, // capped
		{Path: topology.Path{s.L2}},             // uncapped
		{Path: topology.Path{s.L3}},             // uncapped
	}
	alloc, _, err := MaxMinFairContext(context.Background(), s.Model, flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0]-10) > 1e-6 {
		t.Errorf("capped flow allocation = %.4f, want 10", alloc[0])
	}
	// L2 rides alongside L1; both L2 and L3 still fair-share to 27.
	if math.Abs(alloc[1]-27) > 1e-6 || math.Abs(alloc[2]-27) > 1e-6 {
		t.Errorf("uncapped allocations = %.4f, %.4f, want 27 each", alloc[1], alloc[2])
	}
}

func TestMaxMinFairScenarioIISingleFlow(t *testing.T) {
	s := scenario.NewScenarioII()
	alloc, sched, err := MaxMinFairContext(context.Background(), s.Model, []Flow{{Path: s.Path}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0]-16.2) > 1e-6 {
		t.Errorf("single-flow max-min = %.4f, want the capacity 16.2", alloc[0])
	}
	if err := sched.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestMaxMinFairScenarioIITwinFlows(t *testing.T) {
	s := scenario.NewScenarioII()
	alloc, _, err := MaxMinFairContext(context.Background(), s.Model, []Flow{{Path: s.Path}, {Path: s.Path}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range alloc {
		if math.Abs(a-8.1) > 1e-6 {
			t.Errorf("twin flow %d allocation = %.4f, want 8.1", j, a)
		}
	}
}

func TestMaxMinFairAsymmetricBottlenecks(t *testing.T) {
	// Flow A crosses the contested L3; flows B and C use the mutually
	// compatible L1 and L2. Max-min should NOT starve B and C down to
	// A's bottleneck: after A and the common contention freeze, B and C
	// keep growing.
	s := scenario.NewScenarioI(54)
	flows := []Flow{
		{Path: topology.Path{s.L3}, Demand: 5}, // modest demand on the contested link
		{Path: topology.Path{s.L1}},
		{Path: topology.Path{s.L2}},
	}
	alloc, _, err := MaxMinFairContext(context.Background(), s.Model, flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc[0]-5) > 1e-6 {
		t.Errorf("capped contested flow = %.4f, want 5", alloc[0])
	}
	// Remaining share for L1/L2 side: 1 - 5/54 of the period at 54.
	want := (1 - 5.0/54) * 54
	if math.Abs(alloc[1]-want) > 1e-6 || math.Abs(alloc[2]-want) > 1e-6 {
		t.Errorf("side flows = %.4f, %.4f, want %.4f", alloc[1], alloc[2], want)
	}
}

func TestMaxMinFairValidation(t *testing.T) {
	s := scenario.NewScenarioI(54)
	if _, _, err := MaxMinFairContext(context.Background(), s.Model, nil, Options{}); err == nil {
		t.Error("no flows: expected error")
	}
	if _, _, err := MaxMinFairContext(context.Background(), s.Model, []Flow{{Path: nil}}, Options{}); err == nil {
		t.Error("empty path: expected error")
	}
}
