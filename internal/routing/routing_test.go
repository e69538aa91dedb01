package routing

import (
	"context"
	"fmt"
	"math"
	"testing"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/memo"
	"abw/internal/radio"
	"abw/internal/schedule"
	"abw/internal/topology"
)

func lineNet(t *testing.T, n int, spacing float64) (*topology.Network, *conflict.Physical) {
	t.Helper()
	net, err := topology.New(radio.NewProfile80211a(), geom.LinePoints(n, spacing))
	if err != nil {
		t.Fatal(err)
	}
	return net, conflict.NewPhysical(net)
}

func allIdle(net *topology.Network) []float64 {
	idle := make([]float64, net.NumNodes())
	for i := range idle {
		idle[i] = 1
	}
	return idle
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		MetricHopCount: "hop count",
		MetricE2ETD:    "e2eTD",
		MetricAvgE2ED:  "average-e2eD",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Metric(42).String() != "Metric(42)" {
		t.Error("unknown metric label wrong")
	}
	if len(AllMetrics()) != 3 {
		t.Error("AllMetrics should list 3 metrics")
	}
}

func TestWeightValidation(t *testing.T) {
	_, m := lineNet(t, 3, 100)
	if _, err := Weight(m, MetricAvgE2ED, nil); err == nil {
		t.Error("avgE2ED without idleness: expected error")
	}
	if _, err := Weight(m, Metric(0), nil); err == nil {
		t.Error("unknown metric: expected error")
	}
}

func TestHopCountVsE2ETD(t *testing.T) {
	// 5 nodes, 50m apart: hop count jumps 150m at 6 Mbps (2 hops);
	// e2eTD prefers four 54 Mbps hops.
	net, m := lineNet(t, 5, 50)
	hopPath, err := FindPath(net, m, MetricHopCount, nil, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	tdPath, err := FindPath(net, m, MetricE2ETD, nil, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hopPath) >= len(tdPath) {
		t.Errorf("hop count path (%d hops) should be shorter than e2eTD path (%d hops)", len(hopPath), len(tdPath))
	}
	if len(tdPath) != 4 {
		t.Errorf("e2eTD path has %d hops, want 4 (all 54 Mbps)", len(tdPath))
	}
}

func TestAvgE2EDAvoidsBusyNodes(t *testing.T) {
	// Two parallel 2-hop routes 0 -> (1 or 2) -> 3. Node 1 is busy
	// (idle 0.1), node 2 is idle: average-e2eD must route via node 2
	// while e2eTD is indifferent-or-picks-first.
	prof := radio.NewProfile80211a()
	net, err := topology.New(prof, []geom.Point{
		{X: 0, Y: 0},    // 0: src
		{X: 50, Y: 40},  // 1: busy relay
		{X: 50, Y: -40}, // 2: idle relay
		{X: 100, Y: 0},  // 3: dst
	})
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	idle := []float64{1, 0.1, 1, 1}
	path, err := FindPath(net, m, MetricAvgE2ED, idle, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n == 1 {
			t.Errorf("average-e2eD routed through the busy node: %v", nodes)
		}
	}
}

func TestBackgroundIdlenessNoFlows(t *testing.T) {
	net, m := lineNet(t, 4, 100)
	idle, err := BackgroundIdlenessContext(context.Background(), net, m, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range idle {
		if v != 1 {
			t.Errorf("node %d idle = %g, want 1", i, v)
		}
	}
}

func TestBackgroundIdlenessWithFlow(t *testing.T) {
	net, m := lineNet(t, 4, 100)
	path, err := net.PathFromNodes([]topology.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := BackgroundIdlenessContext(context.Background(), net, m, []core.Flow{{Path: path, Demand: 2}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range idle {
		if v >= 1 {
			t.Errorf("node %d idle = %g, want < 1 with background traffic", i, v)
		}
		if v < 0 {
			t.Errorf("node %d idle = %g negative", i, v)
		}
	}
}

func TestSequentialAdmissionInvariants(t *testing.T) {
	net, m := lineNet(t, 5, 100)
	reqs := []Request{
		{Src: 0, Dst: 4, Demand: 1.5},
		{Src: 0, Dst: 4, Demand: 1.5},
		{Src: 0, Dst: 4, Demand: 1.5},
		{Src: 0, Dst: 4, Demand: 1.5},
	}
	decs, err := SequentialAdmissionContext(context.Background(), net, m, MetricE2ETD, reqs, AdmissionOptions{StopAtFirstFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	// The 4-hop chain supports 54/11 ~ 4.909 Mbps end to end (the
	// optimal schedule reuses hop 0 at 6 Mbps alongside hop 3 at 18 —
	// the same link-adaptation structure as the paper's Scenario II).
	// Three 1.5 Mbps flows fit; the fourth must fail.
	for i, d := range decs {
		if d.Admitted {
			if d.Available+1e-9 < d.Request.Demand {
				t.Errorf("decision %d admitted with available %.3f < demand %.3f", i, d.Available, d.Request.Demand)
			}
			if err := net.ValidatePath(d.Path); err != nil {
				t.Errorf("decision %d has invalid path: %v", i, err)
			}
		} else {
			if d.Reason == "" {
				t.Errorf("decision %d rejected without reason", i)
			}
			if i != len(decs)-1 {
				t.Errorf("run should have stopped at first failure (failure at %d of %d)", i, len(decs))
			}
		}
	}
	if got, want := decs[0].Available, 54.0/11; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("first flow available = %.6f, want 54/11 = %.6f", got, want)
	}
	last := decs[len(decs)-1]
	if last.Admitted {
		t.Error("the run should end with a rejected flow")
	}
	if len(decs) != 4 {
		t.Errorf("expected exactly 3 admissions + 1 failure, got %d decisions", len(decs))
	}
}

func TestSequentialAdmissionContinueAfterFailure(t *testing.T) {
	net, m := lineNet(t, 5, 100)
	reqs := []Request{
		{Src: 0, Dst: 4, Demand: 100}, // impossible
		{Src: 0, Dst: 4, Demand: 2},   // fine
	}
	decs, err := SequentialAdmissionContext(context.Background(), net, m, MetricHopCount, reqs, AdmissionOptions{StopAtFirstFailure: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 {
		t.Fatalf("got %d decisions, want 2", len(decs))
	}
	if decs[0].Admitted {
		t.Error("100 Mbps demand should be rejected")
	}
	if !decs[1].Admitted {
		t.Errorf("2 Mbps after a rejection should be admitted: %+v", decs[1])
	}
}

func TestSequentialAdmissionNoRoute(t *testing.T) {
	net, err := topology.New(radio.NewProfile80211a(), []geom.Point{{X: 0}, {X: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	decs, err := SequentialAdmissionContext(context.Background(), net, m, MetricHopCount, []Request{{Src: 0, Dst: 1, Demand: 1}}, AdmissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Admitted || decs[0].Reason != "no route" {
		t.Errorf("decisions = %+v, want a single 'no route' rejection", decs)
	}
}

// TestAdmitStepReturnsItsBackground: the step hands back the solved
// background it routed on, the session's own value, so a caller reads
// the idle ratios that chose the path and the Eq. 6 answer the
// decision records without solving again; an unschedulable background
// is an error with no value.
func TestAdmitStepReturnsItsBackground(t *testing.T) {
	net, m := lineNet(t, 6, 100)
	ctx := context.Background()
	sess := core.NewSession(m, core.Options{Cache: memo.New(0)})
	first, err := net.PathFromNodes([]topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	admitted := []core.Flow{{Path: first, Demand: 1}}
	req := Request{Src: 1, Dst: 5, Demand: 0.5}
	dec, bg, err := AdmitStepContext(ctx, net, m, MetricAvgE2ED, req, admitted, sess)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := sess.Background(ctx, admitted); err != nil || bg != want {
		t.Fatalf("step returned background %p, session holds %p (%v)", bg, want, err)
	}
	path, err := FindPath(net, m, MetricAvgE2ED, bg.IdleRatios(net), req.Src, req.Dst)
	if err != nil || fmt.Sprint(path) != fmt.Sprint(dec.Path) {
		t.Fatalf("step routed %v, its background's idle ratios route %v (%v)", dec.Path, path, err)
	}
	res, err := bg.AvailableBandwidthContext(ctx, dec.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || math.Float64bits(dec.Available) != math.Float64bits(res.Bandwidth) {
		t.Fatalf("decision %+v, Eq. 6 over the returned background %v", dec, res.Bandwidth)
	}

	over := []core.Flow{{Path: first, Demand: 1000}}
	if _, bg, err := AdmitStepContext(ctx, net, m, MetricAvgE2ED, req, over, sess); err == nil || bg != nil {
		t.Fatalf("an unschedulable background gave (%v, %v), want an error and no value", bg, err)
	}
}

func TestSequentialAdmissionBadDemand(t *testing.T) {
	net, m := lineNet(t, 3, 100)
	if _, err := SequentialAdmissionContext(context.Background(), net, m, MetricHopCount, []Request{{Src: 0, Dst: 2, Demand: 0}}, AdmissionOptions{}); err == nil {
		t.Error("zero demand: expected error")
	}
}

func TestFindPathByEstimator(t *testing.T) {
	net, m := lineNet(t, 5, 50)
	idle := allIdle(net)
	eval := func(ps estimate.PathState) (float64, error) {
		return estimate.ConservativeClique(m, ps)
	}
	path, score, err := FindPathByEstimator(net, m, idle, 0, 4, 5, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || score <= 0 {
		t.Errorf("path=%v score=%g", path, score)
	}
	if err := net.ValidatePath(path); err != nil {
		t.Errorf("invalid path: %v", err)
	}
	if _, _, err := FindPathByEstimator(net, m, idle, 0, 4, 3, nil); err == nil {
		t.Error("nil evaluator: expected error")
	}
}

func TestFindPathByEstimatorPrefersHigherBandwidth(t *testing.T) {
	// Against e2eTD's own top choice, the estimator-guided router must
	// return a path whose estimate is at least as large as the e2eTD
	// path's estimate.
	net, m := lineNet(t, 6, 50)
	idle := allIdle(net)
	eval := func(ps estimate.PathState) (float64, error) {
		return estimate.ConservativeClique(m, ps)
	}
	bestPath, bestScore, err := FindPathByEstimator(net, m, idle, 0, 5, 8, eval)
	if err != nil {
		t.Fatal(err)
	}
	tdPath, err := FindPath(net, m, MetricE2ETD, nil, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	tdState, err := estimate.PathStateFromSchedule(net, m, emptySchedule(), tdPath)
	if err != nil {
		t.Fatal(err)
	}
	tdScore, err := eval(tdState)
	if err != nil {
		t.Fatal(err)
	}
	if bestScore < tdScore-1e-9 {
		t.Errorf("estimator-guided score %.4f below e2eTD path score %.4f (path %v)", bestScore, tdScore, bestPath)
	}
}

func emptySchedule() schedule.Schedule { return schedule.Schedule{} }
