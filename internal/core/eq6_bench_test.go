package core_test

import (
	"context"
	"math"
	"testing"
	"time"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/experiments"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/topology"
)

// BenchmarkSolveEq6Fig2 solves the availability LP in the shape abwd
// serves, both ways in the same run: Eq. 6 over the maximal independent
// sets of the Fig. 2 network, for the longest path the paper's Sec. 5.2
// run admits along average-e2eD routes, with the other admitted flows
// as background. Unlike lp's BenchmarkSolveEq6Shape (a fully dense
// LE-only LP), the background adds GE demand rows and each set column
// holds only its own links' rates. Each iteration solves it two-phase
// (phase 1 finds a feasible background schedule) and then from the
// background's optimal feasibility basis (phase 2 only), as a cold
// query does. The family and the background are solved once, outside
// the timer. It reports each way's time and pivots per op, their time
// ratio started/twophase, which a runner change does not disturb, and
// the LP's shape.
func BenchmarkSolveEq6Fig2(b *testing.B) {
	_, m, admitted := fig2Admitted(b)
	if len(admitted) < 2 {
		b.Fatalf("the Fig. 2 run admitted %d flows; the benchmark needs a background", len(admitted))
	}
	q := 0
	for i, f := range admitted {
		if len(f.Path) > len(admitted[q].Path) {
			q = i
		}
	}
	path := admitted[q].Path
	background := append(append([]core.Flow(nil), admitted[:q]...), admitted[q+1:]...)
	paths := []topology.Path{path}
	for _, f := range background {
		paths = append(paths, f.Path)
	}
	universe := topology.LinkUnion(paths...)
	sets, err := indepset.EnumerateContext(context.Background(), m, universe, indepset.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	bg, err := core.SolveBackgroundContext(ctx, m, background, core.Options{})
	if err != nil || !bg.Feasible {
		b.Fatalf("background: feasible=%v err=%v", bg != nil && bg.Feasible, err)
	}
	// Nonzeros: each set's links plus its share-row entry, and f's
	// entries on the path.
	nnz := len(sets) + len(path)
	for _, s := range sets {
		nnz += len(s.Couples)
	}
	rows, cols := len(universe)+1, len(sets)+1
	twoPhase, started := memo.New(0), memo.New(0)
	solve := func(fromBasis bool, cache *memo.Cache) {
		res, err := bg.Eq6OverSets(ctx, path, sets, fromBasis, cache)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != lp.Optimal {
			b.Fatalf("status %v", res.Status)
		}
	}
	var twoNs, startedNs time.Duration
	var mark time.Time
	b.ReportAllocs()
	b.ResetTimer()
	lap(&mark)
	for i := 0; i < b.N; i++ {
		solve(false, twoPhase)
		twoNs += lap(&mark)
		solve(true, started)
		startedNs += lap(&mark)
	}
	b.ReportMetric(float64(twoNs.Nanoseconds())/float64(b.N), "twophase-ns/op")
	b.ReportMetric(float64(startedNs.Nanoseconds())/float64(b.N), "started-ns/op")
	b.ReportMetric(float64(startedNs)/float64(twoNs), "started/twophase")
	b.ReportMetric(float64(twoPhase.Stats().ColdPivots)/float64(b.N), "twophase-pivots/op")
	b.ReportMetric(float64(started.Stats().ColdPivots)/float64(b.N), "started-pivots/op")
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(cols), "cols")
	b.ReportMetric(float64(nnz)/float64(rows*cols), "density")
}

// BenchmarkOneShotEq6 answers one Eq. 6 question both ways a caller
// that asks it once could, in the same run, for
// BenchmarkAvailableBandwidthQuery's query (a 4-hop chain with its own
// path as a 2 Mbps background). Two-phase is the package-level
// AvailableBandwidthContext, one walk of U_bg ∪ P and phase 1 then
// phase 2: the facade's one-shot System.AvailableBandwidth. Served is
// what a caller that reads the background does: SolveBackgroundContext
// (a walk of U_bg and the feasibility LP), then
// Background.AvailableBandwidthContext (the family grown by the path,
// and phase 2 from the background's basis). It reports each way's time
// per op and their ratio served/twophase, which a runner change does
// not disturb. A ratio above 1 is why the one-shot caller keeps the
// two-phase solve: it never reads the background the served path pays
// a feasibility LP for.
func BenchmarkOneShotEq6(b *testing.B) {
	net, err := topology.New(radio.NewProfile80211a(), geom.LinePoints(5, 100))
	if err != nil {
		b.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	path, err := net.PathFromNodes([]topology.NodeID{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	background := []core.Flow{{Path: path, Demand: 2}}
	ctx := context.Background()
	twoPhase := func() *core.Result {
		res, err := core.AvailableBandwidthContext(ctx, m, background, path, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	served := func() *core.Result {
		bg, err := core.SolveBackgroundContext(ctx, m, background, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := bg.AvailableBandwidthContext(ctx, path)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	if a, c := twoPhase(), served(); a.Status != lp.Optimal || c.Status != lp.Optimal || math.Abs(a.Bandwidth-c.Bandwidth) > 1e-9*math.Max(1, a.Bandwidth) {
		b.Fatalf("two-phase (%v, %v), served (%v, %v)", a.Status, a.Bandwidth, c.Status, c.Bandwidth)
	}
	var twoNs, servedNs time.Duration
	var mark time.Time
	b.ReportAllocs()
	b.ResetTimer()
	lap(&mark)
	for i := 0; i < b.N; i++ {
		twoPhase()
		twoNs += lap(&mark)
		served()
		servedNs += lap(&mark)
	}
	b.ReportMetric(float64(twoNs.Nanoseconds())/float64(b.N), "twophase-ns/op")
	b.ReportMetric(float64(servedNs.Nanoseconds())/float64(b.N), "served-ns/op")
	b.ReportMetric(float64(servedNs)/float64(twoNs), "served/twophase")
}

// fig2Admitted returns the Fig. 2 network, its model and the flows the
// paper's Sec. 5.2 run admits along average-e2eD routes.
func fig2Admitted(b testing.TB) (*topology.Network, *conflict.Physical, []core.Flow) {
	b.Helper()
	net, m, reqs, err := experiments.Fig2Setup()
	if err != nil {
		b.Fatal(err)
	}
	decs, err := routing.SequentialAdmissionContext(context.Background(), net, m, routing.MetricAvgE2ED, reqs, routing.AdmissionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var admitted []core.Flow
	for _, d := range decs {
		if d.Admitted {
			admitted = append(admitted, core.Flow{Path: d.Path, Demand: d.Request.Demand})
		}
	}
	return net, m, admitted
}

// BenchmarkEq6FamilyFig2 builds Eq. 6's set family the two ways a cold
// query can, in the same run: for the Fig. 2 run's admitted flows as
// background and a 4-hop path, once by a full walk over U_bg ∪ P and
// once grown from the background's family by one delta walk (the
// background walk itself is outside the timer: both ways pay it). The
// path is the average-e2eD route, over the background's idle ratios,
// of the first node pair whose route has four links and adds the most
// links to U_bg. It reports each way's time per op and their ratio,
// grown/full, which a runner change does not disturb.
func BenchmarkEq6FamilyFig2(b *testing.B) {
	net, m, background := fig2Admitted(b)
	ctx := context.Background()
	var bgPaths []topology.Path
	for _, f := range background {
		bgPaths = append(bgPaths, f.Path)
	}
	bgUniverse := topology.LinkUnion(bgPaths...)
	bg, err := core.SolveBackgroundContext(ctx, m, background, core.Options{})
	if err != nil || !bg.Feasible {
		b.Fatalf("background: feasible=%v err=%v", bg != nil && bg.Feasible, err)
	}
	idle := estimate.NodeIdleRatios(net, bg.Schedule)
	var path topology.Path
	bestAdded := 0
	for src := 0; src < net.NumNodes(); src++ {
		for dst := 0; dst < net.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			p, err := routing.FindPath(net, m, routing.MetricAvgE2ED, idle, topology.NodeID(src), topology.NodeID(dst))
			if err != nil || len(p) != 4 {
				continue
			}
			if added := len(topology.LinkUnion(bgUniverse, p)) - len(bgUniverse); added > bestAdded {
				path, bestAdded = p, added
			}
		}
	}
	if path == nil {
		b.Fatal("no 4-hop route adds links to the Fig. 2 background")
	}
	universe := topology.LinkUnion(bgUniverse, path)
	opts := indepset.Options{}
	sets, truncated, explored, err := indepset.EnumeratePartialCountedContext(ctx, m, bgUniverse, opts)
	if err != nil || truncated {
		b.Fatalf("background walk: truncated=%v err=%v", truncated, err)
	}
	base := indepset.DeltaBase{Universe: bgUniverse, Sets: sets, Explored: explored}
	full, err := indepset.EnumerateContext(ctx, m, universe, opts)
	if err != nil {
		b.Fatal(err)
	}
	grown, _, err := indepset.EnumerateDelta(ctx, m, base, path, opts)
	if err != nil {
		b.Fatal(err)
	}
	if len(grown) != len(full) {
		b.Fatalf("grown family has %d sets, full walk %d", len(grown), len(full))
	}
	for i := range grown {
		if grown[i].Key() != full[i].Key() {
			b.Fatalf("set %d: grown %s, full %s", i, grown[i].Key(), full[i].Key())
		}
	}
	var fullNs, grownNs time.Duration
	var mark time.Time
	b.ReportAllocs()
	b.ResetTimer()
	lap(&mark)
	for i := 0; i < b.N; i++ {
		if _, err := indepset.EnumerateContext(ctx, m, universe, opts); err != nil {
			b.Fatal(err)
		}
		fullNs += lap(&mark)
		if _, _, err := indepset.EnumerateDelta(ctx, m, base, path, opts); err != nil {
			b.Fatal(err)
		}
		grownNs += lap(&mark)
	}
	b.ReportMetric(float64(fullNs.Nanoseconds())/float64(b.N), "full-ns/op")
	b.ReportMetric(float64(grownNs.Nanoseconds())/float64(b.N), "grown-ns/op")
	b.ReportMetric(float64(grownNs)/float64(fullNs), "grown/full")
	b.ReportMetric(float64(bestAdded), "added-links")
	b.ReportMetric(float64(len(full)), "sets")
}

// lap returns the time since *mark and moves the mark to now.
func lap(mark *time.Time) time.Duration {
	//lint:ignore abw/timenow benchmark stopwatch: splits each iteration between the two walks and feeds only reported metrics, never a result
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}
