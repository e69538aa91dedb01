package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/topology"
)

// assertSameResult fails unless got equals want bit for bit: status,
// bandwidth, schedule (set keys and share bits, slot by slot), and the
// family and universe the LP ran over.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Status != want.Status || math.Float64bits(got.Bandwidth) != math.Float64bits(want.Bandwidth) {
		t.Fatalf("%s: got (%v, %v), want (%v, %v)", label, got.Status, got.Bandwidth, want.Status, want.Bandwidth)
	}
	if len(got.Schedule.Slots) != len(want.Schedule.Slots) {
		t.Fatalf("%s: %d schedule slots, want %d", label, len(got.Schedule.Slots), len(want.Schedule.Slots))
	}
	for i, s := range got.Schedule.Slots {
		w := want.Schedule.Slots[i]
		if s.Set.Key() != w.Set.Key() || math.Float64bits(s.Share) != math.Float64bits(w.Share) {
			t.Fatalf("%s: slot %d = %v@%v, want %v@%v", label, i, s.Set, s.Share, w.Set, w.Share)
		}
	}
	if fmt.Sprint(got.Links) != fmt.Sprint(want.Links) || len(got.Sets) != len(want.Sets) {
		t.Fatalf("%s: LP over %v (%d sets), want %v (%d sets)", label, got.Links, len(got.Sets), want.Links, len(want.Sets))
	}
	for i := range got.Sets {
		if got.Sets[i].Key() != want.Sets[i].Key() {
			t.Fatalf("%s: set %d = %s, want %s", label, i, got.Sets[i].Key(), want.Sets[i].Key())
		}
	}
}

// assertBackgroundMatchesCold solves the background once and checks
// Eq. 6 over it, for every path, without and through a cache, against
// two references. Bit for bit, it equals Eq. 6 over a full walk of
// U_bg ∪ P started from the same background basis, so the grown family
// changes nothing. Within tolerance, it matches the package-level
// two-phase AvailableBandwidthContext (assertSameOptimum). An empty or
// unschedulable background has no start, so there the two references
// coincide and the answer equals the package-level one bit for bit.
func assertBackgroundMatchesCold(t *testing.T, m conflict.Model, background []Flow, paths []topology.Path, label string) {
	t.Helper()
	ctx := context.Background()
	for oi, opts := range []Options{{}, {Cache: memo.New(0)}} {
		bg, err := SolveBackgroundContext(ctx, m, background, opts)
		if err != nil {
			t.Fatalf("%s: solving the background: %v", label, err)
		}
		ok, sched, err := FeasibleDemandsContext(ctx, m, background, opts)
		if err != nil || ok != bg.Feasible || fmt.Sprint(sched) != fmt.Sprint(bg.Schedule) {
			t.Fatalf("%s: background (%v, %v) differs from FeasibleDemands (%v, %v, %v)", label, bg.Feasible, bg.Schedule, ok, sched, err)
		}
		if (bg.start != nil) != (len(background) > 0 && bg.Feasible) {
			t.Fatalf("%s: start kept = %v for a background of %d flows, feasible %v", label, bg.start != nil, len(background), bg.Feasible)
		}
		for pi, path := range paths {
			at := fmt.Sprintf("%s options %d path %d %v", label, oi, pi, path)
			span := obs.NewSpan("")
			got, err := bg.AvailableBandwidthContext(obs.WithSpan(ctx, span), path)
			if err != nil {
				t.Fatalf("%s: grown Eq. 6: %v", at, err)
			}
			wantStarted := int64(0)
			if bg.start != nil {
				wantStarted = 1
			}
			if rec := lpSolveRecord(span); rec.Started != wantStarted || len(rec.StartFallbacks) != 0 {
				t.Fatalf("%s: lp_solve record %+v, want a started solve exactly when the background has a start", at, rec)
			}
			assertSameResult(t, at+" vs the full walk from the same start", got, fullWalkFromStart(t, bg, background, path, opts))
			want, err := AvailableBandwidthContext(ctx, m, background, path, opts)
			if err != nil {
				t.Fatalf("%s: two-phase Eq. 6: %v", at, err)
			}
			if bg.start == nil {
				assertSameResult(t, at+" without a start", got, want)
			}
			assertSameOptimum(t, at+" vs two-phase", got, want, background, path)
		}
	}
}

// fullWalkFromStart is Eq. 6 for path over a full walk of U_bg ∪ P,
// started from bg's basis (two-phase when it has none): the reference
// the grown family must equal bit for bit. The package-level
// AvailableBandwidthWithSetsContext over the same walk, which solves
// the background again for its start, must return it bit for bit too.
func fullWalkFromStart(t *testing.T, bg *Background, background []Flow, path topology.Path, opts Options) *Result {
	t.Helper()
	universe := topology.LinkUnion(bg.universe, path)
	sets, err := indepset.EnumerateContext(context.Background(), bg.sess.m, universe, opts.indepOptions())
	if err != nil {
		t.Fatalf("full walk of %v: %v", universe, err)
	}
	pos := newLinkPos(universe)
	res, err := solveEq6(context.Background(), pos, linkLoad(pos, background), path, sets, nil, bg.start)
	if err != nil {
		t.Fatalf("Eq. 6 over the full walk: %v", err)
	}
	withSets, err := AvailableBandwidthWithSetsContext(context.Background(), bg.sess.m, background, path, sets)
	if err != nil {
		t.Fatalf("AvailableBandwidthWithSets over the full walk: %v", err)
	}
	assertSameResult(t, fmt.Sprintf("AvailableBandwidthWithSets over the full walk for %v", path), withSets, res)
	return res
}

// assertSameOptimum checks got against the two-phase answer want up to
// the pivot-tolerance noise a different pivot sequence may leave: the
// same status, universe and family, a bandwidth within 1e-9 relative
// (perfbench's verification bound), and a schedule of total share at
// most 1 + 1e-9 that delivers every background demand plus the
// bandwidth on each traversal of path, within 1e-9.
func assertSameOptimum(t *testing.T, label string, got, want *Result, background []Flow, path topology.Path) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if fmt.Sprint(got.Links) != fmt.Sprint(want.Links) || len(got.Sets) != len(want.Sets) {
		t.Fatalf("%s: LP over %v (%d sets), want %v (%d sets)", label, got.Links, len(got.Sets), want.Links, len(want.Sets))
	}
	for i := range got.Sets {
		if got.Sets[i].Key() != want.Sets[i].Key() {
			t.Fatalf("%s: set %d = %s, want %s", label, i, got.Sets[i].Key(), want.Sets[i].Key())
		}
	}
	if got.Status != lp.Optimal {
		return
	}
	if diff := math.Abs(got.Bandwidth - want.Bandwidth); diff > 1e-9*math.Max(1, math.Abs(want.Bandwidth)) {
		t.Fatalf("%s: bandwidth %.17g, two-phase %.17g", label, got.Bandwidth, want.Bandwidth)
	}
	if total := got.Schedule.TotalShare(); total > 1+1e-9 {
		t.Fatalf("%s: schedule uses %.17g of the period", label, total)
	}
	need := linkDemand(background)
	for _, l := range path {
		need[l] += got.Bandwidth
	}
	for _, l := range got.Links {
		if have := got.Schedule.Throughput(l); have < need[l]-1e-9*math.Max(1, need[l]) {
			t.Fatalf("%s: link %d gets %.17g Mbps, needs %.17g", label, l, have, need[l])
		}
	}
}

// multiHopPaths returns the shortest-hop paths of at least two links
// between node pairs, in pair order.
func multiHopPaths(net *topology.Network) []topology.Path {
	var out []topology.Path
	for a := 0; a < net.NumNodes(); a++ {
		for b := 0; b < net.NumNodes(); b++ {
			if a == b {
				continue
			}
			if p, err := shortestHopPath(net, topology.NodeID(a), topology.NodeID(b)); err == nil && len(p) >= 2 {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestBackgroundEq6MatchesCold is the cold entry point's equivalence:
// on random geometric networks under the physical and protocol models,
// Eq. 6 grown from the solved background equals Eq. 6 over a full walk
// from the same start bit for bit, and AvailableBandwidth within
// tolerance (bit for bit without a start) — for paths adding several
// links, a path inside U_bg, an empty background and an unschedulable
// one.
func TestBackgroundEq6MatchesCold(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := topology.New(radio.NewProfile80211a(), geom.UniformPoints(rng, geom.Rect{W: 300, H: 300}, 9))
		if err != nil {
			t.Fatal(err)
		}
		paths := multiHopPaths(net)
		if len(paths) < 4 {
			continue
		}
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		background := []Flow{{Path: paths[0], Demand: 0.5}, {Path: paths[1], Demand: 0.25}}
		queries := []topology.Path{paths[2], paths[3], paths[0], paths[1][:1]}
		heavy := []Flow{{Path: paths[0], Demand: 1000}}
		for _, m := range []conflict.Model{conflict.NewPhysical(net), conflict.NewProtocol(net)} {
			label := fmt.Sprintf("seed %d %T", seed, m)
			if bg, err := SolveBackgroundContext(context.Background(), m, heavy, Options{}); err != nil || bg.Feasible {
				t.Fatalf("%s: a 1000 Mbps background solved as schedulable (err %v)", label, err)
			}
			assertBackgroundMatchesCold(t, m, background, queries, label)
			assertBackgroundMatchesCold(t, m, nil, queries, label+" empty background")
			assertBackgroundMatchesCold(t, m, heavy, queries, label+" unschedulable background")
		}
	}
}

// TestBackgroundEq6RandomTables runs the equivalence on random pairwise
// tables, where the new path adds links between background positions.
func TestBackgroundEq6RandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		tb, chain := randomTableModel(rng, 8, []radio.Rate{54, 36, 18})
		background := []Flow{{Path: chain[0:2], Demand: 3}, {Path: chain[4:6], Demand: 2}}
		queries := []topology.Path{chain[1:5], chain[5:8], chain[:8], chain[4:6]}
		assertBackgroundMatchesCold(t, tb, background, queries, fmt.Sprintf("trial %d", trial))
	}
}

// cancelOnClear is a pairwise model that cancels a context from inside
// RateClears once armed: the delta's clear table is built after its
// walk started, so the cancellation lands midway through the delta.
type cancelOnClear struct {
	*conflict.Table
	armed  bool
	cancel context.CancelFunc
}

func (c *cancelOnClear) RateClears(link topology.LinkID, r radio.Rate, other conflict.Couple) bool {
	if c.armed {
		c.cancel()
	}
	return c.Table.RateClears(link, r, other)
}

// TestBackgroundDeltaCanceled pins the cancellation contract of the
// grown Eq. 6: a delta cancelled midway returns ErrCanceled and no
// result.
func TestBackgroundDeltaCanceled(t *testing.T) {
	tb, chain := randomTableModel(rand.New(rand.NewSource(5)), 8, []radio.Rate{54, 36, 18})
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	m := &cancelOnClear{Table: tb, cancel: cancelCtx}
	background := []Flow{{Path: chain[0:3], Demand: 2}}
	bg, err := SolveBackgroundContext(ctx, m, background, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.armed = true
	res, err := bg.AvailableBandwidthContext(ctx, chain[2:7])
	if !errors.Is(err, cancel.ErrCanceled) || res != nil {
		t.Fatalf("cancelled delta: res=%v err=%v, want no result and ErrCanceled", res, err)
	}
	// The background stays intact: a later uncancelled Eq. 6 answers
	// as Eq. 6 over a full walk from the same start does, and matches
	// the two-phase answer.
	got, err := bg.AvailableBandwidthContext(context.Background(), chain[2:7])
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after a cancelled delta", got, fullWalkFromStart(t, bg, background, chain[2:7], Options{}))
	want, err := AvailableBandwidthContext(context.Background(), m, background, chain[2:7], Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOptimum(t, "after a cancelled delta vs two-phase", got, want, background, chain[2:7])
}

// walkless hides a Table's pairwise method, so no walk serves it.
type walkless struct{ conflict.Model }

// TestWithSetsWithoutBackgroundWalk pins AvailableBandwidthWithSets'
// fallback: when the background cannot be walked for a start, the LP
// over the given sets still answers, two-phase.
func TestWithSetsWithoutBackgroundWalk(t *testing.T) {
	tb, chain := randomTableModel(rand.New(rand.NewSource(7)), 6, []radio.Rate{54, 18})
	background, path := []Flow{{Path: chain[0:3], Demand: 1}}, chain[2:6]
	sets, err := indepset.EnumerateContext(context.Background(), tb, chain, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indepset.EnumerateContext(context.Background(), walkless{tb}, chain, indepset.Options{}); !errors.Is(err, indepset.ErrUnsupportedModel) {
		t.Fatalf("walking the hidden model: %v, want ErrUnsupportedModel", err)
	}
	got, err := AvailableBandwidthWithSetsContext(context.Background(), walkless{tb}, background, path, sets)
	if err != nil {
		t.Fatal(err)
	}
	pos := newLinkPos(chain)
	want, err := solveEq6(context.Background(), pos, linkLoad(pos, background), path, sets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "without a background walk", got, want)
}
