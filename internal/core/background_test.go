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
// Eq. 6 over it, for every path, against AvailableBandwidthContext at
// 1 and 2 workers.
func assertBackgroundMatchesCold(t *testing.T, m conflict.Model, background []Flow, paths []topology.Path, label string) {
	t.Helper()
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers}
		bg, err := SolveBackgroundContext(ctx, m, background, opts)
		if err != nil {
			t.Fatalf("%s: solving the background: %v", label, err)
		}
		ok, sched, err := FeasibleDemandsContext(ctx, m, background, opts)
		if err != nil || ok != bg.Feasible || fmt.Sprint(sched) != fmt.Sprint(bg.Schedule) {
			t.Fatalf("%s: background (%v, %v) differs from FeasibleDemands (%v, %v, %v)", label, bg.Feasible, bg.Schedule, ok, sched, err)
		}
		for pi, path := range paths {
			got, err := bg.AvailableBandwidthContext(ctx, path)
			if err != nil {
				t.Fatalf("%s: path %d: grown Eq. 6: %v", label, pi, err)
			}
			want, err := AvailableBandwidthContext(ctx, m, background, path, opts)
			if err != nil {
				t.Fatalf("%s: path %d: cold Eq. 6: %v", label, pi, err)
			}
			assertSameResult(t, fmt.Sprintf("%s workers %d path %d %v", label, workers, pi, path), got, want)
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
// Eq. 6 grown from the solved background equals AvailableBandwidth
// bit for bit — for paths adding several links, a path inside U_bg, an
// empty background and an unschedulable one.
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
	bg, err := SolveBackgroundContext(ctx, m, []Flow{{Path: chain[0:3], Demand: 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.armed = true
	res, err := bg.AvailableBandwidthContext(ctx, chain[2:7])
	if !errors.Is(err, cancel.ErrCanceled) || res != nil {
		t.Fatalf("cancelled delta: res=%v err=%v, want no result and ErrCanceled", res, err)
	}
	// The background stays intact: a later uncancelled Eq. 6 answers
	// as the cold path does.
	got, err := bg.AvailableBandwidthContext(context.Background(), chain[2:7])
	if err != nil {
		t.Fatal(err)
	}
	want, err := AvailableBandwidthContext(context.Background(), m, []Flow{{Path: chain[0:3], Demand: 2}}, chain[2:7], Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after a cancelled delta", got, want)
}
