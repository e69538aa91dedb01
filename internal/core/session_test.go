package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/topology"
)

// sessionTol bounds warm-vs-cold disagreement on the availability
// optimum; both paths end on the identical simplex termination
// criterion, so only pivot-tolerance arithmetic noise separates them.
const sessionTol = 1e-7

func sessionNetwork(t *testing.T, n int, seed int64) *topology.Network {
	t.Helper()
	net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 500, H: 500}, n, seed)
	if err != nil {
		t.Fatalf("building network: %v", err)
	}
	return net
}

// randomPath picks a random simple path of up to 4 hops by walking
// links from a random start node.
func randomPath(rng *rand.Rand, net *topology.Network) topology.Path {
	links := net.Links()
	if len(links) == 0 {
		return nil
	}
	start := links[rng.Intn(len(links))]
	path := topology.Path{start.ID}
	cur := start.Rx
	visited := map[topology.NodeID]bool{start.Tx: true, start.Rx: true}
	for hop := 1; hop < 4; hop++ {
		var next []topology.Link
		for _, l := range links {
			if l.Tx == cur && !visited[l.Rx] {
				next = append(next, l)
			}
		}
		if len(next) == 0 {
			break
		}
		l := next[rng.Intn(len(next))]
		path = append(path, l.ID)
		visited[l.Rx] = true
		cur = l.Rx
	}
	return path
}

// TestSessionMatchesColdAvailability is the warm-start invariant at the
// model level: across randomized admission-like sequences — a fixed
// candidate path queried repeatedly while background flows accumulate —
// every session answer (status, bandwidth, sets, links) matches a cold
// AvailableBandwidth call on the same inputs.
func TestSessionMatchesColdAvailability(t *testing.T) {
	rng := rand.New(rand.NewSource(8086))
	for trial := 0; trial < 8; trial++ {
		net := sessionNetwork(t, 10, int64(100+trial))
		m := conflict.NewPhysical(net)
		cache := memo.New(0)
		sess := NewSession(m, Options{Cache: cache})

		candidate := randomPath(rng, net)
		if len(candidate) == 0 {
			continue
		}
		var background []Flow
		for step := 0; step < 6; step++ {
			got, err := sess.AvailableBandwidthContext(context.Background(), background, candidate)
			if err != nil {
				t.Fatalf("trial %d step %d: session: %v", trial, step, err)
			}
			want, err := AvailableBandwidthContext(context.Background(), m, background, candidate, Options{})
			if err != nil {
				t.Fatalf("trial %d step %d: cold: %v", trial, step, err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d step %d: status %v, cold %v", trial, step, got.Status, want.Status)
			}
			if math.Abs(got.Bandwidth-want.Bandwidth) > sessionTol {
				t.Fatalf("trial %d step %d: bandwidth %.12g, cold %.12g",
					trial, step, got.Bandwidth, want.Bandwidth)
			}
			if len(got.Sets) != len(want.Sets) {
				t.Fatalf("trial %d step %d: %d sets, cold %d", trial, step, len(got.Sets), len(want.Sets))
			}
			for i := range want.Sets {
				if got.Sets[i].Key() != want.Sets[i].Key() {
					t.Fatalf("trial %d step %d: set %d differs", trial, step, i)
				}
			}
			// Grow the background along the same universe so the next
			// query is a pure bound change: claim part of what's left.
			if want.Status == lp.Optimal && want.Bandwidth > 0.2 {
				claim := want.Bandwidth * (0.2 + 0.3*rng.Float64())
				background = append(background, Flow{Path: candidate, Demand: claim})
			}
		}
		st := cache.Stats()
		if st.WarmResolves == 0 {
			t.Fatalf("trial %d: admission-like sequence never warm-started (stats %+v)", trial, st)
		}
	}
}

// TestSessionWarmSavesPivots pins the efficiency claim the stats
// surface reports: across a repeated-query sequence the warm resolves
// must spend fewer pivots per solve than the cold baseline.
func TestSessionWarmSavesPivots(t *testing.T) {
	net := sessionNetwork(t, 12, 7)
	m := conflict.NewPhysical(net)
	cache := memo.New(0)
	sess := NewSession(m, Options{Cache: cache})
	rng := rand.New(rand.NewSource(11))

	candidate := randomPath(rng, net)
	if len(candidate) == 0 {
		t.Skip("no path in topology")
	}
	var background []Flow
	for step := 0; step < 10; step++ {
		res, err := sess.AvailableBandwidthContext(context.Background(), background, candidate)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != lp.Optimal || res.Bandwidth < 0.1 {
			break
		}
		background = append(background, Flow{Path: candidate, Demand: res.Bandwidth * 0.3})
	}
	st := cache.Stats()
	if st.WarmResolves == 0 {
		t.Fatal("no warm resolves")
	}
	if st.WarmResolves > 0 && st.ColdPivots > 0 {
		warmPerSolve := float64(st.WarmPivots) / float64(st.WarmResolves)
		coldPerSolve := float64(st.ColdPivots) // one cold solve builds the state
		if warmPerSolve >= coldPerSolve {
			t.Fatalf("warm solves not cheaper: %.1f warm pivots/solve vs %.1f cold (stats %+v)",
				warmPerSolve, coldPerSolve, st)
		}
	}
	if st.PivotsSaved == 0 {
		t.Fatalf("no pivots reported saved: %+v", st)
	}
}

// TestSessionFeasibilityMemo checks the memoized verdict equals the
// computed one, byte-identical schedule included, and that repeats
// don't re-enumerate.
func TestSessionFeasibilityMemo(t *testing.T) {
	net := sessionNetwork(t, 9, 21)
	m := conflict.NewPhysical(net)
	cache := memo.New(0)
	sess := NewSession(m, Options{Cache: cache})
	rng := rand.New(rand.NewSource(5))

	path := randomPath(rng, net)
	if len(path) == 0 {
		t.Skip("no path in topology")
	}
	flows := []Flow{{Path: path, Demand: 1.5}}
	ok1, sched1, err := sess.FeasibleDemandsContext(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveBackgroundContext(context.Background(), m, flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	okCold, schedCold := cold.Feasible, cold.Schedule
	if ok1 != okCold {
		t.Fatalf("session verdict %v, cold %v", ok1, okCold)
	}
	ok2, sched2, err := sess.FeasibleDemandsContext(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 != ok1 {
		t.Fatal("memoized verdict flipped")
	}
	if len(sched1.Slots) != len(schedCold.Slots) || len(sched2.Slots) != len(sched1.Slots) {
		t.Fatalf("schedule slot counts differ: %d / %d / %d",
			len(sched1.Slots), len(sched2.Slots), len(schedCold.Slots))
	}
	for i := range sched1.Slots {
		if sched1.Slots[i].Set.Key() != sched2.Slots[i].Set.Key() {
			t.Fatalf("memoized schedule set %d differs", i)
		}
		//lint:ignore abw/floateq the memo contract is BIT-identical replay, not approximate
		if math.Abs(sched1.Slots[i].Share-sched2.Slots[i].Share) != 0 {
			t.Fatalf("memoized schedule share %d differs", i)
		}
	}
	// Mutating the returned schedule must not corrupt the memo.
	if len(sched2.Slots) > 0 {
		sched2.Slots[0].Share = -1
		_, sched3, err := sess.FeasibleDemandsContext(context.Background(), flows)
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore abw/floateq -1 is a sentinel this test just stored; exact compare intended
		if len(sched3.Slots) > 0 && sched3.Slots[0].Share == -1 {
			t.Fatal("caller mutation leaked into the memoized schedule")
		}
	}
}

// TestSessionConcurrentQueries drives one session from many goroutines
// mixing availability, feasibility and idle-ratio reads; every
// goroutine must read the idle ratios of the cold background solve,
// bit for bit. Run under -race in CI.
func TestSessionConcurrentQueries(t *testing.T) {
	net := sessionNetwork(t, 10, 33)
	m := conflict.NewPhysical(net)
	sess := NewSession(m, Options{Cache: memo.New(0)})
	rng := rand.New(rand.NewSource(3))
	paths := make([]topology.Path, 0, 4)
	for i := 0; i < 8 && len(paths) < 4; i++ {
		if p := randomPath(rng, net); len(p) > 0 {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		t.Skip("no paths in topology")
	}
	background := func(g int) []Flow { return []Flow{{Path: paths[(g+1)%len(paths)], Demand: 0.5}} }
	wantIdle := make([][]float64, len(paths))
	for g := range paths {
		cold, err := SolveBackgroundContext(context.Background(), m, background(g), Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantIdle[g] = cold.IdleRatios(net)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := paths[g%len(paths)]
			bg := background(g)
			for i := 0; i < 5; i++ {
				if _, err := sess.AvailableBandwidthContext(context.Background(), bg, p); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, _, err := sess.FeasibleDemandsContext(context.Background(), bg); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				b, err := sess.Background(context.Background(), bg)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				idle := b.IdleRatios(net)
				if !slices.EqualFunc(idle, wantIdle[g%len(paths)], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Errorf("goroutine %d: idle ratios %v, cold %v", g, idle, wantIdle[g%len(paths)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionWithoutCacheRetainsNothing: without Options.Cache,
// Session.Background is SolveBackgroundContext: each call solves anew,
// keeps its set family for the delta walk, and the session memoizes
// no background; and Eq. 6 through the session's
// AvailableBandwidthContext retains no LP.
func TestSessionWithoutCacheRetainsNothing(t *testing.T) {
	net := sessionNetwork(t, 9, 21)
	m := conflict.NewPhysical(net)
	rng := rand.New(rand.NewSource(5))
	path := randomPath(rng, net)
	flows := []Flow{{Path: path, Demand: 0.5}}
	sess := NewSession(m, Options{})
	a, err := sess.Background(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Background(context.Background(), flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.AvailableBandwidthContext(context.Background(), flows, randomPath(rng, net)); err != nil {
			t.Fatal(err)
		}
	}
	sess.mu.Lock()
	kept, states := len(sess.bgs), len(sess.avail)
	sess.mu.Unlock()
	if a == b || a.base.Sets == nil || a.memoized || kept != 0 || states != 0 {
		t.Fatalf("an uncached session kept state (same value %v, family kept %v, memo size %d, LP states %d)",
			a == b, a.base.Sets != nil, kept, states)
	}
}

// TestSessionStartsFromFeasibilityBasis: once the session holds a
// background's feasibility verdict, the first Eq. 6 solve of a new
// (universe, path) state starts from that verdict's basis, and answers
// bit for bit what the cold Background does from the same basis (the
// session's extra demand-free rows are inert). Without a memoized
// verdict AvailableBandwidthContext memoizes one first, as
// Session.Background does: the feasibility LP, then Eq. 6 from its
// basis.
func TestSessionStartsFromFeasibilityBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 8; trial++ {
		net := sessionNetwork(t, 10, int64(300+trial))
		m := conflict.NewPhysical(net)
		bgPath, path := randomPath(rng, net), randomPath(rng, net)
		if len(bgPath) == 0 || len(path) == 0 {
			continue
		}
		background := []Flow{{Path: bgPath, Demand: 0.5}}
		cold, err := SolveBackgroundContext(context.Background(), m, background, Options{})
		if err != nil || !cold.Feasible {
			continue
		}
		want, err := cold.AvailableBandwidthContext(context.Background(), path)
		if err != nil {
			t.Fatal(err)
		}

		sess := NewSession(m, Options{Cache: memo.New(0)})
		if _, _, err := sess.FeasibleDemandsContext(context.Background(), background); err != nil {
			t.Fatal(err)
		}
		span := obs.NewSpan("")
		got, err := sess.AvailableBandwidthContext(obs.WithSpan(context.Background(), span), background, path)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("trial %d", trial), got, want)
		if rec := lpSolveRecord(span); rec.Calls != 1 || rec.Started != 1 || len(rec.StartFallbacks) != 0 {
			t.Fatalf("trial %d: lp_solve record %+v, want one started solve", trial, rec)
		}

		fresh := NewSession(m, Options{Cache: memo.New(0)})
		span = obs.NewSpan("")
		if _, err := fresh.AvailableBandwidthContext(obs.WithSpan(context.Background(), span), background, path); err != nil {
			t.Fatal(err)
		}
		fresh.mu.Lock()
		memoized := len(fresh.bgs)
		fresh.mu.Unlock()
		if rec := lpSolveRecord(span); rec.Calls != 2 || rec.Started != 1 || len(rec.StartFallbacks) != 0 || memoized != 1 {
			t.Fatalf("trial %d: lp_solve record %+v and %d memoized backgrounds without a memoized verdict, want the feasibility solve, then a started one",
				trial, rec, memoized)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d of 8 trials drew a schedulable background", checked)
	}
}

// lpSolveRecord returns the span's lp_solve stage record.
func lpSolveRecord(span *obs.Span) obs.StageRecord {
	for _, rec := range span.Trace().Stages {
		if rec.Stage == obs.StageLPSolve {
			return rec
		}
	}
	return obs.StageRecord{}
}
