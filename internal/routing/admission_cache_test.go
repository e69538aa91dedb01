package routing

import (
	"context"
	"math"
	"testing"

	"abw/internal/core"
	"abw/internal/memo"
)

// TestSequentialAdmissionCachedMatchesUncached pins the subsystem
// contract at the admission level: running the same request sequence
// with the memo cache (set-family reuse + warm-started LPs + memoized
// feasibility) must produce decision-for-decision identical outcomes —
// same paths, same admit/reject verdicts, same available bandwidth
// within solver tolerance.
func TestSequentialAdmissionCachedMatchesUncached(t *testing.T) {
	net, m := lineNet(t, 6, 100)
	reqs := []Request{
		{Src: 0, Dst: 5, Demand: 1.0},
		{Src: 1, Dst: 4, Demand: 0.8},
		{Src: 0, Dst: 5, Demand: 1.0},
		{Src: 2, Dst: 5, Demand: 0.5},
		{Src: 0, Dst: 5, Demand: 1.0},
		{Src: 0, Dst: 3, Demand: 0.7},
	}
	for _, metric := range []Metric{MetricHopCount, MetricE2ETD} {
		plain, err := SequentialAdmissionContext(context.Background(), net, m, metric, reqs, AdmissionOptions{})
		if err != nil {
			t.Fatalf("%v uncached: %v", metric, err)
		}
		cache := memo.New(0)
		cached, err := SequentialAdmissionContext(context.Background(), net, m, metric, reqs, AdmissionOptions{
			Core: core.Options{Cache: cache},
		})
		if err != nil {
			t.Fatalf("%v cached: %v", metric, err)
		}
		if len(plain) != len(cached) {
			t.Fatalf("%v: %d decisions uncached, %d cached", metric, len(plain), len(cached))
		}
		for i := range plain {
			p, c := plain[i], cached[i]
			if p.Admitted != c.Admitted {
				t.Fatalf("%v decision %d: admitted %v uncached, %v cached", metric, i, p.Admitted, c.Admitted)
			}
			if len(p.Path) != len(c.Path) {
				t.Fatalf("%v decision %d: path %v uncached, %v cached", metric, i, p.Path, c.Path)
			}
			for j := range p.Path {
				if p.Path[j] != c.Path[j] {
					t.Fatalf("%v decision %d: path %v uncached, %v cached", metric, i, p.Path, c.Path)
				}
			}
			if math.Abs(p.Available-c.Available) > 1e-7 {
				t.Fatalf("%v decision %d: available %.12g uncached, %.12g cached",
					metric, i, p.Available, c.Available)
			}
		}
		st := cache.Stats()
		if st.Hits == 0 {
			t.Errorf("%v: admission sequence never hit the set-family cache: %+v", metric, st)
		}
	}
}

// TestSequentialAdmissionDeltaMatchesFullWalks pins the tentpole at the
// admission level. Flows whose paths extend hop by hop grow the
// enumeration universe (topology.LinkUnion of the involved paths) one
// link per step — exactly the shape delta enumeration warm-starts. The
// run must take the delta path (DeltaHits > 0, no fallbacks) and still
// produce decision-for-decision identical outcomes to both an uncached
// run and a cached run with the delta path switched off.
func TestSequentialAdmissionDeltaMatchesFullWalks(t *testing.T) {
	net, m := lineNet(t, 6, 100)
	reqs := []Request{
		{Src: 0, Dst: 2, Demand: 0.3},
		{Src: 0, Dst: 3, Demand: 0.3},
		{Src: 0, Dst: 4, Demand: 0.3},
		{Src: 0, Dst: 5, Demand: 0.3},
	}
	run := func(cache *memo.Cache) []Decision {
		t.Helper()
		decs, err := SequentialAdmissionContext(context.Background(), net, m, MetricHopCount, reqs, AdmissionOptions{
			Core: core.Options{Cache: cache},
		})
		if err != nil {
			t.Fatal(err)
		}
		return decs
	}
	plain := run(nil)

	deltaCache := memo.New(0)
	withDelta := run(deltaCache)
	st := deltaCache.Stats()
	if st.DeltaHits == 0 {
		t.Fatalf("growing admission sequence never took the delta path: %+v", st)
	}
	if st.DeltaFallbacks != 0 {
		t.Fatalf("delta chain fell back on a supported model: %+v", st)
	}

	fullCache := memo.New(0)
	fullCache.SetDeltaEnabled(false)
	withoutDelta := run(fullCache)
	if fst := fullCache.Stats(); fst.DeltaHits != 0 {
		t.Fatalf("delta disabled but counted: %+v", fst)
	}

	for _, other := range [][]Decision{withDelta, withoutDelta} {
		if len(other) != len(plain) {
			t.Fatalf("%d decisions, want %d", len(other), len(plain))
		}
		for i := range plain {
			p, c := plain[i], other[i]
			if p.Admitted != c.Admitted {
				t.Fatalf("decision %d: admitted %v, want %v", i, c.Admitted, p.Admitted)
			}
			if math.Abs(p.Available-c.Available) > 1e-7 {
				t.Fatalf("decision %d: available %.12g, want %.12g", i, c.Available, p.Available)
			}
		}
	}
}
