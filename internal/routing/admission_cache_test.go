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

// TestSequentialAdmissionDeltaMatchesFullWalks pins delta growth at the
// admission level. Flows whose paths extend hop by hop grow the
// enumeration universe (topology.LinkUnion of the involved paths) one
// link per step — exactly the shape a grow from the background's
// family serves. The cached run must take the delta path
// (DeltaHits > 0) and still produce decision-for-decision identical
// outcomes to an uncached run, each decision's availability matching
// the package-level full-walk AvailableBandwidthContext over the flows
// admitted before it.
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
	if st := deltaCache.Stats(); st.DeltaHits == 0 {
		t.Fatalf("growing admission sequence never took the delta path: %+v", st)
	}

	if len(withDelta) != len(plain) {
		t.Fatalf("%d decisions, want %d", len(withDelta), len(plain))
	}
	var admitted []core.Flow
	for i := range plain {
		p, c := plain[i], withDelta[i]
		if p.Admitted != c.Admitted {
			t.Fatalf("decision %d: admitted %v, want %v", i, c.Admitted, p.Admitted)
		}
		full, err := core.AvailableBandwidthContext(context.Background(), m, admitted, c.Path, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Max(0, full.Bandwidth)
		for _, got := range []float64{p.Available, c.Available} {
			if math.Abs(got-want) > 1e-7 {
				t.Fatalf("decision %d: available %.12g, full walk %.12g", i, got, want)
			}
		}
		if c.Admitted {
			admitted = append(admitted, core.Flow{Path: c.Path, Demand: c.Request.Demand})
		}
	}
}
