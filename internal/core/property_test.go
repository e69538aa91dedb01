package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/topology"
)

// randomTableModel builds a random pairwise conflict model over a chain
// of n links with the given rate choices, always keeping consecutive
// links conflicting (so paths behave like paths).
func randomTableModel(rng *rand.Rand, n int, rates []radio.Rate) (*conflict.Table, topology.Path) {
	tb := conflict.NewTable()
	path := make(topology.Path, 0, n)
	for i := topology.LinkID(0); int(i) < n; i++ {
		tb.SetRates(i, rates...)
		path = append(path, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j == i+1 {
				// Adjacent hops always conflict (shared node).
				if err := tb.AddConflictAllRates(topology.LinkID(i), topology.LinkID(j)); err != nil {
					panic(err)
				}
				continue
			}
			for _, ri := range rates {
				for _, rj := range rates {
					if rng.Float64() < 0.5 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							panic(err)
						}
					}
				}
			}
		}
	}
	return tb, path
}

// TestBoundsSandwichRandomTables checks on random conflict structures
// that lower bound <= exact <= Eq. 9 upper bound, and that the exact
// value is achieved by a valid schedule.
func TestBoundsSandwichRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rates := []radio.Rate{54, 36}
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3)
		m, path := randomTableModel(rng, n, rates)

		exact, err := AvailableBandwidthContext(context.Background(), m, nil, path, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if exact.Status != lp.Optimal {
			t.Fatalf("trial %d: exact LP %v", trial, exact.Status)
		}
		if err := exact.Schedule.Validate(m); err != nil {
			t.Errorf("trial %d: schedule invalid: %v", trial, err)
		}
		for _, l := range path {
			if got := exact.Schedule.Throughput(l); got < exact.Bandwidth-1e-6 {
				t.Errorf("trial %d: schedule delivers %.4f on link %d, below f=%.4f", trial, got, l, exact.Bandwidth)
			}
		}

		upper, err := UpperBoundLP(m, nil, path, Options{})
		if err != nil {
			t.Fatalf("trial %d: upper: %v", trial, err)
		}
		if upper.Status == lp.Optimal && upper.Bandwidth < exact.Bandwidth-1e-6 {
			t.Errorf("trial %d: Eq.9 upper bound %.4f below exact %.4f", trial, upper.Bandwidth, exact.Bandwidth)
		}

		// Lower bound from a random half of the maximal sets.
		if len(exact.Sets) > 1 {
			k := 1 + rng.Intn(len(exact.Sets))
			lower, err := AvailableBandwidthWithSetsContext(context.Background(), m, nil, path, exact.Sets[:k])
			if err != nil {
				t.Fatalf("trial %d: lower: %v", trial, err)
			}
			lowerBW := 0.0
			if lower.Status == lp.Optimal {
				lowerBW = lower.Bandwidth
			}
			if lowerBW > exact.Bandwidth+1e-6 {
				t.Errorf("trial %d: lower bound %.4f above exact %.4f", trial, lowerBW, exact.Bandwidth)
			}
		}
	}
}

// TestExactMonotoneInBackground checks that adding background traffic
// never increases the available bandwidth.
func TestExactMonotoneInBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		m, path := randomTableModel(rng, n, rates)
		prev := -1.0
		for _, demand := range []float64{0, 1, 2, 4} {
			var bg []Flow
			if demand > 0 {
				bg = []Flow{{Path: topology.Path{path[0]}, Demand: demand}}
			}
			res, err := AvailableBandwidthContext(context.Background(), m, bg, path, Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			bw := 0.0
			if res.Status == lp.Optimal {
				bw = res.Bandwidth
			}
			if prev >= 0 && bw > prev+1e-6 {
				t.Errorf("trial %d: availability rose from %.4f to %.4f as background grew to %g",
					trial, prev, bw, demand)
			}
			prev = bw
		}
	}
}

// TestFixedRateNeverBeatsMultirate checks on random chains under the
// interference-range model that pinning rates can only lose capacity —
// the generalization of the paper's Scenario II observation.
func TestFixedRateNeverBeatsMultirate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		hops := 3 + rng.Intn(2)
		spacing := 60 + rng.Float64()*60
		net, path, err := topology.Chain(radio.NewProfile80211a(), hops, spacing)
		if err != nil {
			t.Fatal(err)
		}
		m := conflict.NewProtocol(net)
		multirate, err := AvailableBandwidthContext(context.Background(), m, nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Pin every hop to its alone max rate.
		assignment := make([]conflict.Couple, 0, len(path))
		for _, l := range path {
			assignment = append(assignment, conflict.Couple{Link: l, Rate: conflict.AloneMaxRate(m, l)})
		}
		fixed := conflict.FixRates(m, assignment)
		pinned, err := AvailableBandwidthContext(context.Background(), fixed, nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pinnedBW := 0.0
		if pinned.Status == lp.Optimal {
			pinnedBW = pinned.Bandwidth
		}
		if pinnedBW > multirate.Bandwidth+1e-6 {
			t.Errorf("trial %d (hops=%d spacing=%.0f): pinned %.4f beats multirate %.4f",
				trial, hops, spacing, pinnedBW, multirate.Bandwidth)
		}
	}
}

// TestScheduleSetsAreEnumerated checks that every slot of an optimal
// schedule is one of the enumerated maximal independent sets.
func TestScheduleSetsAreEnumerated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rates := []radio.Rate{54, 36}
	for trial := 0; trial < 15; trial++ {
		m, path := randomTableModel(rng, 3+rng.Intn(3), rates)
		res, err := AvailableBandwidthContext(context.Background(), m, nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]bool, len(res.Sets))
		for _, s := range res.Sets {
			keys[s.Key()] = true
		}
		for _, slot := range res.Schedule.Slots {
			if !keys[slot.Set.Key()] {
				t.Errorf("trial %d: slot set %v not among enumerated maximal sets", trial, slot.Set)
			}
		}
		// And the enumerated sets must each be maximal.
		for _, s := range res.Sets {
			if !indepset.IsMaximal(m, s, res.Links) {
				t.Errorf("trial %d: enumerated set %v not maximal", trial, s)
			}
		}
	}
}

// TestRandomGeometricAvailability runs the full pipeline on small random
// geometric networks: route, compute availability, validate the
// schedule, and check the Eq. 9 bound dominates.
func TestRandomGeometricAvailability(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := topology.New(radio.NewProfile80211a(),
			geom.UniformPoints(rng, geom.Rect{W: 300, H: 300}, 8))
		if err != nil {
			t.Fatal(err)
		}
		m := conflict.NewPhysical(net)
		// Find any connected pair with a multi-hop path.
		var path topology.Path
		for a := 0; a < net.NumNodes() && path == nil; a++ {
			for b := 0; b < net.NumNodes(); b++ {
				if a == b {
					continue
				}
				if _, ok := net.LinkBetween(topology.NodeID(a), topology.NodeID(b)); ok {
					continue // want multi-hop
				}
				p, err := shortestHopPath(net, topology.NodeID(a), topology.NodeID(b))
				if err == nil && len(p) >= 2 {
					path = p
					break
				}
			}
		}
		if path == nil {
			continue // no multi-hop pair in this draw
		}
		exact, err := AvailableBandwidthContext(context.Background(), m, nil, path, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if exact.Status != lp.Optimal || exact.Bandwidth <= 0 {
			t.Errorf("seed %d: exact = (%v, %.4f)", seed, exact.Status, exact.Bandwidth)
			continue
		}
		if err := exact.Schedule.Validate(m); err != nil {
			t.Errorf("seed %d: schedule invalid: %v", seed, err)
		}
	}
}

// shortestHopPath is a minimal BFS routing helper for the property test.
func shortestHopPath(net *topology.Network, src, dst topology.NodeID) (topology.Path, error) {
	type entry struct {
		node topology.NodeID
		via  topology.LinkID
		prev int
	}
	queue := []entry{{node: src, via: -1, prev: -1}}
	seen := map[topology.NodeID]bool{src: true}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if cur.node == dst {
			var rev topology.Path
			for j := i; queue[j].via >= 0; j = queue[j].prev {
				rev = append(rev, queue[j].via)
			}
			path := make(topology.Path, 0, len(rev))
			for k := len(rev) - 1; k >= 0; k-- {
				path = append(path, rev[k])
			}
			return path, nil
		}
		for _, lid := range net.OutLinks(cur.node) {
			link, err := net.Link(lid)
			if err != nil {
				return nil, err
			}
			if !seen[link.Rx] {
				seen[link.Rx] = true
				queue = append(queue, entry{node: link.Rx, via: lid, prev: i})
			}
		}
	}
	return nil, errNoHopPath
}

var errNoHopPath = errors.New("no path")
