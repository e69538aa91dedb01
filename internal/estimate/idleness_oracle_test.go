package estimate

import (
	"math"
	"math/rand"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// oracleNodeIdleRatios is the per-node, per-couple loop NodeIdleRatios
// ran before it moved to BusyNodes bitsets. It is kept as the oracle
// the bitsets must reproduce bit for bit.
func oracleNodeIdleRatios(net *topology.Network, sched schedule.Schedule) []float64 {
	prof := net.Profile()
	nodes := net.Nodes()
	idle := make([]float64, len(nodes))
	for i := range idle {
		idle[i] = sched.IdleShare()
	}
	for _, slot := range sched.Slots {
		if slot.Share <= 0 || slot.Set.Len() == 0 {
			for i := range idle {
				idle[i] += slot.Share
			}
			continue
		}
		for i, n := range nodes {
			busy := false
			for _, cp := range slot.Set.Couples {
				link, err := net.Link(cp.Link)
				if err != nil {
					continue
				}
				if link.Tx == n.ID || link.Rx == n.ID {
					busy = true
					break
				}
				tx, err := net.Node(link.Tx)
				if err != nil {
					continue
				}
				if prof.Senses(tx.Pos.Dist(n.Pos)) {
					busy = true
					break
				}
			}
			if !busy {
				idle[i] += slot.Share
			}
		}
	}
	return idle
}

// TestNodeIdleRatiosMatchesOracle compares the bitset idle ratios with
// the oracle loop on random networks at E17's carrier-sense range
// factors and at 0.5, where a receiver can lie outside its
// transmitter's range (and on a 70-node network, whose bitsets span
// two words), over random schedules that include empty and zero-share
// slots and couples naming links the network does not have.
func TestNodeIdleRatiosMatchesOracle(t *testing.T) {
	for _, factor := range []float64{0.5, 1.0, 1.25, 1.5, 2.0} {
		for seed := int64(0); seed < 5; seed++ {
			nodes := 30
			if seed == 4 {
				nodes = 70
			}
			rng := rand.New(rand.NewSource(seed))
			net, err := topology.New(radio.NewProfile80211a(radio.WithCSRangeFactor(factor)),
				geom.UniformPoints(rng, geom.Rect{W: 600, H: 600}, nodes))
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				var sched schedule.Schedule
				for s := rng.Intn(8); s >= 0; s-- {
					var couples []conflict.Couple
					for c := rng.Intn(5); c > 0; c-- {
						lid := topology.LinkID(rng.Intn(net.NumLinks() + 2)) // may be out of range
						couples = append(couples, conflict.Couple{Link: lid, Rate: 6})
					}
					share := rng.Float64() / 8
					if rng.Intn(6) == 0 {
						share = 0
					}
					sched.Slots = append(sched.Slots, schedule.Slot{Set: indepset.NewSet(couples...), Share: share})
				}
				got, want := NodeIdleRatios(net, sched), oracleNodeIdleRatios(net, sched)
				if len(got) != len(want) {
					t.Fatalf("factor %g seed %d trial %d: %d ratios, oracle %d", factor, seed, trial, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("factor %g seed %d trial %d: node %d idle %v, oracle %v",
							factor, seed, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}
