package indepset

import (
	"math/rand"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// wideTable builds a table model where link 0 declares `classes` rate
// classes (forcing multi-word rate masks once classes > 64) and
// the remaining links declare a handful, with dense random pairwise
// conflicts. Small link counts keep the brute-force reference
// tractable: the walk's leaf count is the product of per-link choices.
func wideTable(t *testing.T, rng *rand.Rand, classes, extraLinks int) (*conflict.Table, []topology.LinkID) {
	t.Helper()
	tb := conflict.NewTable()
	var wide []radio.Rate
	for r := classes; r >= 1; r-- {
		wide = append(wide, radio.Rate(r))
	}
	tb.SetRates(0, wide...)
	links := []topology.LinkID{0}
	small := []radio.Rate{54, 36, 18}
	for i := 1; i <= extraLinks; i++ {
		tb.SetRates(topology.LinkID(i), small[:1+rng.Intn(len(small))]...)
		links = append(links, topology.LinkID(i))
	}
	for i := 0; i <= extraLinks; i++ {
		for j := i + 1; j <= extraLinks; j++ {
			for _, ri := range tb.Rates(topology.LinkID(i)) {
				for _, rj := range tb.Rates(topology.LinkID(j)) {
					if rng.Float64() < 0.6 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return tb, links
}

// TestWideEquivalenceReference gates the multi-word pairwise walk
// against the brute-force reference at rate counts straddling the word
// boundaries: 64 (last narrow width), 65 and 70 (two words), and 130
// (three words).
func TestWideEquivalenceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, classes := range []int{64, 65, 70, 130} {
		for trial := 0; trial < 3; trial++ {
			tb, links := wideTable(t, rng, classes, 2)
			assertSameFamily(t, tb, links, "wide table")
		}
	}
}

// TestWideParallelDeterminism pins the parallel contract for
// multi-word masks: 2/4/8 workers return the byte-identical family of
// the sequential walk.
func TestWideParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		tb, links := wideTable(t, rng, 68, 3)
		seq, err := Enumerate(tb, links, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Enumerate(tb, links, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if !reflect.DeepEqual(keys(seq), keys(par)) {
				t.Fatalf("workers %d family differs:\n got  %v\n want %v", workers, keys(par), keys(seq))
			}
		}
	}
}

// TestWideLimitTrips pins the exploration count under multi-word
// masks: a 65-class universe reports a count, and a limit below it
// trips ErrLimit.
func TestWideLimitTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tb, links := wideTable(t, rng, 65, 2)
	_, truncated, explored, err := EnumeratePartialCounted(tb, links, Options{})
	if err != nil || truncated {
		t.Fatalf("full wide walk: truncated=%v err=%v", truncated, err)
	}
	if explored < 1 {
		t.Fatalf("wide walk reported %d explored assignments", explored)
	}
	if explored > 1 {
		_, truncated, _, err := EnumeratePartialCounted(tb, links, Options{Limit: int(explored) - 1})
		if err != nil || !truncated {
			t.Fatalf("limit below count: truncated=%v err=%v, want truncated", truncated, err)
		}
	}
}

// TestPhysicalMasksAcrossWords gates the SINR walk's multi-word open
// masks: a pinned Physical model over 80 links of the Fig. 2
// topology, where only the 15 links at positions 58-72 carry a pin
// (their alone maximum or their slowest rate, alternately), so the
// usable links straddle the 64-position word boundary. They are the
// first link of 15 distinct transmitters, so spatial reuse leaves
// sets of several links; the rest of the universe is the lowest 58 and
// the highest 7 link IDs. The family must equal the brute-force
// reference at 1 and 2 workers.
func TestPhysicalMasksAcrossWords(t *testing.T) {
	net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 400, H: 600}, 30, 26)
	if err != nil {
		t.Fatal(err)
	}
	all := net.Links()
	universe := cappedLinks(net, 58)
	var usable []topology.LinkID
	seen := map[topology.NodeID]bool{}
	for _, l := range all[58 : len(all)-7] {
		if len(usable) < 15 && !seen[l.Tx] {
			seen[l.Tx] = true
			usable = append(usable, l.ID)
		}
	}
	universe = append(universe, usable...)
	for _, l := range all[len(all)-7:] {
		universe = append(universe, l.ID)
	}
	universe = dedupSorted(universe)
	if len(universe) != 80 || universe[58] != usable[0] || universe[72] != usable[14] {
		t.Fatalf("universe of %d links does not hold the usable links at positions 58-72", len(universe))
	}
	phys := conflict.NewPhysical(net)
	var pins []conflict.Couple
	for k, l := range usable {
		r := phys.AloneMaxRate(l)
		if k%2 == 1 {
			r = phys.MinPositiveRate(l)
		}
		pins = append(pins, conflict.Couple{Link: l, Rate: r})
	}
	m := phys.Pin(pins)
	want := referenceEnumerate(t, m, universe)
	widest := 0
	for _, s := range want {
		widest = max(widest, len(s.Couples))
	}
	if widest < 3 {
		t.Fatalf("reference family's largest set has %d links; want spatial reuse", widest)
	}
	for _, workers := range []int{1, 2} {
		got, err := Enumerate(m, universe, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(keys(got), keys(want)) {
			t.Fatalf("workers %d: walk differs from reference:\n got  %v\n want %v", workers, keys(got), keys(want))
		}
	}
}
