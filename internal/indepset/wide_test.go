package indepset

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestWideLimitTrips pins the exploration count under multi-word
// masks: a 65-class universe reports a count, and a limit below it
// trips ErrLimit.
func TestWideLimitTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tb, links := wideTable(t, rng, 65, 2)
	_, truncated, explored, err := EnumeratePartialCountedContext(context.Background(), tb, links, Options{})
	if err != nil || truncated {
		t.Fatalf("full wide walk: truncated=%v err=%v", truncated, err)
	}
	if explored < 1 {
		t.Fatalf("wide walk reported %d explored assignments", explored)
	}
	if explored > 1 {
		_, truncated, _, err := EnumeratePartialCountedContext(context.Background(), tb, links, Options{Limit: int(explored) - 1})
		if err != nil || !truncated {
			t.Fatalf("limit below count: truncated=%v err=%v, want truncated", truncated, err)
		}
	}
}

// TestPhysicalMasksAcrossWords gates the SINR walk's multi-word masks
// on an 80-link universe whose spatially reusable links straddle the
// 64-position word boundary. The network is the Fig. 2 deployment plus
// five hubs a metre apart at its centre and 14 spokes 150 m around
// them, 12 listed before the Fig. 2 nodes and 2 after. The 15
// positions 58-72 hold the first link of 15 distinct Fig. 2
// transmitters within 250 m of the hubs, so sets of several of them
// transmit together. The rest are the lowest 58 and the highest 7
// spoke-to-hub links. These carry only the slowest rate and no two of
// them transmit together (they share a node, or each hears the other's
// spoke as loud as its own), and any of the 15 transmitters silences
// them, so each is a set of its own and the brute-force reference stays
// cheap. The family must equal the reference.
func TestPhysicalMasksAcrossWords(t *testing.T) {
	prof := radio.NewProfile80211a()
	fig2, err := topology.Random(prof, geom.Rect{W: 400, H: 600}, 30, 26)
	if err != nil {
		t.Fatal(err)
	}
	centre := geom.Point{X: 200, Y: 300}
	const spokes, before = 14, 12
	var pos []geom.Point
	spoke := func(k int) geom.Point {
		a := 2 * math.Pi * float64(k) / spokes
		return geom.Point{X: centre.X + 150*math.Cos(a), Y: centre.Y + 150*math.Sin(a)}
	}
	for k := 0; k < before; k++ {
		pos = append(pos, spoke(k))
	}
	for _, n := range fig2.Nodes() {
		pos = append(pos, n.Pos)
	}
	for k := before; k < spokes; k++ {
		pos = append(pos, spoke(k))
	}
	firstHub := topology.NodeID(len(pos))
	for h := 0; h < 5; h++ {
		pos = append(pos, geom.Point{X: centre.X + float64(h), Y: centre.Y})
	}
	net, err := topology.New(prof, pos)
	if err != nil {
		t.Fatal(err)
	}
	isFig2 := func(n topology.NodeID) bool { return n >= before && n < before+30 }
	var hubLinks, usable []topology.LinkID
	seen := map[topology.NodeID]bool{}
	for _, l := range net.Links() {
		tx, _ := net.Node(l.Tx)
		switch {
		case l.Rx >= firstHub && !isFig2(l.Tx) && l.Tx < firstHub:
			hubLinks = append(hubLinks, l.ID)
		case isFig2(l.Tx) && isFig2(l.Rx) && len(usable) < 15 && !seen[l.Tx] && tx.Pos.Dist(centre) < 250:
			seen[l.Tx] = true
			usable = append(usable, l.ID)
		}
	}
	universe := dedupSorted(slices.Concat(hubLinks[:58], usable, hubLinks[len(hubLinks)-7:]))
	if len(universe) != 80 || universe[58] != usable[0] || universe[72] != usable[14] {
		t.Fatalf("universe of %d links does not hold the usable links at positions 58-72", len(universe))
	}
	m := conflict.NewPhysical(net)
	want := referenceEnumerate(t, m, universe)
	widest, across := 0, false
	for _, s := range want {
		widest = max(widest, len(s.Couples))
		across = across || len(s.Couples) > 1 && s.Couples[0].Link < universe[64] && s.Couples[len(s.Couples)-1].Link >= universe[64]
		if len(s.Couples) > 1 && (s.Couples[0].Link < usable[0] || s.Couples[len(s.Couples)-1].Link > usable[14]) {
			t.Fatalf("reference set %v joins a spoke link with others", s)
		}
	}
	if widest < 3 || !across {
		t.Fatalf("reference family's largest set has %d links, one across the word boundary: %v; want spatial reuse across it", widest, across)
	}
	got, err := EnumerateContext(context.Background(), m, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("walk differs from reference:\n got  %v\n want %v", keys(got), keys(want))
	}
}
