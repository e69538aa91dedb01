package indepset

import (
	"math/rand"
	"reflect"
	"testing"

	"abw/internal/conflict"
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
