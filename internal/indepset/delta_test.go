package indepset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// growthPlan is one way to grow a universe by deltas: a base universe
// and the links each successive delta adds.
type growthPlan struct {
	label string
	base  []topology.LinkID
	steps [][]topology.LinkID
}

// growthPlans returns, for k = 1…4 links per delta, two plans over the
// canonical universe: "tail" starts from the first link and adds the
// rest in ascending chunks of k; "between" starts from the
// even-position links and adds the odd-position ones in chunks of k, so
// every added link falls between base positions. One more plan, "empty",
// adds the whole universe to the empty base in one step: that delta is
// the full walk.
func growthPlans(universe []topology.LinkID) []growthPlan {
	plans := []growthPlan{{label: "empty", steps: [][]topology.LinkID{universe}}}
	for k := 1; k <= 4; k++ {
		tail := growthPlan{label: fmt.Sprintf("tail k=%d", k), base: universe[:1:1]}
		tail.steps = chunks(universe[1:], k)
		var even, odd []topology.LinkID
		for p, l := range universe {
			if p%2 == 0 {
				even = append(even, l)
			} else {
				odd = append(odd, l)
			}
		}
		between := growthPlan{label: fmt.Sprintf("between k=%d", k), base: even, steps: chunks(odd, k)}
		plans = append(plans, tail, between)
	}
	return plans
}

// chunks splits links into consecutive runs of at most k.
func chunks(links []topology.LinkID, k int) [][]topology.LinkID {
	var out [][]topology.LinkID
	for len(links) > 0 {
		n := k
		if n > len(links) {
			n = len(links)
		}
		out = append(out, links[:n:n])
		links = links[n:]
	}
	return out
}

// assertDeltaGrowth runs every growth plan over the links and checks, at
// every step, that EnumerateDelta from the previous step's base returns
// the byte-identical family and exploration count of a fresh full walk
// over the grown universe. The delta result then becomes the next
// step's base, exercising the chained form the memo cache uses.
func assertDeltaGrowth(t *testing.T, m conflict.Model, links []topology.LinkID, label string) {
	t.Helper()
	if len(links) < 2 {
		return
	}
	for _, plan := range growthPlans(dedupSorted(links)) {
		base := DeltaBase{Universe: plan.base}
		sets, truncated, explored, err := EnumeratePartialCountedContext(context.Background(), m, base.Universe, Options{})
		if err != nil || truncated {
			t.Fatalf("%s %s: seed enumeration: truncated=%v err=%v", label, plan.label, truncated, err)
		}
		base.Sets, base.Explored = sets, explored
		for step, add := range plan.steps {
			grown := dedupSorted(append(append([]topology.LinkID(nil), base.Universe...), add...))
			got, gotExplored, err := EnumerateDelta(context.Background(), m, base, add, Options{})
			if err != nil {
				t.Fatalf("%s %s: step %d: EnumerateDelta(+%v): %v", label, plan.label, step, add, err)
			}
			want, truncated, wantExplored, err := EnumeratePartialCountedContext(context.Background(), m, grown, Options{})
			if err != nil || truncated {
				t.Fatalf("%s %s: step %d: fresh walk: truncated=%v err=%v", label, plan.label, step, truncated, err)
			}
			if !reflect.DeepEqual(keys(got), keys(want)) {
				t.Fatalf("%s %s: step %d (+%v): delta family differs:\n got  %v\n want %v",
					label, plan.label, step, add, keys(got), keys(want))
			}
			if gotExplored != wantExplored {
				t.Fatalf("%s %s: step %d: delta explored %d, fresh %d",
					label, plan.label, step, gotExplored, wantExplored)
			}
			base = DeltaBase{Universe: grown, Sets: got, Explored: gotExplored}
		}
	}
}

func TestDeltaPhysicalRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 10; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertDeltaGrowth(t, conflict.NewPhysical(net), cappedLinks(net, 8), "physical random")
	}
}

func TestDeltaProtocolRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 10; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertDeltaGrowth(t, conflict.NewProtocol(net), cappedLinks(net, 8), "protocol random")
	}
}

func TestDeltaChains(t *testing.T) {
	prof := radio.NewProfile80211a()
	for _, spacing := range []float64{60, 100, 150} {
		net, path, err := topology.Chain(prof, 7, spacing)
		if err != nil {
			t.Fatalf("chain(7, %g): %v", spacing, err)
		}
		links := []topology.LinkID(path)
		assertDeltaGrowth(t, conflict.NewPhysical(net), links, "physical chain")
		assertDeltaGrowth(t, conflict.NewProtocol(net), links, "protocol chain")
	}
}

func TestDeltaRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		tb := conflict.NewTable()
		var links []topology.LinkID
		for i := topology.LinkID(0); int(i) < n; i++ {
			if i == 1 && trial%2 == 0 {
				// A link with no positive rate: every plan adds it
				// between base positions or after them.
				tb.SetRates(i)
			} else {
				tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
			}
			links = append(links, i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, ri := range tb.Rates(topology.LinkID(i)) {
					for _, rj := range tb.Rates(topology.LinkID(j)) {
						if rng.Float64() < 0.45 {
							if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		assertDeltaGrowth(t, tb, links, "random table")
	}
}

// TestDeltaLimitVerdict pins the accounting contract: with a limit
// between the base count and the grown count, the delta walk trips
// ErrLimit exactly like a fresh walk over the grown universe would; at
// the grown count, both succeed. It adds k = 1…4 links at once.
func TestDeltaLimitVerdict(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	universe := dedupSorted([]topology.LinkID(path))
	for k := 1; k <= 4; k++ {
		baseU := universe[: len(universe)-k : len(universe)-k]
		add := universe[len(universe)-k:]
		_, _, baseExplored, err := EnumeratePartialCountedContext(context.Background(), m, baseU, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, grownExplored, err := EnumeratePartialCountedContext(context.Background(), m, universe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if grownExplored <= baseExplored {
			t.Fatalf("k=%d: degenerate topology: grown %d <= base %d", k, grownExplored, baseExplored)
		}
		for limit := baseExplored; limit < grownExplored; limit += (grownExplored - baseExplored + 3) / 4 {
			opts := Options{Limit: int(limit)}
			baseSets, truncated, baseCount, err := EnumeratePartialCountedContext(context.Background(), m, baseU, opts)
			if err != nil || truncated {
				t.Fatalf("k=%d limit %d: base walk truncated=%v err=%v", k, limit, truncated, err)
			}
			base := DeltaBase{Universe: baseU, Sets: baseSets, Explored: baseCount}
			sets, _, err := EnumerateDelta(context.Background(), m, base, add, opts)
			if !errors.Is(err, ErrLimit) || sets != nil {
				t.Fatalf("k=%d limit %d (< grown %d): delta err = %v (%d sets), want ErrLimit and no family",
					k, limit, grownExplored, err, len(sets))
			}
		}

		opts := Options{Limit: int(grownExplored)}
		baseSets, _, baseCount, err := EnumeratePartialCountedContext(context.Background(), m, baseU, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := DeltaBase{Universe: baseU, Sets: baseSets, Explored: baseCount}
		got, gotExplored, err := EnumerateDelta(context.Background(), m, base, add, opts)
		if err != nil {
			t.Fatalf("k=%d: limit == grown count %d: delta err = %v", k, grownExplored, err)
		}
		want, err := EnumerateContext(context.Background(), m, universe, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keys(got), keys(want)) || gotExplored != grownExplored {
			t.Fatalf("k=%d: exact-limit delta diverged: explored %d vs %d", k, gotExplored, grownExplored)
		}
	}
}

// assertDeltaMatchesFull grows the base universe by add and checks the
// delta against a full walk over the grown universe: byte-identical
// family and the same exploration count, and, with the limit one below
// that count, ErrLimit on both.
func assertDeltaMatchesFull(t *testing.T, m conflict.Model, baseU, add []topology.LinkID, label string) {
	t.Helper()
	grownU := dedupSorted(append(append([]topology.LinkID(nil), baseU...), add...))
	var opts Options
	base := DeltaBase{Universe: baseU}
	var err error
	base.Sets, _, base.Explored, err = EnumeratePartialCountedContext(context.Background(), m, baseU, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, wantExplored, err := EnumeratePartialCountedContext(context.Background(), m, grownU, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, gotExplored, err := EnumerateDelta(context.Background(), m, base, add, opts)
	if err != nil {
		t.Fatalf("%s: delta: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) || gotExplored != wantExplored {
		t.Fatalf("%s: delta %v (%d explored) != full walk %v (%d explored)",
			label, keys(got), gotExplored, keys(want), wantExplored)
	}
	opts.Limit = int(wantExplored) - 1
	if opts.Limit <= int(base.Explored) {
		return
	}
	if _, err := EnumerateContext(context.Background(), m, grownU, opts); !errors.Is(err, ErrLimit) {
		t.Fatalf("%s: full walk at limit %d: err = %v, want ErrLimit", label, opts.Limit, err)
	}
	if _, _, err := EnumerateDelta(context.Background(), m, base, add, opts); !errors.Is(err, ErrLimit) {
		t.Fatalf("%s: delta at limit %d: err = %v, want ErrLimit", label, opts.Limit, err)
	}
}

// TestDeltaUnsupportedModel pins the one model shape no walk serves:
// behind opaque, neither *Physical nor PairwiseModel, Enumerate and
// EnumerateDelta both refuse it by name, while the same physical model
// unwrapped grows by delta exactly as a full walk does.
func TestDeltaUnsupportedModel(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	phys := conflict.NewPhysical(net)
	assertDeltaMatchesFull(t, phys, dedupSorted(links[:len(links)-1]), links[len(links)-1:], "physical")

	m := opaque{m: phys}
	if _, err := EnumerateContext(context.Background(), m, links, Options{}); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("opaque model: Enumerate err = %v, want ErrUnsupportedModel", err)
	}
	base := DeltaBase{Universe: dedupSorted(links[:len(links)-1])}
	if _, _, err := EnumerateDelta(context.Background(), m, base, links[len(links)-1:], Options{}); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("opaque model: EnumerateDelta err = %v, want ErrUnsupportedModel", err)
	}
}

// TestDeltaWideRates grows universes whose masks span two words: the
// 70-rate link joins a base, and a base holding it grows.
func TestDeltaWideRates(t *testing.T) {
	tb := conflict.NewTable()
	var wide []radio.Rate
	for r := 70; r >= 1; r-- {
		wide = append(wide, radio.Rate(r))
	}
	tb.SetRates(0, wide...)
	tb.SetRates(1, 54, 36)
	tb.SetRates(2, 54)
	for _, c := range [][4]float64{{0, 70, 1, 54}, {0, 40, 1, 36}, {0, 3, 2, 54}, {1, 54, 2, 54}} {
		if err := tb.AddConflict(topology.LinkID(c[0]), radio.Rate(c[1]), topology.LinkID(c[2]), radio.Rate(c[3])); err != nil {
			t.Fatal(err)
		}
	}
	assertDeltaMatchesFull(t, tb, []topology.LinkID{0}, []topology.LinkID{1}, "wide base")
	assertDeltaMatchesFull(t, tb, []topology.LinkID{1}, []topology.LinkID{0, 2}, "wide added")
	assertDeltaMatchesFull(t, tb, []topology.LinkID{0, 2}, []topology.LinkID{1}, "wide between")
}

func TestDeltaLinkAlreadyPresent(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	m := conflict.NewPhysical(net)
	base := DeltaBase{Universe: dedupSorted(links)}
	base.Sets, _, base.Explored, err = EnumeratePartialCountedContext(context.Background(), m, base.Universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, explored, err := EnumerateDelta(context.Background(), m, base, append(links[:1:1], links...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got), keys(base.Sets)) || explored != base.Explored {
		t.Fatalf("re-adding a member changed the family or count")
	}
}

// TestDeltaCancellation pins the contract shared with Enumerate: a
// cancelled delta walk returns ErrCanceled and no family, for one and
// several added links.
func TestDeltaCancellation(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	universe := dedupSorted([]topology.LinkID(path))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range []int{1, 3} {
		base := DeltaBase{Universe: universe[:len(universe)-k]}
		base.Sets, _, base.Explored, err = EnumeratePartialCountedContext(context.Background(), m, base.Universe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sets, _, err := EnumerateDelta(ctx, m, base, universe[len(universe)-k:], Options{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("k=%d: cancelled delta: err = %v, want ErrCanceled", k, err)
		}
		if sets != nil {
			t.Fatalf("k=%d: cancelled delta returned a family (%d sets)", k, len(sets))
		}
	}
}
