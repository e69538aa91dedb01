package indepset

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// referenceEnumerate is the brute-force reference the incremental DFS
// walks are gated against: materialize every feasible couple assignment
// with from-scratch conflict.Feasible checks, post-filter with the
// reference IsMaximal predicate, and sort by conflict.CompareCouples.
// Any divergence from Enumerate is a bug in the incremental
// maximality/feasibility state.
func referenceEnumerate(t *testing.T, m conflict.Model, links []topology.LinkID) []Set {
	t.Helper()
	universe := dedupSorted(links)
	var all []Set
	var cur []conflict.Couple
	var rec func(idx int)
	rec = func(idx int) {
		if idx == len(universe) {
			if len(cur) > 0 {
				all = append(all, NewSet(cur...))
			}
			return
		}
		rec(idx + 1)
		for _, r := range m.Rates(universe[idx]) {
			cur = append(cur, conflict.Couple{Link: universe[idx], Rate: r})
			if conflict.Feasible(m, cur) {
				rec(idx + 1)
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	var out []Set
	for _, s := range all {
		if IsMaximal(m, s, universe) {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Set) int { return conflict.CompareCouples(a.Couples, b.Couples) })
	return out
}

// assertStrictlySorted fails unless sets ascend strictly in family
// order (conflict.CompareCouples).
func assertStrictlySorted(t *testing.T, sets []Set, label string) {
	t.Helper()
	for i := 1; i < len(sets); i++ {
		if conflict.CompareCouples(sets[i-1].Couples, sets[i].Couples) >= 0 {
			t.Fatalf("%s: set %d %s does not sort strictly before set %d %s", label, i-1, sets[i-1].Key(), i, sets[i].Key())
		}
	}
}

// assertSameFamily checks that Enumerate returns exactly the reference
// set family (same sets, same order).
func assertSameFamily(t *testing.T, m conflict.Model, links []topology.LinkID, label string) {
	t.Helper()
	got, err := EnumerateContext(context.Background(), m, links, Options{})
	if err != nil {
		t.Fatalf("%s: Enumerate: %v", label, err)
	}
	want := referenceEnumerate(t, m, links)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d maximal sets %v, reference has %d %v",
			label, len(got), keys(got), len(want), keys(want))
	}
	if !reflect.DeepEqual(keys(got), keys(want)) {
		t.Fatalf("%s: set families differ:\n got  %v\n want %v", label, keys(got), keys(want))
	}
}

// cappedLinks bounds the universe so the brute-force reference stays
// tractable.
func cappedLinks(net *topology.Network, max int) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range net.Links() {
		if len(out) == max {
			break
		}
		out = append(out, l.ID)
	}
	return out
}

func TestEquivalencePhysicalRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 12; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		links := cappedLinks(net, 8)
		if len(links) == 0 {
			continue
		}
		assertSameFamily(t, conflict.NewPhysical(net), links, "physical random")
	}
}

func TestEquivalenceProtocolRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 12; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		links := cappedLinks(net, 8)
		if len(links) == 0 {
			continue
		}
		assertSameFamily(t, conflict.NewProtocol(net), links, "protocol random")
	}
}

func TestEquivalenceChains(t *testing.T) {
	prof := radio.NewProfile80211a()
	for _, spacing := range []float64{60, 80, 100, 120, 150} {
		for _, hops := range []int{3, 5, 7} {
			net, path, err := topology.Chain(prof, hops, spacing)
			if err != nil {
				t.Fatalf("chain(%d, %g): %v", hops, spacing, err)
			}
			links := []topology.LinkID(path)
			assertSameFamily(t, conflict.NewPhysical(net), links, "physical chain")
			assertSameFamily(t, conflict.NewProtocol(net), links, "protocol chain")
		}
	}
}

func TestEquivalenceRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		tb := conflict.NewTable()
		var links []topology.LinkID
		for i := topology.LinkID(0); int(i) < n; i++ {
			// Vary per-link rate counts so some links only support a
			// subset of the rate classes.
			tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
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
		assertSameFamily(t, tb, links, "random table")
	}
}

// opaque hides a model's dynamic type behind explicit forwarding methods
// so it satisfies neither *Physical nor PairwiseModel: no walk serves
// it. (A struct embedding would promote RateClears and defeat the
// point.)
type opaque struct{ m conflict.Model }

func (o opaque) MaxRate(link topology.LinkID, concurrent []conflict.Couple) radio.Rate {
	return o.m.MaxRate(link, concurrent)
}
func (o opaque) Rates(link topology.LinkID) []radio.Rate { return o.m.Rates(link) }

// TestEquivalencePinnedModels gates the fixed-rate regime against the
// reference: a pinned protocol model runs the pairwise walk.
func TestEquivalencePinnedModels(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	pins := []conflict.Couple{{Link: links[0], Rate: 18}, {Link: links[2], Rate: 6}, {Link: links[4], Rate: 18}}
	assertSameFamily(t, conflict.FixRates(conflict.NewProtocol(net), pins), links, "pinned protocol")
}
