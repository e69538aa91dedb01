package indepset

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/topology"
)

func TestScenarioIIMaximalSets(t *testing.T) {
	s := scenario.NewScenarioII()
	sets, err := EnumerateContext(context.Background(), s.Model, s.Links(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"0@54":      true, // {(L1,54)}
		"1@54":      true, // {(L2,54)}
		"2@54":      true, // {(L3,54)}
		"3@54|0@36": false,
		"0@36|3@54": true, // {(L1,36),(L4,54)} — the link-adaptation slot
	}
	got := make(map[string]bool, len(sets))
	for _, set := range sets {
		got[set.Key()] = true
	}
	for key, expect := range want {
		if expect && !got[key] {
			t.Errorf("missing maximal set %q; got %v", key, keys(sets))
		}
	}
	if len(sets) != 4 {
		t.Errorf("got %d maximal sets %v, want 4", len(sets), keys(sets))
	}
	// {(L4,54)} alone must NOT be maximal: (L1,36) can join.
	l4 := NewSet(conflict.Couple{Link: s.L4, Rate: 54})
	if IsMaximal(s.Model, l4, s.Links()) {
		t.Error("{(L4,54)} should not be maximal — (L1,36) can be inserted")
	}
	// {(L1,36)} alone is not maximal either (rate can rise to 54).
	l1 := NewSet(conflict.Couple{Link: s.L1, Rate: 36})
	if IsMaximal(s.Model, l1, s.Links()) {
		t.Error("{(L1,36)} should not be maximal — rate can be raised")
	}
}

func TestScenarioIMaximalSets(t *testing.T) {
	s := scenario.NewScenarioI(54)
	links := []topology.LinkID{s.L1, s.L2, s.L3}
	sets, err := EnumerateContext(context.Background(), s.Model, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Maximal sets: {L1@54, L2@54} and {L3@54}.
	if len(sets) != 2 {
		t.Fatalf("got %d maximal sets %v, want 2", len(sets), keys(sets))
	}
	got := map[string]bool{}
	for _, set := range sets {
		got[set.Key()] = true
	}
	if !got["0@54|1@54"] || !got["2@54"] {
		t.Errorf("sets = %v, want {L1,L2} and {L3}", keys(sets))
	}
}

func TestEnumeratePhysicalChain(t *testing.T) {
	net, path, err := topology.Chain(radio.NewProfile80211a(), 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	sets, err := EnumerateContext(context.Background(), m, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("no maximal independent sets on a 4-hop chain")
	}
	for _, s := range sets {
		if !conflict.Feasible(m, s.Couples) {
			t.Errorf("enumerated set %v not feasible", s)
		}
		if !IsMaximal(m, s, path) {
			t.Errorf("enumerated set %v not maximal", s)
		}
	}
	// Every chain link must appear in at least one set (all links can
	// transmit alone).
	for _, l := range path {
		found := false
		for _, s := range sets {
			if s.Contains(l) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("link %d missing from every maximal set", l)
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	s := scenario.NewScenarioII()
	sets, err := EnumerateContext(context.Background(), s.Model, s.Links(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, set := range sets {
		if seen[set.Key()] {
			t.Errorf("duplicate set %v", set)
		}
		seen[set.Key()] = true
	}
}

func TestEnumerateLimit(t *testing.T) {
	// 16 mutually compatible links explode combinatorially: the limit
	// must trip.
	tb := conflict.NewTable()
	var links []topology.LinkID
	for i := topology.LinkID(0); i < 16; i++ {
		tb.SetRates(i, 54)
		links = append(links, i)
	}
	if _, err := EnumerateContext(context.Background(), tb, links, Options{Limit: 100}); !errors.Is(err, ErrLimit) {
		t.Errorf("err = %v, want ErrLimit", err)
	}
	// With a generous limit it succeeds and returns the single maximal
	// set of all 16 links.
	sets, err := EnumerateContext(context.Background(), tb, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Len() != 16 {
		t.Errorf("got %d sets (first len %d), want one 16-link set", len(sets), sets[0].Len())
	}
}

func TestEnumerateEmptyAndSilentLinks(t *testing.T) {
	tb := conflict.NewTable()
	sets, err := EnumerateContext(context.Background(), tb, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Errorf("empty universe: got %v", keys(sets))
	}
	// A link with no rates can never appear.
	tb.SetRates(0, 54)
	sets, err = EnumerateContext(context.Background(), tb, []topology.LinkID{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Key() != "0@54" {
		t.Errorf("got %v, want only {L0@54}", keys(sets))
	}
}

func TestSetAccessors(t *testing.T) {
	s := NewSet(conflict.Couple{Link: 5, Rate: 36}, conflict.Couple{Link: 2, Rate: 54})
	//lint:ignore abw/floateq Rate returns the stored couple verbatim; bit-exact by construction
	if s.Rate(2) != 54 || s.Rate(5) != 36 || s.Rate(9) != 0 {
		t.Error("Rate lookups wrong")
	}
	if !s.Contains(5) || s.Contains(9) {
		t.Error("Contains wrong")
	}
	if got := s.Links(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("Links = %v, want [2 5] (sorted)", got)
	}
	// Key prints each rate as strconv's shortest 'g' form.
	for _, tc := range []struct {
		s    Set
		want string
	}{
		{s, "2@54|5@36"},
		{NewSet(conflict.Couple{Link: 12, Rate: 5.5}, conflict.Couple{Link: 100, Rate: 1e6}), "12@5.5|100@1e+06"},
		{NewSet(conflict.Couple{Link: 0, Rate: 54}, conflict.Couple{Link: 3, Rate: 2.5e6}), "0@54|3@2.5e+06"},
	} {
		if got := tc.s.Key(); got != tc.want {
			t.Errorf("Key = %q, want %q", got, tc.want)
		}
	}
	if s.String() != "{(L2, 54Mbps), (L5, 36Mbps)}" {
		t.Errorf("String = %q", s.String())
	}
}

// TestEnumerateRandomTableProperty builds random pairwise conflict
// tables and checks the enumeration invariants: every returned set is
// feasible and maximal, and every single-couple set extends to some
// returned maximal set.
func TestEnumerateRandomTableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		tb := conflict.NewTable()
		var links []topology.LinkID
		for i := topology.LinkID(0); int(i) < n; i++ {
			tb.SetRates(i, rates...)
			links = append(links, i)
		}
		// Random conflicts with probability 0.4 per couple pair.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, ri := range rates {
					for _, rj := range rates {
						if rng.Float64() < 0.4 {
							if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		sets, err := EnumerateContext(context.Background(), tb, links, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, s := range sets {
			if !conflict.Feasible(tb, s.Couples) {
				t.Errorf("trial %d: set %v infeasible", trial, s)
			}
			if !IsMaximal(tb, s, links) {
				t.Errorf("trial %d: set %v not maximal", trial, s)
			}
		}
		// Completeness: every link must appear in some maximal set.
		for _, l := range links {
			found := false
			for _, s := range sets {
				if s.Contains(l) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("trial %d: link %d in no maximal set", trial, l)
			}
		}
	}
}

func keys(sets []Set) []string {
	out := make([]string, 0, len(sets))
	for _, s := range sets {
		out = append(out, s.Key())
	}
	return out
}

func TestEnumeratePartialTruncates(t *testing.T) {
	// 16 mutually compatible links explode; partial enumeration returns
	// whatever maximal sets it found plus the truncation flag.
	tb := conflict.NewTable()
	var links []topology.LinkID
	for i := topology.LinkID(0); i < 16; i++ {
		tb.SetRates(i, 54)
		links = append(links, i)
	}
	sets, truncated, err := EnumeratePartialContext(context.Background(), tb, links, Options{Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("expected truncation")
	}
	// Everything returned must still be genuinely feasible and maximal.
	for _, s := range sets {
		if !conflict.Feasible(tb, s.Couples) {
			t.Errorf("set %v infeasible", s)
		}
		if !IsMaximal(tb, s, links) {
			t.Errorf("set %v not maximal", s)
		}
	}
	// The complete run is not truncated and agrees with Enumerate.
	full, truncated, err := EnumeratePartialContext(context.Background(), tb, links, Options{})
	if err != nil || truncated {
		t.Fatalf("full run: truncated=%v err=%v", truncated, err)
	}
	direct, err := EnumerateContext(context.Background(), tb, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(direct) {
		t.Errorf("partial-full (%d sets) != Enumerate (%d sets)", len(full), len(direct))
	}
}

// allConflictTable builds n links with one rate each where every pair
// conflicts: the maximal set family is exactly the n singletons, and
// every feasible non-empty set is maximal, so the exploration count
// equals the returned set count and the limit boundary is unambiguous.
func allConflictTable(t *testing.T, n int) (*conflict.Table, []topology.LinkID) {
	t.Helper()
	tb := conflict.NewTable()
	var links []topology.LinkID
	for i := topology.LinkID(0); int(i) < n; i++ {
		tb.SetRates(i, 54)
		links = append(links, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := tb.AddConflictAllRates(topology.LinkID(i), topology.LinkID(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tb, links
}

// TestEnumerateLimitBoundary pins the exact limit semantics documented
// on Options.Limit: a truncated run hands back at most Limit sets (the
// walk stops *before* exploring set Limit+1), and Limit equal to the
// family size completes untruncated. Regression for an off-by-one where
// the limit check ran only after appending set Limit+1, so callers got
// Limit+1 sets from a "limited" enumeration.
func TestEnumerateLimitBoundary(t *testing.T) {
	tb, links := allConflictTable(t, limitBoundaryLinks)
	assertLimitBoundary(t, tb, links)
}

// TestEnumerateLimitBoundaryPinned is the same boundary check with
// the table behind rate pins.
func TestEnumerateLimitBoundaryPinned(t *testing.T) {
	tb, links := allConflictTable(t, limitBoundaryLinks)
	assertLimitBoundary(t, pinAll(tb, links, 54), links)
}

const limitBoundaryLinks = 6

// assertLimitBoundary runs an allConflictTable family at every limit
// from 1 to one past its size: since every explored set is a maximal
// singleton, a run returns exactly min(Limit, family) sets, truncates
// exactly when Limit is below the family size, and EnumerateContext
// fails with ErrLimit exactly when the partial run truncates.
func assertLimitBoundary(t *testing.T, m conflict.Model, links []topology.LinkID) {
	t.Helper()
	n := len(links)
	for limit := 1; limit <= n+1; limit++ {
		sets, truncated, err := EnumeratePartialContext(context.Background(), m, links, Options{Limit: limit})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if want := min(limit, n); len(sets) != want {
			t.Fatalf("limit %d over %d-set family: got %d sets %v, want %d", limit, n, len(sets), keys(sets), want)
		}
		if truncated != (limit < n) {
			t.Fatalf("limit %d over %d-set family: truncated=%v", limit, n, truncated)
		}
		if _, err := EnumerateContext(context.Background(), m, links, Options{Limit: limit}); (err != nil) != truncated || (truncated && !errors.Is(err, ErrLimit)) {
			t.Fatalf("limit %d: Enumerate err %v, truncated %v", limit, err, truncated)
		}
	}
}

// TestTruncationSound checks truncated physical walks: at most Limit
// sets come back, every one is feasible, maximal and in the complete
// family, and two runs at the same limit return byte-identical
// families.
func TestTruncationSound(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	full, err := EnumerateContext(context.Background(), m, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[string]bool, len(full))
	for _, s := range full {
		inFull[s.Key()] = true
	}
	for _, limit := range []int{3, 7, 19} {
		sets, truncated, err := EnumeratePartialContext(context.Background(), m, path, Options{Limit: limit})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !truncated {
			t.Fatalf("limit %d: expected truncation", limit)
		}
		if len(sets) > limit {
			t.Errorf("limit %d: %d sets exceed the limit", limit, len(sets))
		}
		for _, s := range sets {
			if !inFull[s.Key()] {
				t.Errorf("limit %d: %v not in the complete family", limit, s)
			}
			if !IsMaximal(m, s, path) { // IsMaximal checks feasibility too
				t.Errorf("limit %d: %v not feasible and maximal", limit, s)
			}
		}
		again, _, err := EnumeratePartialContext(context.Background(), m, path, Options{Limit: limit})
		if err != nil {
			t.Fatalf("limit %d: second run: %v", limit, err)
		}
		if !reflect.DeepEqual(again, sets) {
			t.Errorf("limit %d: truncated runs differ:\n %v\n %v", limit, keys(sets), keys(again))
		}
	}
}

// pinAll pins every link to rate r.
func pinAll(m conflict.PairwiseModel, links []topology.LinkID, r radio.Rate) *conflict.FixedRates {
	pins := make([]conflict.Couple, 0, len(links))
	for _, l := range links {
		pins = append(pins, conflict.Couple{Link: l, Rate: r})
	}
	return conflict.FixRates(m, pins)
}
