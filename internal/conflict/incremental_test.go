package conflict

import (
	"math/rand"
	"testing"

	"abw/internal/radio"
	"abw/internal/topology"
)

// pairwiseMaxRate recomputes MaxRate through the PairwiseModel contract:
// the highest declared rate that clears every concurrent couple
// individually. The decomposition must agree with the model's own
// MaxRate on every input — that is what licenses the bitmask
// enumeration walk in internal/indepset.
func pairwiseMaxRate(m PairwiseModel, link topology.LinkID, concurrent []Couple) radio.Rate {
	for _, r := range m.Rates(link) { // descending
		clear := true
		for _, c := range concurrent {
			if c.Link == link {
				continue
			}
			if !m.RateClears(link, r, c) {
				clear = false
				break
			}
		}
		if clear {
			return r
		}
	}
	return 0
}

// randomCouples draws a random concurrent set over the given links.
func randomCouples(rng *rand.Rand, m Model, links []topology.LinkID) []Couple {
	var out []Couple
	for _, l := range links {
		rs := m.Rates(l)
		if len(rs) == 0 || rng.Float64() < 0.5 {
			continue
		}
		out = append(out, Couple{Link: l, Rate: rs[rng.Intn(len(rs))]})
	}
	return out
}

func assertPairwiseDecomposition(t *testing.T, m PairwiseModel, links []topology.LinkID, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		concurrent := randomCouples(rng, m, links)
		for _, l := range links {
			got := m.MaxRate(l, concurrent)
			want := pairwiseMaxRate(m, l, concurrent)
			if got != want {
				t.Fatalf("%s: MaxRate(%d, %v) = %v, pairwise decomposition gives %v",
					label, l, concurrent, got, want)
			}
		}
	}
}

func TestProtocolPairwiseDecomposition(t *testing.T) {
	net, links := chainNet(t, 7, 90)
	assertPairwiseDecomposition(t, NewProtocol(net), links, "protocol chain")
}

func TestTablePairwiseDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rates := []radio.Rate{54, 36, 18, 6}
	tb := NewTable()
	var links []topology.LinkID
	const n = 6
	for i := topology.LinkID(0); i < n; i++ {
		tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
		links = append(links, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, ri := range tb.Rates(topology.LinkID(i)) {
				for _, rj := range tb.Rates(topology.LinkID(j)) {
					if rng.Float64() < 0.4 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	assertPairwiseDecomposition(t, tb, links, "random table")
	var pins []Couple
	for _, l := range links[1:] {
		rs := tb.Rates(l)
		pins = append(pins, Couple{Link: l, Rate: rs[rng.Intn(len(rs))]})
	}
	assertPairwiseDecomposition(t, FixRates(tb, pins), links, "pinned random table")
}

// TestSetTrackerMatchesMaxRate walks every subset of a chain's links
// with the incremental tracker and checks, at each DFS node, that the
// running-sum rates agree *exactly* (bit-for-bit, not approximately)
// with the from-scratch Physical.MaxRate — including the predictive
// MaxRateJoinedUnblocked used for in-DFS link-maximality, for every
// member and every joiner it admits (MaxRate > 0).
func TestSetTrackerMatchesMaxRate(t *testing.T) {
	net, links := chainNet(t, 6, 100)
	m := NewPhysical(net)
	assertTrackerMatchesMaxRate(t, m, links)
	// Pinned: one link per rate class, one unusable pin (above the
	// link's alone maximum), the rest unassigned.
	assertTrackerMatchesMaxRate(t, m.Pin([]Couple{
		{Link: links[0], Rate: 54}, {Link: links[1], Rate: 36}, {Link: links[2], Rate: 18},
		{Link: links[3], Rate: 6}, {Link: links[4], Rate: 540},
	}), links)
}

func assertTrackerMatchesMaxRate(t *testing.T, m *Physical, links []topology.LinkID) {
	t.Helper()
	tr := m.NewSetTracker(links)
	n := len(links)

	var members []int
	couples := func() []Couple {
		out := make([]Couple, 0, len(members))
		for _, mi := range members {
			// Physical.MaxRate only reads couple links, so any positive
			// rate stands in.
			out = append(out, Couple{Link: links[mi], Rate: 6})
		}
		return out
	}
	checked := 0
	var rec func(start int)
	rec = func(start int) {
		cs := couples()
		inSet := make([]bool, n)
		for _, mi := range members {
			inSet[mi] = true
		}
		for i := 0; i < n; i++ {
			fresh := m.MaxRate(links[i], cs)
			if got := tr.MaxRate(i); got != fresh {
				t.Fatalf("members %v: tracker MaxRate(%d) = %v, fresh = %v", members, i, got, fresh)
			}
			checked++
		}
		assertJoinedMatchesMaxRate(t, m, tr, links, members, inSet)
		for i := start; i < n; i++ {
			tr.Push(i)
			members = append(members, i)
			rec(i + 1)
			members = members[:len(members)-1]
			tr.Pop()
		}
	}
	rec(0)
	if checked == 0 {
		t.Fatal("walk checked nothing")
	}
}

// TestMaxRateVectorMatchesMaxRate pins the one-shot wrapper to the
// from-scratch model on chains of varying contention.
func TestMaxRateVectorMatchesMaxRate(t *testing.T) {
	for _, spacing := range []float64{60, 100, 150} {
		net, links := chainNet(t, 5, spacing)
		m := NewPhysical(net)
		for mask := 1; mask < 1<<len(links); mask++ {
			var sub []topology.LinkID
			var cs []Couple
			for i, l := range links {
				if mask&(1<<i) != 0 {
					sub = append(sub, l)
					cs = append(cs, Couple{Link: l, Rate: 6})
				}
			}
			rates, ok := m.MaxRateVector(sub)
			allOK := true
			for i, l := range sub {
				fresh := m.MaxRate(l, cs)
				if rates[i] != fresh {
					t.Fatalf("spacing %g, set %v: vector[%d] = %v, fresh MaxRate = %v",
						spacing, sub, i, rates[i], fresh)
				}
				if fresh == 0 {
					allOK = false
				}
			}
			if ok != allOK {
				t.Fatalf("spacing %g, set %v: ok = %v, want %v", spacing, sub, ok, allOK)
			}
		}
	}
}

// TestSetTrackerFullDepth pushes every position of a universe that
// repeats link IDs (duplicates ignore each other, like MaxRate ignores
// couples on the queried link) and whose chain links share nodes, down
// to depth n and back. After every Push and Pop, MaxRate and, for
// every member and admitted joiner, MaxRateJoinedUnblocked must equal
// Physical.MaxRate bit for bit.
func TestSetTrackerFullDepth(t *testing.T) {
	net, path := chainNet(t, 5, 60)
	universe := []topology.LinkID{path[0], path[3], path[1], path[0], path[4], path[2], path[1], path[3]}
	m := NewPhysical(net)
	tr := m.NewSetTracker(universe)
	n := len(universe)
	order := []int{2, 7, 0, 5, 3, 1, 6, 4}
	check := func(depth int) {
		t.Helper()
		if tr.Depth() != depth {
			t.Fatalf("Depth = %d, want %d", tr.Depth(), depth)
		}
		var cs []Couple
		isMember := make([]bool, n)
		for _, mi := range order[:depth] {
			cs = append(cs, Couple{Link: universe[mi], Rate: 6})
			isMember[mi] = true
		}
		for i := 0; i < n; i++ {
			if got, want := tr.MaxRate(i), m.MaxRate(universe[i], cs); got != want {
				t.Fatalf("depth %d: MaxRate(%d) = %v, fresh = %v", depth, i, got, want)
			}
		}
		assertJoinedMatchesMaxRate(t, m, tr, universe, order[:depth], isMember)
	}
	check(0)
	for d, i := range order {
		tr.Push(i)
		check(d + 1)
	}
	for d := n - 1; d >= 0; d-- {
		tr.Pop()
		check(d)
	}
}

// TestNewSetTrackerAllocs pins NewSetTracker's allocation count: its
// per-position state lives in a few flat arrays, so the count must not
// grow with the universe.
func TestNewSetTrackerAllocs(t *testing.T) {
	allocs := func(hops int) float64 {
		net, path := chainNet(t, hops, 60)
		m := NewPhysical(net)
		return testing.AllocsPerRun(20, func() { m.NewSetTracker(path) })
	}
	small, large := allocs(3), allocs(40)
	if large > small {
		t.Fatalf("NewSetTracker: %v allocs over 3 links, %v over 40; want no growth", small, large)
	}
}

// TestMaxRateJoinedUnblockedAgrees pins the sharer-free joined rate to
// a fresh Physical.MaxRate wherever its contract holds: for every
// member i and every non-member j with MaxRate(j) > 0, after every Push
// and Pop of random member sequences over the Fig. 2 links and over a
// chain universe that repeats link IDs and shares nodes.
func TestMaxRateJoinedUnblockedAgrees(t *testing.T) {
	fig2 := fig2Physical(t)
	var fig2Links []topology.LinkID
	for _, l := range fig2.Network().Links() {
		fig2Links = append(fig2Links, l.ID)
	}
	chain, path := chainNet(t, 5, 60)
	cases := []struct {
		m        *Physical
		universe []topology.LinkID
	}{
		{fig2, fig2Links},
		{NewPhysical(chain), []topology.LinkID{path[0], path[3], path[1], path[0], path[4], path[2], path[1], path[3]}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		n := len(tc.universe)
		tr := tc.m.NewSetTracker(tc.universe)
		isMember := make([]bool, n)
		checked := 0
		check := func() {
			t.Helper()
			checked += assertJoinedMatchesMaxRate(t, tc.m, tr, tc.universe, tr.members, isMember)
		}
		for trial := 0; trial < 50; trial++ {
			depth := 1 + rng.Intn(min(n, 6))
			var pushed []int
			for len(pushed) < depth {
				i := rng.Intn(n)
				if isMember[i] {
					continue
				}
				tr.Push(i)
				isMember[i] = true
				pushed = append(pushed, i)
				check()
			}
			for k := len(pushed) - 1; k >= 0; k-- {
				tr.Pop()
				isMember[pushed[k]] = false
				check()
			}
		}
		if checked == 0 {
			t.Fatalf("universe %v: no member/joiner pair checked", tc.universe)
		}
	}
}

// assertJoinedMatchesMaxRate checks MaxRateJoinedUnblocked(i, j)
// against a fresh Physical.MaxRate of member i with j added, bit for
// bit, for every member i and every non-member j with MaxRate(j) > 0,
// and returns the number of pairs checked.
func assertJoinedMatchesMaxRate(t *testing.T, m *Physical, tr *SetTracker, universe []topology.LinkID, members []int, isMember []bool) int {
	t.Helper()
	cs := make([]Couple, 0, len(members)+1)
	for _, mi := range members {
		// Physical.MaxRate only reads couple links, so any positive
		// rate stands in.
		cs = append(cs, Couple{Link: universe[mi], Rate: 6})
	}
	checked := 0
	for j := range universe {
		if isMember[j] || tr.MaxRate(j) == 0 {
			continue
		}
		joined := append(cs, Couple{Link: universe[j], Rate: 6})
		for _, i := range members {
			if got, want := tr.MaxRateJoinedUnblocked(i, j), m.MaxRate(universe[i], joined); got != want {
				t.Fatalf("members %v: MaxRateJoinedUnblocked(%d,%d) = %v, fresh = %v", members, i, j, got, want)
			}
			checked++
		}
	}
	return checked
}
