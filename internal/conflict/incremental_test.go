package conflict

import (
	"math"
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
// with the from-scratch Physical.MaxRate — including
// MaxRateJoinedUnblocked, which ties the walk's keep ceilings to
// MaxRate, for every member and every joiner it admits (MaxRate > 0).
func TestSetTrackerMatchesMaxRate(t *testing.T) {
	net, links := chainNet(t, 6, 100)
	m := NewPhysical(net)
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

// TestRateAtMatchesProfile pins the division-free rate decision to the
// profile's SINR test: for every Fig. 2 link and every class it
// decodes, the tables' rate at interference x equals
// Profile.MaxRate(signal, x) bit for bit at x = 0, at the class's
// ceiling, one ulp either side of it, and at seeded random powers
// around it.
func TestRateAtMatchesProfile(t *testing.T) {
	p := fig2Physical(t)
	prof := p.Network().Profile()
	var universe []topology.LinkID
	for _, l := range p.Network().Links() {
		universe = append(universe, l.ID)
	}
	rng := rand.New(rand.NewSource(11))
	s := p.NewSetTables(universe)
	checked := 0
	for i, id := range universe {
		signal := p.SignalPower(id)
		check := func(x float64) {
			t.Helper()
			want, _ := prof.MaxRate(signal, x)
			if got := s.rateAt(i, x); got != want {
				t.Fatalf("link %d: rate at %v = %v, profile gives %v", id, x, got, want)
			}
			checked++
		}
		check(0)
		nc := prof.NumClasses()
		for k := 0; k < nc; k++ {
			c := p.ceil[int(id)*nc+k]
			if math.IsInf(c, -1) {
				continue // not decodable
			}
			for _, x := range []float64{c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1))} {
				if x >= 0 {
					check(x)
				}
			}
			for trial := 0; trial < 20; trial++ {
				check(2 * c * rng.Float64())
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// TestSinrCeilingIsExact checks the ceiling search directly: the
// ceiling passes the SINR test and the next float above it fails, over
// Fig. 2's signals and every class threshold, with and without noise,
// and the -Inf and +Inf ends.
func TestSinrCeilingIsExact(t *testing.T) {
	p := fig2Physical(t)
	prof := p.Network().Profile()
	passes := func(signal, noise, thr, x float64) bool { return signal/(x+noise) >= thr }
	for _, noise := range []float64{prof.Noise(), 0} {
		for _, signal := range p.signal {
			for k := 0; k < prof.NumClasses(); k++ {
				thr, _ := prof.SINRThreshold(prof.Class(k).Rate)
				c := sinrCeiling(signal, noise, thr)
				if math.IsInf(c, -1) {
					if passes(signal, noise, thr, 0) {
						t.Fatalf("signal %v thr %v: ceiling -Inf but x=0 passes", signal, thr)
					}
					continue
				}
				if !passes(signal, noise, thr, c) || passes(signal, noise, thr, math.Nextafter(c, math.Inf(1))) {
					t.Fatalf("signal %v noise %v thr %v: ceiling %v is not the last passing float", signal, noise, thr, c)
				}
			}
		}
	}
	if c := sinrCeiling(1, 1, 2); !math.IsInf(c, -1) {
		t.Fatalf("unreachable threshold: ceiling %v, want -Inf", c)
	}
	if c := sinrCeiling(1, 1, 0); !math.IsInf(c, 1) {
		t.Fatalf("zero threshold: ceiling %v, want +Inf", c)
	}
}

// TestOpenMaskAndCeilings pins the tracker's pruning aids to its rates
// after every Push and Pop of random member sequences over the Fig. 2
// links:
//   - MemberRates reports MaxRate for each member and whether all are
//     positive, and then, for every member i and unblocked joiner j,
//     JoinedLevel(i, j) is within i's keep ceiling exactly when
//     MaxRateJoinedUnblocked(i, j) keeps i's rate;
//   - for every position and each of its class rates r, Level is
//     within Ceiling(r) exactly when an unblocked MaxRate reaches r;
//   - no member is open, no open position shares a node with a member,
//     and pushing a closed non-member leaves some member or the pushed
//     position with MaxRate 0.
func TestOpenMaskAndCeilings(t *testing.T) {
	p := fig2Physical(t)
	var universe []topology.LinkID
	for _, l := range p.Network().Links() {
		universe = append(universe, l.ID)
	}
	rng := rand.New(rand.NewSource(13))
	tr := p.NewSetTracker(universe)
	n := len(universe)
	isMember := make([]bool, n)
	closed := 0
	rates, keeps := make([]radio.Rate, n), make([]float64, n)
	check := func() {
		t.Helper()
		on := tr.MemberRates(rates, keeps)
		allOn := true
		for m, i := range tr.members {
			if r := tr.MaxRate(i); r == 0 {
				allOn = false
				break
			} else if rates[m] != r {
				t.Fatalf("MemberRates gives member %d rate %v, MaxRate %v", i, rates[m], r)
			}
		}
		if on != allOn {
			t.Fatalf("MemberRates reports %v, members all transmit: %v", on, allOn)
		}
		for m, i := range tr.members {
			for j := 0; j < n && on; j++ {
				if isMember[j] || tr.MaxRate(j) == 0 {
					continue
				}
				if within, kept := tr.JoinedLevel(i, j) <= keeps[m], tr.MaxRateJoinedUnblocked(i, j) >= rates[m]; within != kept {
					t.Fatalf("member %d joiner %d: within keep ceiling %v, keeps rate %v", i, j, within, kept)
				}
			}
		}
		open := tr.Open()
		for i := 0; i < n; i++ {
			isOpen := open[i>>6]&(1<<(i&63)) != 0
			if isMember[i] {
				if isOpen {
					t.Fatalf("member %d is open", i)
				}
				continue
			}
			if !tr.blocked(i) {
				for k := i * tr.s.nc; k < (i+1)*tr.s.nc; k++ {
					r := tr.s.rate[k]
					if r > 0 && (tr.Level(i) <= tr.s.Ceiling(i, r)) != (tr.MaxRate(i) >= r) {
						t.Fatalf("position %d rate %v: ceiling %v, level %v, MaxRate %v", i, r, tr.s.Ceiling(i, r), tr.Level(i), tr.MaxRate(i))
					}
				}
			}
			if isOpen {
				if tr.blocked(i) {
					t.Fatalf("open position %d is blocked", i)
				}
				continue
			}
			closed++
			tr.Push(i)
			silenced := tr.MaxRate(i) == 0
			for _, mi := range tr.members[:len(tr.members)-1] {
				silenced = silenced || tr.MaxRate(mi) == 0
			}
			tr.Pop()
			if !silenced {
				t.Fatalf("closed position %d joins members %v with everyone transmitting", i, tr.members)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		depth := 1 + rng.Intn(4)
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
	if closed == 0 {
		t.Fatal("no closed position checked")
	}
}
