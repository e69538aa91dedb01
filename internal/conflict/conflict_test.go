package conflict

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// chainNet builds an n-hop chain with the given spacing and returns the
// network plus the forward-hop link IDs.
func chainNet(t *testing.T, hops int, spacing float64) (*topology.Network, []topology.LinkID) {
	t.Helper()
	net, path, err := topology.Chain(radio.NewProfile80211a(), hops, spacing)
	if err != nil {
		t.Fatal(err)
	}
	return net, path
}

func TestPhysicalAloneRates(t *testing.T) {
	net, path := chainNet(t, 2, 50)
	m := NewPhysical(net)
	rates := m.Rates(path[0])
	want := []radio.Rate{54, 36, 18, 6}
	if len(rates) != len(want) {
		t.Fatalf("Rates = %v, want %v", rates, want)
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Errorf("rate %d = %v, want %v", i, rates[i], want[i])
		}
	}
	if got := m.MaxRate(path[0], nil); got != 54 {
		t.Errorf("MaxRate(alone) = %v, want 54", got)
	}
}

func TestPhysicalHalfDuplex(t *testing.T) {
	net, path := chainNet(t, 2, 50)
	m := NewPhysical(net)
	// Links 0->1 and 1->2 share node 1: never concurrent.
	if got := m.MaxRate(path[0], []Couple{{Link: path[1], Rate: 54}}); got != 0 {
		t.Errorf("adjacent hops sharing a node: MaxRate = %v, want 0", got)
	}
	if Feasible(m, []Couple{{Link: path[0], Rate: 6}, {Link: path[1], Rate: 6}}) {
		t.Error("adjacent hops should be infeasible at any rate")
	}
}

func TestPhysicalInterferenceDegradesRate(t *testing.T) {
	// Two parallel 50m links far enough apart to coexist at some rate
	// but close enough that 54 Mbps is lost: tune by separation.
	prof := radio.NewProfile80211a()
	mk := func(sep float64) (*Physical, topology.LinkID, topology.LinkID) {
		net, err := topology.New(prof, []geom.Point{
			{X: 0, Y: 0}, {X: 50, Y: 0},
			{X: 0, Y: sep}, {X: 50, Y: sep},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, ok1 := net.LinkBetween(0, 1)
		b, ok2 := net.LinkBetween(2, 3)
		if !ok1 || !ok2 {
			t.Fatal("missing links")
		}
		return NewPhysical(net), a, b
	}

	// Far apart: both keep 54.
	mFar, aFar, bFar := mk(10000)
	if got := mFar.MaxRate(aFar, []Couple{{Link: bFar, Rate: 54}}); got != 54 {
		t.Errorf("distant parallel links: MaxRate = %v, want 54", got)
	}
	// 54 needs SINR 24.56dB = 285.4x. Signal at 50m; interferer at
	// ~sep: need sep >= 50 * 285^(1/4) ~ 205m for 54. At 150m separation
	// 54 must fail but some lower rate may survive.
	mMid, aMid, bMid := mk(150)
	got := mMid.MaxRate(aMid, []Couple{{Link: bMid, Rate: 54}})
	if got >= 54 {
		t.Errorf("150m separation: MaxRate = %v, want < 54", got)
	}
	if got == 0 {
		t.Errorf("150m separation: MaxRate = 0, want a positive degraded rate")
	}
	// Very close: zero.
	mNear, aNear, bNear := mk(20)
	if got := mNear.MaxRate(aNear, []Couple{{Link: bNear, Rate: 54}}); got != 0 {
		t.Errorf("20m separation: MaxRate = %v, want 0", got)
	}
}

func TestPhysicalCumulativeInterference(t *testing.T) {
	// Several interferers whose individual powers are tolerable must sum:
	// with the physical model, k copies at the same distance k-fold the
	// interference.
	prof := radio.NewProfile80211a()
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 50, Y: 0}, // link under test
		{X: 0, Y: 220}, {X: 50, Y: 220}, // interferer 1 (above)
		{X: 0, Y: -220}, {X: 50, Y: -220}, // interferer 2 (below)
		{X: -220, Y: 0}, {X: -220, Y: 50}, // interferer 3 (left)
	}
	net, err := topology.New(prof, pts)
	if err != nil {
		t.Fatal(err)
	}
	m := NewPhysical(net)
	l, _ := net.LinkBetween(0, 1)
	i1, _ := net.LinkBetween(2, 3)
	i2, _ := net.LinkBetween(4, 5)
	i3, _ := net.LinkBetween(6, 7)
	r1 := m.MaxRate(l, []Couple{{Link: i1, Rate: 54}})
	r3 := m.MaxRate(l, []Couple{{Link: i1, Rate: 54}, {Link: i2, Rate: 54}, {Link: i3, Rate: 54}})
	if r3 > r1 {
		t.Errorf("more interferers raised the rate: %v > %v", r3, r1)
	}
	if r1 == 0 {
		t.Skip("geometry too tight for a single interferer; adjust fixture")
	}
	if r3 == r1 {
		t.Logf("note: cumulative interference did not cross a rate step (r1=%v r3=%v)", r1, r3)
	}
}

func TestPhysicalMaxRateVector(t *testing.T) {
	net, path := chainNet(t, 4, 50)
	m := NewPhysical(net)
	// Links 0 and 2 share no node (0->1, 2->3). At 50m spacing the gap
	// is only 50m, so they interfere heavily: expect low or zero rates.
	rates, _ := m.MaxRateVector([]topology.LinkID{path[0], path[2]})
	if len(rates) != 2 {
		t.Fatalf("rate vector length %d, want 2", len(rates))
	}
	// Adjacent links share a node: infeasible.
	if _, ok := m.MaxRateVector([]topology.LinkID{path[0], path[1]}); ok {
		t.Error("adjacent links should not form an independent set")
	}
	// Singleton always works.
	r, ok := m.MaxRateVector([]topology.LinkID{path[0]})
	if !ok || r[0] != 54 {
		t.Errorf("singleton = (%v, %v), want (54, true)", r, ok)
	}
}

func TestFeasibleRejectsDuplicateLink(t *testing.T) {
	net, path := chainNet(t, 2, 50)
	m := NewPhysical(net)
	if Feasible(m, []Couple{{Link: path[0], Rate: 54}, {Link: path[0], Rate: 36}}) {
		t.Error("duplicate link must be infeasible")
	}
	if Feasible(m, []Couple{{Link: path[0], Rate: 0}}) {
		t.Error("zero rate must be infeasible")
	}
}

func TestInterferes(t *testing.T) {
	net, path := chainNet(t, 2, 50)
	m := NewPhysical(net)
	a := Couple{Link: path[0], Rate: 54}
	b := Couple{Link: path[1], Rate: 54}
	if !Interferes(m, a, b) {
		t.Error("adjacent hops must interfere")
	}
	if !Interferes(m, a, a) {
		t.Error("a couple interferes with itself by convention")
	}
}

func TestTableModelScenarioII(t *testing.T) {
	tb := NewTable()
	for l := topology.LinkID(0); l < 4; l++ {
		tb.SetRates(l, 36, 54)
	}
	pairsAllRates := [][2]topology.LinkID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	for _, p := range pairsAllRates {
		if err := tb.AddConflictAllRates(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.AddConflict(0, 54, 3, 36); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddConflict(0, 54, 3, 54); err != nil {
		t.Fatal(err)
	}

	// L1@36 + L4@54 is feasible (the paper's E4 slot).
	if !Feasible(tb, []Couple{{Link: 0, Rate: 36}, {Link: 3, Rate: 54}}) {
		t.Error("(L1,36)+(L4,54) should be feasible")
	}
	// L1@54 + L4@54 is not.
	if Feasible(tb, []Couple{{Link: 0, Rate: 54}, {Link: 3, Rate: 54}}) {
		t.Error("(L1,54)+(L4,54) should be infeasible")
	}
	// MaxRate of L1 given L4@54 is 36.
	if got := tb.MaxRate(0, []Couple{{Link: 3, Rate: 54}}); got != 36 {
		t.Errorf("MaxRate(L1 | L4@54) = %v, want 36", got)
	}
	// MaxRate of L1 given L2 transmitting is 0.
	if got := tb.MaxRate(0, []Couple{{Link: 1, Rate: 36}}); got != 0 {
		t.Errorf("MaxRate(L1 | L2@36) = %v, want 0", got)
	}
	// Alone max.
	if got := AloneMaxRate(tb, 0); got != 54 {
		t.Errorf("AloneMaxRate = %v, want 54", got)
	}
	if !SupportsAlone(tb, 0, 36) || SupportsAlone(tb, 0, 18) {
		t.Error("SupportsAlone rates wrong")
	}
}

func TestTableValidation(t *testing.T) {
	tb := NewTable()
	if err := tb.AddConflict(1, 54, 1, 36); err == nil {
		t.Error("self conflict: expected error")
	}
	if err := tb.AddConflictAllRates(1, 2); err == nil {
		t.Error("AddConflictAllRates before SetRates: expected error")
	}
	if got := tb.MaxRate(99, nil); got != 0 {
		t.Errorf("unknown link MaxRate = %v, want 0", got)
	}
	if got := AloneMaxRate(tb, 99); got != 0 {
		t.Errorf("unknown link AloneMaxRate = %v, want 0", got)
	}
}

func TestTableLinks(t *testing.T) {
	tb := NewTable()
	tb.SetRates(3, 54)
	tb.SetRates(1, 36)
	got := tb.Links()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Links = %v, want [1 3]", got)
	}
}

func TestProtocolModelRateDependentConflict(t *testing.T) {
	// Two 50m links separated so that the interferer is inside the 54
	// interference radius but outside the 36 radius:
	// IR(54) = 50 * 285.1^(1/4) ~ 205.4m; IR(36) = 50 * 75.86^(1/4) ~ 147.6m.
	prof := radio.NewProfile80211a()
	net, err := topology.New(prof, []geom.Point{
		{X: 0, Y: 0}, {X: 50, Y: 0},
		{X: 0, Y: 180}, {X: 50, Y: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewProtocol(net)
	a, _ := net.LinkBetween(0, 1)
	b, _ := net.LinkBetween(2, 3)
	// Interferer tx at (0,180); receiver of a at (50,0): distance
	// sqrt(50^2+180^2) ~ 186.8m — inside IR(54), outside IR(36).
	got := m.MaxRate(a, []Couple{{Link: b, Rate: 54}})
	if got != 36 {
		t.Errorf("MaxRate under one interferer = %v, want 36", got)
	}
	// Alone: 54.
	if got := m.MaxRate(a, nil); got != 54 {
		t.Errorf("MaxRate alone = %v, want 54", got)
	}
}

func TestProtocolHalfDuplex(t *testing.T) {
	net, path := chainNet(t, 2, 50)
	m := NewProtocol(net)
	if got := m.MaxRate(path[0], []Couple{{Link: path[1], Rate: 6}}); got != 0 {
		t.Errorf("adjacent hops: MaxRate = %v, want 0", got)
	}
}

func TestProtocolNoPowerSumming(t *testing.T) {
	// Protocol is pairwise: many interferers each outside IR do not sum.
	prof := radio.NewProfile80211a()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	// Ring of interferer links at 280m > IR(54) ~ 205m from rx.
	for i := 0; i < 4; i++ {
		base := geom.Point{X: 50 + 280, Y: float64(i * 300)}
		pts = append(pts, base, base.Add(geom.Point{X: 50}))
	}
	net, err := topology.New(prof, pts)
	if err != nil {
		t.Fatal(err)
	}
	m := NewProtocol(net)
	a, _ := net.LinkBetween(0, 1)
	var conc []Couple
	for i := 0; i < 4; i++ {
		id, ok := net.LinkBetween(topology.NodeID(2+2*i), topology.NodeID(3+2*i))
		if !ok {
			t.Fatal("missing interferer link")
		}
		conc = append(conc, Couple{Link: id, Rate: 54})
	}
	if got := m.MaxRate(a, conc); got != 54 {
		t.Errorf("protocol model should ignore cumulative power: MaxRate = %v, want 54", got)
	}
	// The physical model, in contrast, degrades under the same load.
	pm := NewPhysical(net)
	if got := pm.MaxRate(a, conc); got >= 54 {
		t.Logf("physical MaxRate = %v (cumulative interference may or may not cross a step here)", got)
	}
}

func TestCoupleString(t *testing.T) {
	c := Couple{Link: 3, Rate: 54}
	if got := c.String(); got != "(L3, 54Mbps)" {
		t.Errorf("String = %q", got)
	}
}

func TestFixedRatesWrapper(t *testing.T) {
	tb := NewTable()
	tb.SetRates(0, 54, 36)
	tb.SetRates(1, 54, 36)
	if err := tb.AddConflict(0, 54, 1, 54); err != nil {
		t.Fatal(err)
	}
	fixed := FixRates(tb, []Couple{{Link: 0, Rate: 36}, {Link: 1, Rate: 54}})
	// Link 0 only offers 36 now.
	if got := fixed.Rates(0); len(got) != 1 || got[0] != 36 {
		t.Errorf("Rates(0) = %v, want [36]", got)
	}
	if got := fixed.MaxRate(0, nil); got != 36 {
		t.Errorf("MaxRate(0 alone) = %v, want 36", got)
	}
	// 0@36 vs 1@54 has no declared conflict: both allowed.
	if got := fixed.MaxRate(0, []Couple{{Link: 1, Rate: 54}}); got != 36 {
		t.Errorf("MaxRate(0 | 1@54) = %v, want 36", got)
	}
	// Unassigned links are silenced.
	tb.SetRates(2, 54)
	if fixed.MaxRate(2, nil) != 0 || fixed.Rates(2) != nil {
		t.Error("unassigned link should support nothing")
	}
	// Pinning a rate the link does not support alone yields nothing.
	bad := FixRates(tb, []Couple{{Link: 0, Rate: 18}})
	if bad.Rates(0) != nil {
		t.Error("pinned unsupported rate should yield no rates")
	}
}

func TestFixedRatesConflictEnforced(t *testing.T) {
	tb := NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 54)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	fixed := FixRates(tb, []Couple{{Link: 0, Rate: 54}, {Link: 1, Rate: 54}})
	if got := fixed.MaxRate(0, []Couple{{Link: 1, Rate: 54}}); got != 0 {
		t.Errorf("MaxRate under conflict = %v, want 0", got)
	}
}

// fig2Physical builds the Fig. 2 evaluation deployment (30 nodes on
// 400x600 m, topology seed 26, as experiments.Fig2Setup does).
func fig2Physical(t *testing.T) *Physical {
	t.Helper()
	net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 400, H: 600}, 30, 26)
	if err != nil {
		t.Fatal(err)
	}
	return NewPhysical(net)
}

// TestPhysicalAloneMaxRateMatchesRates pins the non-allocating alone
// maximum to Rates: for every Fig. 2 link, and for an out-of-range
// link, it is Rates(l)[0], or 0 when Rates is empty.
func TestPhysicalAloneMaxRateMatchesRates(t *testing.T) {
	p := fig2Physical(t)
	ids := []topology.LinkID{-1, topology.LinkID(p.Network().NumLinks())}
	for _, l := range p.Network().Links() {
		ids = append(ids, l.ID)
	}
	positive := 0
	for _, id := range ids {
		var want radio.Rate
		if rates := p.Rates(id); len(rates) > 0 {
			want = rates[0]
		}
		if got := p.AloneMaxRate(id); got != want {
			t.Fatalf("link %d: AloneMaxRate = %v, Rates()[0] = %v", id, got, want)
		}
		if got := AloneMaxRate(p, id); got != want {
			t.Fatalf("link %d: conflict.AloneMaxRate = %v, Rates()[0] = %v", id, got, want)
		}
		if want > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no link has a positive alone rate")
	}
}

// TestFingerprintStable fixes the memo cache keys of the SINR and
// interference-range models over the Fig. 2 deployment and a 6-hop
// chain. The fingerprint keys in-memory entries and the families a
// -cachedir spill keeps across restarts, so a change to what it hashes
// must show here, together with a bump of the store's format version.
func TestFingerprintStable(t *testing.T) {
	fig2 := fig2Physical(t)
	chain, _ := chainNet(t, 6, 100)
	for _, tc := range []struct {
		name string
		m    Fingerprinter
		want string
	}{
		{"fig2 physical", fig2, "d541813ea8efa7c1e5c6f39d7c96402f"},
		{"fig2 protocol", NewProtocol(fig2.Network()), "22659c579ce0afb1d77b84b87169a95e"},
		{"chain physical", NewPhysical(chain), "115260bc5f86c35550c4467de590eaa1"},
		{"chain protocol", NewProtocol(chain), "46eef2bc2daad9dcc0a64baad42d0dca"},
	} {
		if got := tc.m.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestCompareCouples checks CompareCouples over every pair of a table
// listed in ascending order: integer link IDs (2 before 10 before 100,
// negative IDs first), a list before its extensions, the link lists
// deciding before any rate does, and the same links at different rates
// ordered numerically.
func TestCompareCouples(t *testing.T) {
	asc := [][]Couple{
		{},
		{{-12, 6}},
		{{-1, 6}},
		{{-1, 6}, {2, 54}},
		{{0, 54}},
		{{2, 0.25}},
		{{2, 6}},
		{{2, 54}},
		{{2, 6}, {10, 54}},
		{{2, 54}, {10, 6}},
		{{2, 54}, {10, 54}},
		{{2, 54}, {10, 54}, {100, 6}},
		{{2, 5.5}, {100, 54}},
		{{2, 54}, {100, 6}},
		{{10, 54}},
		{{10, 1e6}},
		{{100, 6}},
	}
	for i, a := range asc {
		for j, b := range asc {
			if got, want := sign(CompareCouples(a, b)), sign(i-j); got != want {
				t.Errorf("CompareCouples(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
	// Equal couples in distinct slices compare equal.
	if c := CompareCouples([]Couple{{3, 5.5}, {7, 6}}, []Couple{{3, 5.5}, {7, 6}}); c != 0 {
		t.Errorf("CompareCouples of equal lists = %d, want 0", c)
	}
	x, y := []Couple{{3, 5.5}, {7, 6}}, []Couple{{3, 2.5e6}, {7, 6}}
	if allocs := testing.AllocsPerRun(100, func() { CompareCouples(x, y) }); allocs > 0 {
		t.Errorf("CompareCouples allocates %v times per call, want 0", allocs)
	}
}

// decodeOrderCouples decodes one couple list of at most four couples
// from in, which it consumes. Link IDs come from a table of neighbours
// (negative ones included) or straight from a byte; rates from a table,
// a small integer, or raw float bits (NaN, infinities, negatives, -0
// and subnormals included).
func decodeOrderCouples(in *[]byte) []Couple {
	next := func() byte {
		if len(*in) == 0 {
			return 0
		}
		v := (*in)[0]
		*in = (*in)[1:]
		return v
	}
	linkTable := []topology.LinkID{0, 1, 2, 10, 12, 100, 1000, -1, -12}
	rateTable := []radio.Rate{5, 55, 5.5, 54, 1e6, 2.5e6, 0.25, 0}
	n := int(next() % 5)
	var cs []Couple
	for i := 0; i < n; i++ {
		var l topology.LinkID
		if b := next(); b < 128 {
			l = topology.LinkID(b)
		} else {
			l = linkTable[int(b)%len(linkTable)]
		}
		var r radio.Rate
		switch b := next(); {
		case b < 128:
			r = rateTable[int(b)%len(rateTable)]
		case b < 192:
			r = radio.Rate(next())
		default:
			var bits [8]byte
			for k := range bits {
				bits[k] = next()
			}
			r = radio.Rate(math.Float64frombits(binary.LittleEndian.Uint64(bits[:])))
		}
		cs = append(cs, Couple{l, r})
	}
	return cs
}

// equalCouples reports whether a and b hold the same couples, a NaN
// rate matching any NaN.
func equalCouples(a, b []Couple) bool {
	return slices.EqualFunc(a, b, func(x, y Couple) bool {
		return x.Link == y.Link && (x.Rate == y.Rate || (x.Rate != x.Rate && y.Rate != y.Rate))
	})
}

// FuzzSetOrder checks, on three fuzzer-chosen couple lists, that
// CompareCouples is a total order: antisymmetric, transitive, and 0
// exactly for equal lists.
func FuzzSetOrder(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 1, 1})
	f.Add([]byte{2, 129, 1, 3, 2, 2, 129, 2, 3, 1})
	f.Add([]byte{1, 3, 200, 0, 0, 0, 0, 0, 0, 248, 127, 1, 3, 200, 0, 0, 0, 0, 0, 0, 248, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		sets := [3][]Couple{decodeOrderCouples(&in), decodeOrderCouples(&in), decodeOrderCouples(&in)}
		for _, a := range sets {
			for _, b := range sets {
				ab, ba := CompareCouples(a, b), CompareCouples(b, a)
				if sign(ab) != -sign(ba) {
					t.Fatalf("CompareCouples(%v, %v) = %d but reversed = %d", a, b, ab, ba)
				}
				if (ab == 0) != equalCouples(a, b) {
					t.Fatalf("CompareCouples(%v, %v) = %d, equal lists: %v", a, b, ab, equalCouples(a, b))
				}
				for _, c := range sets {
					bc, ac := CompareCouples(b, c), CompareCouples(a, c)
					if ab <= 0 && bc <= 0 && (ac > 0 || (ac == 0 && (ab < 0 || bc < 0))) {
						t.Fatalf("not transitive: %v vs %v = %d, %v vs %v = %d, %v vs %v = %d", a, b, ab, b, c, bc, a, c, ac)
					}
				}
			}
		}
	})
}
