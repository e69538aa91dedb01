package conflict

import (
	"math"

	"abw/internal/radio"
	"abw/internal/topology"
)

// Physical is the cumulative-interference SINR model of paper Eq. 1/3:
// a link in a concurrent set supports the highest rate whose receiver
// sensitivity is met and whose SINR requirement survives the *sum* of
// interference powers from every other transmitter in the set, plus the
// noise floor. It also enforces half-duplex node exclusivity.
//
// Because transmit powers are fixed, the interference sum depends only on
// which links transmit — not on their rates — so the maximum supported
// rate vector of a set is unique (paper Sec. 2.3).
type Physical struct {
	net *topology.Network
	// interf[k][j] is the interference power at link j's receiver caused
	// by link k's transmitter.
	interf [][]float64
	// signal[j] is the received signal power at link j's receiver.
	signal []float64
	// ceil[j*nc+k] is link j's SINR ceiling for profile class k (nc
	// classes): the largest interference power under which the class
	// still decodes, -Inf when it never does (sinrCeiling).
	ceil []float64
	// fp memoizes the canonical content fingerprint (fingerprint.go).
	fp fpMemo
}

var _ Model = (*Physical)(nil)

// NewPhysical builds a Physical model over the given network,
// precomputing all pairwise interference powers and every link's SINR
// ceilings.
func NewPhysical(net *topology.Network) *Physical {
	nl := net.NumLinks()
	prof := net.Profile()
	nc := prof.NumClasses()
	p := &Physical{
		net:    net,
		interf: make([][]float64, nl),
		signal: make([]float64, nl),
		ceil:   make([]float64, nl*nc),
	}
	links := net.Links()
	for j, lj := range links {
		p.signal[j] = prof.RxPower(lj.Dist)
		for k := 0; k < nc; k++ {
			c := prof.Class(k)
			sens, _ := prof.Sensitivity(c.Rate)
			thr, _ := prof.SINRThreshold(c.Rate)
			p.ceil[j*nc+k] = math.Inf(-1)
			if p.signal[j] >= sens {
				p.ceil[j*nc+k] = sinrCeiling(p.signal[j], prof.Noise(), thr)
			}
		}
	}
	for k, lk := range links {
		p.interf[k] = make([]float64, nl)
		for j, lj := range links {
			if k == j {
				continue
			}
			d := mustNodeDist(net, lk.Tx, lj.Rx)
			p.interf[k][j] = prof.RxPower(d)
		}
	}
	return p
}

// sinrCeiling returns the largest float64 x >= 0 with
// signal/(x+noise) >= thr, +Inf when every x passes, or -Inf when not
// even x = 0 does. IEEE addition and division round monotonically, so
// the passing interference powers are exactly the non-negative floats
// up to the ceiling, and "x <= ceiling" decides the SINR test bit for
// bit without dividing. The closed form signal/thr - noise lands
// within a few ulps of the boundary; a bracket galloping outward from
// it over float bit patterns (which order non-negative floats like
// their values) and a bisection inside the bracket find it exactly.
func sinrCeiling(signal, noise, thr float64) float64 {
	passes := func(b uint64) bool { return signal/(math.Float64frombits(b)+noise) >= thr }
	inf := math.Float64bits(math.Inf(1))
	if !passes(0) {
		return math.Inf(-1)
	}
	if passes(inf) {
		return math.Inf(1)
	}
	// lo passes and hi fails throughout.
	var lo, hi uint64
	if guess := signal/thr - noise; guess > 0 {
		lo = min(math.Float64bits(guess), inf)
	}
	if passes(lo) {
		for step := uint64(1); ; step *= 2 {
			hi = min(lo+step, inf)
			if !passes(hi) {
				break
			}
			lo = hi
		}
	} else {
		hi = lo
		for step := uint64(1); ; step *= 2 {
			lo = hi - min(step, hi)
			if passes(lo) {
				break
			}
			hi = lo
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

func mustNodeDist(net *topology.Network, a, b topology.NodeID) float64 {
	d, err := net.NodeDist(a, b)
	if err != nil {
		// Nodes come from the network's own links; failure means the
		// network is internally inconsistent.
		panic(err)
	}
	return d
}

// Network returns the underlying network.
func (p *Physical) Network() *topology.Network { return p.net }

// InterferencePower returns the interference power that link from's
// transmitter deposits at link at's receiver.
func (p *Physical) InterferencePower(from, at topology.LinkID) float64 {
	if from < 0 || int(from) >= len(p.interf) || at < 0 || int(at) >= len(p.interf) || from == at {
		return 0
	}
	return p.interf[from][at]
}

// MaxRate implements Model.
func (p *Physical) MaxRate(link topology.LinkID, concurrent []Couple) radio.Rate {
	if int(link) >= len(p.signal) || link < 0 {
		return 0
	}
	self, err := p.net.Link(link)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, c := range concurrent {
		if c.Link == link {
			continue
		}
		other, err := p.net.Link(c.Link)
		if err != nil {
			return 0
		}
		if SharesNode(self, other) {
			return 0
		}
		total += p.interf[c.Link][link]
	}
	r, ok := p.net.Profile().MaxRate(p.signal[link], total)
	if !ok {
		return 0
	}
	return r
}

// Rates implements Model: the rates the link supports alone are every
// profile rate at or below its distance-limited maximum.
func (p *Physical) Rates(link topology.LinkID) []radio.Rate {
	l, err := p.net.Link(link)
	if err != nil {
		return nil
	}
	var out []radio.Rate
	for _, r := range p.net.Profile().Rates() {
		if r <= l.MaxRate {
			out = append(out, r)
		}
	}
	return out
}

// MinPositiveRate returns the smallest positive rate the link may use
// (the weakest couple it can ever join an independent set with), or 0
// when it is unusable. Equivalent to the last positive entry of Rates
// without materializing the slice.
func (p *Physical) MinPositiveRate(link topology.LinkID) radio.Rate {
	l, err := p.net.Link(link)
	if err != nil {
		return 0
	}
	prof := p.net.Profile()
	var min radio.Rate
	for i := 0; i < prof.NumClasses(); i++ {
		if r := prof.Class(i).Rate; r > 0 && r <= l.MaxRate {
			min = r // descending: the last hit is the smallest
		}
	}
	return min
}

// AloneMaxRate returns the highest rate the link may use alone, or 0
// when it is unusable. Equivalent to the first entry of Rates without
// materializing the slice; conflict.AloneMaxRate calls it.
func (p *Physical) AloneMaxRate(link topology.LinkID) radio.Rate {
	l, err := p.net.Link(link)
	if err != nil {
		return 0
	}
	prof := p.net.Profile()
	for i := 0; i < prof.NumClasses(); i++ {
		if r := prof.Class(i).Rate; r <= l.MaxRate {
			return r // descending: the first hit is the largest
		}
	}
	return 0
}

// SetTables is the read-only per-universe precomputation that
// SetTrackers walk over: interference rows, SINR ceilings, and
// node-sharing and pairwise-compatibility masks. One enumeration builds it
// once and its walker's tracker reads it; it is never written after
// NewSetTables, so any number of trackers may share it.
//
// Positions index into the universe passed to NewSetTables. Duplicate
// positions of one link ignore each other, like MaxRate ignores couples
// on the queried link itself; unresolvable link IDs never support any
// rate.
type SetTables struct {
	n  int
	nc int // profile classes
	w  int // mask words per position, ⌈n/64⌉ (at least 1)
	// interf[from*n+at] is the interference power from's transmitter
	// deposits at at's receiver, 0 on the diagonal.
	interf []float64
	// Position i's classes, in the profile's descending rate order, sit
	// at [i*nc, (i+1)*nc) of ceil and rate: each class's SINR ceiling
	// (sinrCeiling) and the rate it reports, or ceiling -Inf and rate 0
	// for a class i never decodes.
	ceil []float64
	rate []radio.Rate
	// keep[i*nc+k] is the largest interference power under which
	// position i still sustains class k's rate: the highest ceiling
	// among the classes reporting that rate or more.
	keep []float64
	// free and compat hold one w-word row per position. Bit b of free
	// row a is set unless a and b share a node (half-duplex; never a
	// duplicate of a's own link ID). Bit b of compat row a is set
	// unless they share a node or the pair alone silences one of them
	// (rateAt(a, interf[b*n+a]) or rateAt(b, interf[a*n+b]) is 0).
	// Interference sums of non-negative powers never fall below any
	// one term and rateAt never rises with interference, so no set
	// holding an incompatible pair has all its members transmitting.
	free, compat []uint64
}

// NewSetTables builds the tables over the given universe.
func (p *Physical) NewSetTables(universe []topology.LinkID) *SetTables {
	n := len(universe)
	prof := p.net.Profile()
	nc := prof.NumClasses()
	w := max(1, (n+63)/64)
	links := make([]topology.Link, n)
	valid := make([]bool, n)
	for i, id := range universe {
		l, err := p.net.Link(id)
		links[i], valid[i] = l, err == nil
	}
	// A few flat arrays keep the per-enumeration allocation count
	// constant instead of O(n).
	fback := make([]float64, n*n+2*n*nc)
	rows := make([]uint64, 2*n*w)
	s := &SetTables{
		n:      n,
		nc:     nc,
		w:      w,
		interf: fback[:n*n],
		ceil:   fback[n*n : n*n+n*nc],
		keep:   fback[n*n+n*nc:],
		rate:   make([]radio.Rate, n*nc),
		free:   rows[:n*w],
		compat: rows[n*w:],
	}
	for i, id := range universe {
		for k := 0; k < nc; k++ {
			c, rate := math.Inf(-1), radio.Rate(0)
			if valid[i] {
				c, rate = p.ceil[int(id)*nc+k], prof.Class(k).Rate
			}
			s.ceil[i*nc+k], s.rate[i*nc+k] = c, rate
		}
		// A class i never decodes is never chosen, so its keep is unread.
		for k := 0; k < nc; k++ {
			s.keep[i*nc+k] = s.Ceiling(i, s.rate[i*nc+k])
		}
	}
	for a, ida := range universe {
		for b, idb := range universe {
			s.interf[a*n+b] = p.InterferencePower(ida, idb)
		}
	}
	// Both relations are symmetric, so one triangle of pairs, the
	// diagonal included, fills both rows of each pair.
	for a := range universe {
		for b := a; b < n; b++ {
			if universe[a] != universe[b] && valid[a] && valid[b] && SharesNode(links[a], links[b]) {
				continue
			}
			s.free[a*w+b>>6] |= 1 << (b & 63)
			s.free[b*w+a>>6] |= 1 << (a & 63)
			if s.rateAt(a, s.interf[b*n+a]) > 0 && s.rateAt(b, s.interf[a*n+b]) > 0 {
				s.compat[a*w+b>>6] |= 1 << (b & 63)
				s.compat[b*w+a>>6] |= 1 << (a & 63)
			}
		}
	}
	return s
}

// class returns the index into ceil, rate and keep of the class
// position i transmits at under the given interference power: its
// first class whose ceiling the power does not exceed, or -1.
func (s *SetTables) class(i int, interference float64) int {
	base := i * s.nc
	for k, c := range s.ceil[base : base+s.nc] {
		if interference <= c {
			return base + k
		}
	}
	return -1
}

// rateAt returns the highest rate position i sustains under the given
// interference power, or 0.
func (s *SetTables) rateAt(i int, interference float64) radio.Rate {
	if k := s.class(i, interference); k >= 0 {
		return s.rate[k]
	}
	return 0
}

// Ceiling returns, for a rate r > 0, the largest interference power
// under which position i sustains r or more (an unblocked position's
// MaxRate is at least r exactly when its interference is at most the
// ceiling), or -Inf when it never does: the highest ceiling among i's
// classes reporting r or more.
func (s *SetTables) Ceiling(i int, r radio.Rate) float64 {
	c := math.Inf(-1)
	for k := i * s.nc; k < (i+1)*s.nc; k++ {
		if s.rate[k] >= r {
			c = max(c, s.ceil[k])
		}
	}
	return c
}

// SetTracker incrementally evaluates maximum supported rates of a
// growing and shrinking concurrent transmission set over a fixed link
// universe. Because transmit powers are fixed, the interference power a
// set deposits at each receiver is a plain sum over its members
// (Eq. 3), so a DFS over subsets can maintain one running sum per
// receiver across Push/Pop instead of recomputing the O(L^2) total at
// every node. Enumeration (internal/indepset) drives this.
//
// Push order defines the summation order, matching MaxRate's couple
// order, so the tracker is bit-for-bit consistent with the
// non-incremental path. A tracker is one walker's DFS state over
// read-only SetTables.
type SetTracker struct {
	s *SetTables
	// levels holds level d (n sums, the interference from the first d
	// members) at levels[d*n:]; sums is the current depth's level.
	levels, sums []float64
	// Depth d's w-word masks sit at [d*w, (d+1)*w): free holds the
	// positions sharing a node with no member (the AND of the members'
	// free rows), open the non-members compatible with every member
	// (Open).
	free, open []uint64
	members    []int
}

// NewTracker returns a tracker with an empty member set over s.
func (s *SetTables) NewTracker() *SetTracker {
	n, w := s.n, s.w
	masks := make([]uint64, 2*(n+1)*w)
	t := &SetTracker{
		s:       s,
		levels:  make([]float64, (n+1)*n),
		free:    masks[:(n+1)*w],
		open:    masks[(n+1)*w:],
		members: make([]int, 0, n),
	}
	t.sums = t.levels[:n]
	for b := 0; b < n; b++ {
		t.free[b>>6] |= 1 << (b & 63)
		t.open[b>>6] |= 1 << (b & 63)
	}
	return t
}

// Push adds universe position i to the member set: the next depth's
// level is the current one plus i's interference row, added in one pass
// in the same order a fresh summation would use, and the next depth's
// masks are the current ones ANDed with i's rows, i leaving the open
// mask.
func (t *SetTracker) Push(i int) {
	d := len(t.members)
	n, w := t.s.n, t.s.w
	next := t.levels[(d+1)*n : (d+2)*n]
	cur := t.sums[:len(next)]
	row := t.s.interf[i*n : (i+1)*n]
	for j := range next {
		next[j] = cur[j] + row[j]
	}
	t.sums = next
	cf, nf, rf := t.free[d*w:(d+1)*w], t.free[(d+1)*w:(d+2)*w], t.s.free[i*w:(i+1)*w]
	co, no, ro := t.open[d*w:(d+1)*w], t.open[(d+1)*w:(d+2)*w], t.s.compat[i*w:(i+1)*w]
	for k := range nf {
		nf[k] = cf[k] & rf[k]
		no[k] = co[k] & ro[k]
	}
	no[i>>6] &^= 1 << (i & 63)
	t.members = append(t.members, i)
}

// Pop removes the most recently pushed member. It steps back to the
// previous depth's level and masks rather than subtracting, which
// keeps the sums bit-identical to a fresh summation in push order.
func (t *SetTracker) Pop() {
	d := len(t.members) - 1
	t.members = t.members[:d]
	t.sums = t.levels[d*t.s.n : (d+1)*t.s.n]
}

// blocked reports whether some member shares a node with position i.
func (t *SetTracker) blocked(i int) bool {
	d := len(t.members)
	return t.free[d*t.s.w+i>>6]&(1<<(i&63)) == 0
}

// Open returns the current open mask, ⌈n/64⌉ words (at least one) with
// bit p of word p/64 for position p: the non-members compatible with
// every member. A position outside it cannot join the members with
// everyone transmitting: the pair alone with some member already
// blocks or silences one of the two. The slice stays valid, and
// unchanged, until this depth is popped.
func (t *SetTracker) Open() []uint64 {
	d := len(t.members)
	return t.open[d*t.s.w : (d+1)*t.s.w]
}

// MaxRate returns the maximum rate universe position i sustains
// alongside the current members (i's own membership is ignored), or 0
// when it is half-duplex blocked or no rate's SINR survives.
func (t *SetTracker) MaxRate(i int) radio.Rate {
	if t.blocked(i) {
		return 0
	}
	return t.s.rateAt(i, t.sums[i])
}

// MemberRates writes each member's MaxRate and keep ceiling into
// rates and keeps, in push order, and reports whether every member
// transmits; it stops at the first silenced member. A member's keep
// ceiling is the largest interference power at its receiver under
// which it keeps that rate, so it keeps its rate as more links join
// exactly while JoinedLevel stays at most the ceiling.
func (t *SetTracker) MemberRates(rates []radio.Rate, keeps []float64) bool {
	s, d := t.s, len(t.members)
	free := t.free[d*s.w : (d+1)*s.w]
	for m, i := range t.members {
		if free[i>>6]&(1<<(i&63)) == 0 {
			return false
		}
		k := s.class(i, t.sums[i])
		if k < 0 {
			return false
		}
		rates[m], keeps[m] = s.rate[k], s.keep[k]
	}
	return true
}

// Level returns the interference power the members deposit at position
// i's receiver.
func (t *SetTracker) Level(i int) float64 { return t.sums[i] }

// JoinedLevel returns the interference power at position i's receiver
// if position j (not a member) transmitted alongside the members.
func (t *SetTracker) JoinedLevel(i, j int) float64 { return t.sums[i] + t.s.interf[j*t.s.n+i] }
