package conflict

import (
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
	// pins, when non-nil, holds the usable links' pinned rates (Pin);
	// every other link is then unusable.
	pins map[topology.LinkID]radio.Rate
	// fp memoizes the canonical content fingerprint (fingerprint.go).
	fp fpMemo
}

var _ Model = (*Physical)(nil)

// NewPhysical builds a Physical model over the given network,
// precomputing all pairwise interference powers.
func NewPhysical(net *topology.Network) *Physical {
	nl := net.NumLinks()
	p := &Physical{
		net:    net,
		interf: make([][]float64, nl),
		signal: make([]float64, nl),
	}
	prof := net.Profile()
	links := net.Links()
	for j, lj := range links {
		p.signal[j] = prof.RxPower(lj.Dist)
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

// Pin returns the model with every listed link pinned to a single rate
// — the fixed rate assignment regime of paper Sec. 2.4 and 3.1 — sharing
// p's precomputed powers. A pinned link is usable iff p's rates include
// its pin, and then transmits at the pin exactly when p would sustain
// at least the pin; unlisted links support no rate at all. Duplicate
// links keep the last assignment.
func (p *Physical) Pin(assignment []Couple) *Physical {
	return &Physical{net: p.net, interf: p.interf, signal: p.signal, pins: usablePins(p, assignment)}
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

// SignalPower returns the received signal power at link's receiver.
func (p *Physical) SignalPower(link topology.LinkID) float64 {
	if link < 0 || int(link) >= len(p.signal) {
		return 0
	}
	return p.signal[link]
}

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
	if p.pins != nil {
		// Pinned: the pin when the unpinned maximum reaches it.
		if pin, ok := p.pins[link]; ok && r >= pin {
			return pin
		}
		return 0
	}
	return r
}

// Rates implements Model: the rates the link supports alone are every
// profile rate at or below its distance-limited maximum, or just the
// pin of a usable pinned link.
func (p *Physical) Rates(link topology.LinkID) []radio.Rate {
	if p.pins != nil {
		if pin, ok := p.pins[link]; ok {
			return []radio.Rate{pin}
		}
		return nil
	}
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
	if p.pins != nil {
		return p.pins[link]
	}
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
	if p.pins != nil {
		return p.pins[link]
	}
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

// MaxRateVector returns the maximum supported rate vector of a concurrent
// transmission set (paper Sec. 2.3): the i-th entry is the highest rate
// links[i] sustains while all the other listed links transmit. The
// second return is false if any link in the set cannot transmit at all
// (the set is not an independent set).
func (p *Physical) MaxRateVector(links []topology.LinkID) ([]radio.Rate, bool) {
	t := p.NewSetTracker(links)
	for i := range links {
		t.Push(i)
	}
	rates := make([]radio.Rate, len(links))
	ok := true
	for i := range links {
		rates[i] = t.MaxRate(i)
		if rates[i] == 0 {
			ok = false
		}
	}
	return rates, ok
}

// SetTracker incrementally evaluates maximum supported rates of a
// growing and shrinking concurrent transmission set over a fixed link
// universe. Because transmit powers are fixed, the interference power a
// set deposits at each receiver is a plain sum over its members
// (Eq. 3), so a DFS over subsets can maintain one running sum per
// receiver across Push/Pop instead of recomputing the O(L^2) total at
// every node. Enumeration (internal/indepset) drives this; MaxRateVector
// is the one-shot wrapper.
//
// Positions index into the universe passed to NewSetTracker. Push order
// defines the summation order, matching MaxRate's couple order, so the
// tracker is bit-for-bit consistent with the non-incremental path.
type SetTracker struct {
	noise float64
	n     int
	// Per universe position, in universe order:
	signal  []float64
	interf  [][]float64 // interf[from][at], 0 on the diagonal
	thr     [][]float64 // linear SINR thresholds of decodable classes, descending rate
	thrRate [][]radio.Rate
	// sharers lists, in CSR form, the positions each position shares a
	// node with (half-duplex; never a duplicate of its own link ID):
	// position i's list is sharers[off[i]:off[i+1]], in ascending order.
	off, sharers []int32
	// DFS state:
	levels  []float64 // level d (n sums, the interference from the first d members) at levels[d*n:]
	sums    []float64 // the current depth's level
	blocked []int     // members sharing a node with this position
	members []int
}

// NewSetTracker builds a tracker over the given universe with an empty
// member set. Unresolvable link IDs never support any rate. Under pins
// a position keeps only the classes at or above its pin, each reporting
// the pin, so MaxRate is the pin exactly when the unpinned maximum
// reaches it; an unusable pinned-model link keeps no class.
func (p *Physical) NewSetTracker(universe []topology.LinkID) *SetTracker {
	n := len(universe)
	prof := p.net.Profile()
	nc := prof.NumClasses()
	links := make([]topology.Link, n)
	valid := make([]bool, n)
	for i, id := range universe {
		l, err := p.net.Link(id)
		links[i], valid[i] = l, err == nil
	}
	// Duplicate positions of one link ignore each other, like MaxRate
	// ignores couples on the queried link itself. Sharing is symmetric,
	// so one triangle of pairs fills both positions' lists.
	shares := func(a, b int) bool {
		return universe[a] != universe[b] && valid[a] && valid[b] && SharesNode(links[a], links[b])
	}
	off := make([]int32, n+1)
	for a := range universe {
		for b := a + 1; b < n; b++ {
			if shares(a, b) {
				off[a+1]++
				off[b+1]++
			}
		}
	}
	for a := 0; a < n; a++ {
		off[a+1] += off[a]
	}
	// Flat backing arrays keep the per-enumeration allocation count
	// constant instead of O(n): interference rows, the n+1 levels,
	// thresholds and signals share one float array.
	fback := make([]float64, n*n+(n+1)*n+n*nc+n)
	hback := make([][]float64, 2*n)
	rback := make([]radio.Rate, n*nc)
	t := &SetTracker{
		noise:   prof.Noise(),
		n:       n,
		signal:  fback[n*n+(n+1)*n+n*nc:],
		interf:  hback[:n],
		thr:     hback[n:],
		thrRate: make([][]radio.Rate, n),
		off:     off,
		sharers: make([]int32, off[n]),
		levels:  fback[n*n : n*n+(n+1)*n],
		blocked: make([]int, n),
		members: make([]int, 0, n),
	}
	t.sums = t.levels[:n]
	tb := n*n + (n+1)*n // start of the threshold block
	for i, id := range universe {
		t.signal[i] = p.SignalPower(id)
		// Classes whose sensitivity the receiver meets; the SINR check is
		// the only interference-dependent part left for MaxRate.
		t.thr[i] = fback[tb+i*nc : tb+i*nc : tb+(i+1)*nc]
		t.thrRate[i] = rback[i*nc : i*nc : (i+1)*nc]
		pin, usable := p.pins[id]
		for k := 0; k < nc; k++ {
			c := prof.Class(k)
			rate := c.Rate
			if p.pins != nil {
				if !usable || rate < pin {
					continue
				}
				rate = pin
			}
			sens, _ := prof.Sensitivity(c.Rate)
			if valid[i] && t.signal[i] >= sens {
				sinr, _ := prof.SINRThreshold(c.Rate)
				t.thr[i] = append(t.thr[i], sinr)
				t.thrRate[i] = append(t.thrRate[i], rate)
			}
		}
	}
	for a, ida := range universe {
		t.interf[a] = fback[a*n : (a+1)*n]
		for b, idb := range universe {
			t.interf[a][b] = p.InterferencePower(ida, idb)
		}
	}
	// blocked is all zeros until the first Push; it serves as each
	// list's fill cursor meanwhile. Rows fill in ascending order, so
	// every list ends up ascending.
	fill := t.blocked
	for a := range universe {
		for b := a + 1; b < n; b++ {
			if shares(a, b) {
				t.sharers[int(off[a])+fill[a]] = int32(b)
				t.sharers[int(off[b])+fill[b]] = int32(a)
				fill[a]++
				fill[b]++
			}
		}
	}
	clear(fill)
	return t
}

// Push adds universe position i to the member set: the next depth's
// level is the current one plus i's interference row, added in one pass
// in the same order a fresh summation would use.
func (t *SetTracker) Push(i int) {
	d := len(t.members)
	n := t.n
	next := t.levels[(d+1)*n : (d+2)*n]
	cur := t.sums[:len(next)]
	row := t.interf[i][:len(next)]
	for j := range next {
		next[j] = cur[j] + row[j]
	}
	t.sums = next
	for _, j := range t.sharers[t.off[i]:t.off[i+1]] {
		t.blocked[j]++
	}
	t.members = append(t.members, i)
}

// Pop removes the most recently pushed member. It steps back to the
// previous depth's level rather than subtracting, which keeps the sums
// bit-identical to a fresh summation in push order.
func (t *SetTracker) Pop() {
	d := len(t.members) - 1
	i := t.members[d]
	t.members = t.members[:d]
	t.sums = t.levels[d*t.n : (d+1)*t.n]
	for _, j := range t.sharers[t.off[i]:t.off[i+1]] {
		t.blocked[j]--
	}
}

// Depth returns the number of members currently pushed.
func (t *SetTracker) Depth() int { return len(t.members) }

// MaxRate returns the maximum rate universe position i sustains
// alongside the current members (i's own membership is ignored), or 0
// when it is half-duplex blocked or no rate's SINR survives.
func (t *SetTracker) MaxRate(i int) radio.Rate {
	if t.blocked[i] > 0 {
		return 0
	}
	return t.rateAt(i, t.sums[i])
}

// MaxRateJoinedUnblocked returns the maximum rate member i would
// sustain if position j (not currently a member) also transmitted, for
// a joiner j that no member blocks (MaxRate(j) > 0, so blocked[j] is
// 0): no member, i included, then shares a node with j, so no sharer
// test is needed. Other arguments get no meaningful answer.
func (t *SetTracker) MaxRateJoinedUnblocked(i, j int) radio.Rate {
	if t.blocked[i] > 0 {
		return 0
	}
	return t.rateAt(i, t.sums[i]+t.interf[j][i])
}

func (t *SetTracker) rateAt(i int, interference float64) radio.Rate {
	sinr := t.signal[i] / (interference + t.noise)
	for k, thr := range t.thr[i] {
		if sinr >= thr {
			return t.thrRate[i][k]
		}
	}
	return 0
}
