package indepset

import (
	"context"
	"math/bits"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// The pairwise walk explores (link, rate) couple assignments for
// models whose feasibility decomposes pairwise. It maintains, for
// every universe link, a mask of the declared rates that still clear
// every current member (bit k = k-th declared rate, descending), so
// adding a couple only checks the new couple against current members,
// and leaf maximality is a handful of mask intersections instead of
// from-scratch feasibility calls. Every mask is W consecutive words,
// W = ⌈max declared rates per link / 64⌉, so one walk serves any rate
// count; at W = 1 each mask operation is a single word.

// pairwiseWalker is the state of one pairwise enumeration: the
// universe, its declared positive rates and the precomputed clear
// table, plus the DFS state — the per-link masks of rates still
// clearing every member (n rows of W words), their per-depth
// snapshots, the member stack — and the output family.
//
// The clear table is stored by column: the couple (universe[j],
// rates[j][rj]) owns the n·W words at col[j] + rj·n·W, whose row i
// (words i·W … i·W+W-1) is the mask of link i's rates clearing that
// couple. The diagonal rows are all-ones: a link never constrains
// itself (MaxRate ignores couples on the queried link). Pushing a
// couple is then one AND of its column into the avail rows.
type pairwiseWalker struct {
	universe []topology.LinkID
	rates    [][]radio.Rate
	clear    []uint64
	col      []int
	n, w     int
	nw       int // n·W, one column's (and one avail snapshot's) length
	budget   *budget
	chk      *cancel.Checker // nil for uncancellable contexts (zero cost)
	avail    []uint64        // n·W: rates of each link clearing every member
	saved    []uint64        // avail snapshot per depth, n·W words each
	members  []pairMember
	isMember []bool
	out      []Set
}

type pairMember struct {
	pos int
	ri  int
	row int // pos·W: offset of the member's row in avail and in every column
	col int // offset of the member couple's clear-table column
}

// newPairwiseWalker collects each link's positive declared rates,
// preserving the model's descending order (non-positive rates can
// never appear in a feasible couple), and builds the clear table.
func newPairwiseWalker(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, budget *budget) *pairwiseWalker {
	n := len(universe)
	total := 0
	for _, l := range universe {
		total += len(m.Rates(l))
	}
	// The per-link rate slices share one backing slab.
	slab := make([]radio.Rate, 0, total)
	rates := make([][]radio.Rate, n)
	maxRates := 0
	for i, l := range universe {
		start := len(slab)
		for _, r := range m.Rates(l) {
			if r > 0 {
				slab = append(slab, r)
			}
		}
		rates[i] = slab[start:len(slab):len(slab)]
		maxRates = max(maxRates, len(rates[i]))
	}
	W := max(1, (maxRates+63)/64)
	w := &pairwiseWalker{
		universe: universe,
		rates:    rates,
		clear:    make([]uint64, len(slab)*n*W),
		col:      make([]int, n),
		n:        n,
		w:        W,
		nw:       n * W,
		budget:   budget,
		chk:      cancel.NewChecker(ctx, 0),
		avail:    make([]uint64, n*W),
		members:  make([]pairMember, 0, n),
		isMember: make([]bool, n),
	}
	off := 0
	for j := range rates {
		w.col[j] = off
		for _, rate := range rates[j] {
			column := w.clear[off : off+n*W]
			off += n * W
			other := conflict.Couple{Link: universe[j], Rate: rate}
			for i := range rates {
				row := column[i*W : (i+1)*W]
				if i == j {
					for k := range row {
						row[k] = ^uint64(0)
					}
					continue
				}
				for ri, r := range rates[i] {
					if m.RateClears(universe[i], r, other) {
						row[ri>>6] |= 1 << uint(ri&63)
					}
				}
			}
		}
	}
	for i, rs := range rates {
		for ri := range rs {
			w.avail[i*W+ri>>6] |= 1 << uint(ri&63)
		}
	}
	return w
}

// column returns the offset of the couple (universe[j], rates[j][rj])'s
// clear-table column.
func (w *pairwiseWalker) column(j, rj int) int { return w.col[j] + rj*w.nw }

func (w *pairwiseWalker) hasRate(p int) bool { return len(w.rates[p]) > 0 }

func (w *pairwiseWalker) family() []Set { return w.out }

// lowest returns the index of the lowest bit set in both W-word masks
// a[i:i+W] and b[j:j+W] — the fastest declared rate in both — or a
// sentinel past any declared rate index when they share none.
func lowest(a []uint64, i int, b []uint64, j, W int) int {
	if W == 1 {
		return bits.TrailingZeros64(a[i] & b[j])
	}
	for k := 0; k < W; k++ {
		if m := a[i+k] & b[j+k]; m != 0 {
			return k<<6 + bits.TrailingZeros64(m)
		}
	}
	return W << 6
}

// push includes (universe[idx], rates[idx][ri]) when that keeps the
// partial set feasible: the new couple must be sustainable against the
// members (some clearing rate at or above it, i.e. a clearing rate
// index at most ri) and every member must retain a clearing rate at or
// above its own. It reports whether the couple was pushed; on false the
// walker state is unchanged.
func (w *pairwiseWalker) push(idx, ri int) bool {
	W, nw, avail, clear := w.w, w.nw, w.avail, w.clear
	row := idx * W
	if lowest(avail, row, avail, row, W) > ri {
		return false
	}
	col := w.column(idx, ri)
	for ii := range w.members {
		a := &w.members[ii]
		if lowest(avail, a.row, clear, col+a.row, W) > a.ri {
			return false
		}
	}
	w.saved = append(w.saved, avail...)
	c := clear[col : col+nw]
	avail = avail[:len(c)]
	for k := range avail {
		avail[k] &= c[k]
	}
	w.members = append(w.members, pairMember{pos: idx, ri: ri, row: row, col: col})
	w.isMember[idx] = true
	return true
}

func (w *pairwiseWalker) pop() {
	d := len(w.members) - 1
	w.isMember[w.members[d].pos] = false
	w.members = w.members[:d]
	copy(w.avail, w.saved[d*w.nw:])
	w.saved = w.saved[:d*w.nw]
}

// maximal reports whether the current full assignment is maximal.
func (w *pairwiseWalker) maximal() bool {
	W, avail, clear, members := w.w, w.avail, w.clear, w.members
	// Rate-maximality: some member could be raised to a higher
	// declared rate with every other member keeping its rate.
	for ii := range members {
		a := &members[ii]
		// The member itself sustains a raise to index rj exactly when
		// some still-clearing rate is at least rates[a.pos][rj], i.e.
		// rj is at or below the best clearing rate.
		for rj := lowest(avail, a.row, avail, a.row, W); rj < a.ri; rj++ {
			raised := w.column(a.pos, rj)
			ok := true
			for jj := range members {
				if jj == ii {
					continue
				}
				b := &members[jj]
				// b's rates clearing every member except a, plus a at
				// its raised rate, must still reach b's own: the lowest
				// such rate index is at most b.ri.
				keeps := false
				for k := 0; k <= b.ri>>6 && !keeps; k++ {
					at := b.row + k
					mask := clear[raised+at]
					for kk := range members {
						if kk != ii && kk != jj {
							mask &= clear[members[kk].col+at]
						}
					}
					keeps = mask != 0 && k<<6+bits.TrailingZeros64(mask) <= b.ri
				}
				if !keeps {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
	}
	// Link-maximality: some outside link could join at a declared
	// rate with every member keeping its rate.
	for j := 0; j < w.n; j++ {
		if w.isMember[j] {
			continue
		}
		row := j * W
		for rj := lowest(avail, row, avail, row, W); rj < len(w.rates[j]); rj++ {
			col := w.column(j, rj)
			ok := true
			for ii := range members {
				a := &members[ii]
				if lowest(avail, a.row, clear, col+a.row, W) > a.ri {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
	}
	return true
}

// visitLeaf charges the budget for the current full assignment and
// records it when maximal. Members sit in branch order, which the delta
// walk does not keep ascending; the budget charge and the maximality
// check are member-order-independent (mask intersections and the
// isMember table), so only materialization re-establishes the
// canonical ascending-link couple order, by insertion-sorting the
// freshly built couples (a no-op pass in the full walk).
func (w *pairwiseWalker) visitLeaf() error {
	if !w.budget.take() {
		return ErrLimit
	}
	if w.maximal() {
		couples := make([]conflict.Couple, 0, len(w.members))
		for d := range w.members {
			a := &w.members[d]
			couples = append(couples, conflict.Couple{Link: w.universe[a.pos], Rate: w.rates[a.pos][a.ri]})
			for k := len(couples) - 1; k > 0 && couples[k-1].Link > couples[k].Link; k-- {
				couples[k-1], couples[k] = couples[k], couples[k-1]
			}
		}
		w.out = append(w.out, Set{Couples: couples})
	}
	return nil
}

// runWalk walks every complete assignment of wk's order under wk's
// link, at each of its rates.
func (w *pairwiseWalker) runWalk(wk walk) error {
	return w.include(wk.lpos, 0, wk.order)
}

// rec walks every complete assignment of the positions order[oi:] on
// top of the current members: exclude order[oi], then include it.
func (w *pairwiseWalker) rec(oi int, order []int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	if oi == len(order) {
		return w.visitLeaf()
	}
	if err := w.rec(oi+1, order); err != nil {
		return err
	}
	return w.include(order[oi], oi+1, order)
}

// include pushes position idx at each rate that keeps the partial set
// feasible and walks order[oi:] under it.
func (w *pairwiseWalker) include(idx, oi int, order []int) error {
	for ri := range w.rates[idx] {
		if !w.push(idx, ri) {
			continue
		}
		err := w.rec(oi, order)
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}
