package indepset

import (
	"context"
	"math/bits"
	"sync"

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
// count; at W = 1 each mask operation is a single word. The clear
// table is built once and shared read-only, each worker owning only
// its avail/member stacks; see parallel.go for the walks and their
// partition.

// pairwiseEnum is the read-only state shared by every worker of one
// pairwise enumeration: the universe, its declared positive rates, and
// the precomputed clear table.
//
// The clear table is stored by column: the couple (universe[j],
// rates[j][rj]) owns the n·W words at col[j] + rj·n·W, whose row i
// (words i·W … i·W+W-1) is the mask of link i's rates clearing that
// couple. The diagonal rows are all-ones: a link never constrains
// itself (MaxRate ignores couples on the queried link). Pushing a
// couple is then one AND of its column into the avail rows.
type pairwiseEnum struct {
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the Enumerate call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	rates    [][]radio.Rate
	clear    []uint64
	col      []int
	n, w     int
	nw       int // n·W, one column's (and one avail snapshot's) length
	budget   *budget
}

// newPairwiseEnum collects each link's positive declared rates,
// preserving the model's descending order (non-positive rates can never
// appear in a feasible couple), and builds the clear table.
func newPairwiseEnum(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, budget *budget) *pairwiseEnum {
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
	e := &pairwiseEnum{
		ctx:      ctx,
		universe: universe,
		rates:    rates,
		clear:    make([]uint64, len(slab)*n*W),
		col:      make([]int, n),
		n:        n,
		w:        W,
		nw:       n * W,
		budget:   budget,
	}
	off := 0
	for j := range rates {
		e.col[j] = off
		for _, rate := range rates[j] {
			column := e.clear[off : off+n*W]
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
	return e
}

// column returns the offset of the couple (universe[j], rates[j][rj])'s
// clear-table column.
func (e *pairwiseEnum) column(j, rj int) int { return e.col[j] + rj*e.nw }

func (e *pairwiseEnum) hasRate(p int) bool { return len(e.rates[p]) > 0 }

func (e *pairwiseEnum) newWalker() walker { return newPairwiseWorker(e) }

type pairMember struct {
	pos int
	ri  int
	row int // pos·W: offset of the member's row in avail and in every column
	col int // offset of the member couple's clear-table column
}

// pairwiseWorker owns the mutable DFS state of one worker: the
// per-link masks of rates still clearing every member (n rows of W
// words), their per-depth snapshots, the member stack, and the output
// family. The buffers come from a package-level pool (pairScratchPool)
// so repeated enumerations reuse them instead of reallocating the
// n·W + n²·W words per worker.
type pairwiseWorker struct {
	e        *pairwiseEnum
	chk      *cancel.Checker // nil for uncancellable contexts (zero cost)
	scratch  *pairScratch
	avail    []uint64 // n·W: rates of each link clearing every member
	saved    []uint64 // n·n·W: avail snapshot per depth
	members  []pairMember
	isMember []bool
	out      []Set
}

// pairScratch holds one worker's reusable buffers. Pooled globally:
// sizes are re-sliced (or grown) to the current n and W on checkout,
// and the walk's push/pop discipline guarantees members is empty and
// isMember all-false at release, so only avail needs re-initializing.
type pairScratch struct {
	avail    []uint64
	saved    []uint64
	members  []pairMember
	isMember []bool
}

var pairScratchPool = sync.Pool{New: func() any { return new(pairScratch) }}

func (s *pairScratch) grow(n, w int) {
	if cap(s.avail) < n*w {
		s.avail = make([]uint64, n*w)
	}
	s.avail = s.avail[:n*w]
	if cap(s.saved) < n*n*w {
		s.saved = make([]uint64, n*n*w)
	}
	s.saved = s.saved[:n*n*w]
	if cap(s.members) < n {
		s.members = make([]pairMember, 0, n)
	}
	s.members = s.members[:0]
	if cap(s.isMember) < n {
		s.isMember = make([]bool, n)
	}
	s.isMember = s.isMember[:n]
	clear(s.isMember)
}

func newPairwiseWorker(e *pairwiseEnum) *pairwiseWorker {
	s := pairScratchPool.Get().(*pairScratch)
	s.grow(e.n, e.w)
	clear(s.avail)
	for i, rs := range e.rates {
		for ri := range rs {
			s.avail[i*e.w+ri>>6] |= 1 << uint(ri&63)
		}
	}
	return &pairwiseWorker{
		e:        e,
		chk:      cancel.NewChecker(e.ctx, 0),
		scratch:  s,
		avail:    s.avail,
		saved:    s.saved,
		members:  s.members,
		isMember: s.isMember,
	}
}

// family returns the worker's scratch to the pool and its sets. The
// worker must not be used afterwards; the sets stay valid (they never
// alias the scratch).
func (w *pairwiseWorker) family() []Set {
	if w.scratch != nil {
		w.scratch.members = w.members[:0]
		pairScratchPool.Put(w.scratch)
		w.scratch = nil
		w.avail, w.saved, w.members, w.isMember = nil, nil, nil, nil
	}
	return w.out
}

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
// worker state is unchanged.
func (w *pairwiseWorker) push(idx, ri int) bool {
	e := w.e
	W, nw, avail, clear := e.w, e.nw, w.avail, e.clear
	row := idx * W
	if lowest(avail, row, avail, row, W) > ri {
		return false
	}
	col := e.column(idx, ri)
	for ii := range w.members {
		a := &w.members[ii]
		if lowest(avail, a.row, clear, col+a.row, W) > a.ri {
			return false
		}
	}
	d := len(w.members)
	copy(w.saved[d*nw:(d+1)*nw], avail)
	c := clear[col : col+nw]
	avail = avail[:len(c)]
	for k := range avail {
		avail[k] &= c[k]
	}
	w.members = append(w.members, pairMember{pos: idx, ri: ri, row: row, col: col})
	w.isMember[idx] = true
	return true
}

func (w *pairwiseWorker) pop() {
	d := len(w.members) - 1
	w.isMember[w.members[d].pos] = false
	w.members = w.members[:d]
	nw := w.e.nw
	copy(w.avail, w.saved[d*nw:(d+1)*nw])
}

// maximal reports whether the current full assignment is maximal.
func (w *pairwiseWorker) maximal() bool {
	e := w.e
	W, avail, clear, members := e.w, w.avail, e.clear, w.members
	// Rate-maximality: some member could be raised to a higher
	// declared rate with every other member keeping its rate.
	for ii := range members {
		a := &members[ii]
		// The member itself sustains a raise to index rj exactly when
		// some still-clearing rate is at least rates[a.pos][rj], i.e.
		// rj is at or below the best clearing rate.
		for rj := lowest(avail, a.row, avail, a.row, W); rj < a.ri; rj++ {
			raised := e.column(a.pos, rj)
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
	for j := 0; j < e.n; j++ {
		if w.isMember[j] {
			continue
		}
		row := j * W
		for rj := lowest(avail, row, avail, row, W); rj < len(e.rates[j]); rj++ {
			col := e.column(j, rj)
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
func (w *pairwiseWorker) visitLeaf() error {
	if !w.e.budget.take() {
		return ErrLimit
	}
	if w.maximal() {
		couples := make([]conflict.Couple, 0, len(w.members))
		for d := range w.members {
			a := &w.members[d]
			couples = append(couples, conflict.Couple{Link: w.e.universe[a.pos], Rate: w.e.rates[a.pos][a.ri]})
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
func (w *pairwiseWorker) runWalk(wk walk) error {
	return w.include(wk.lpos, 0, wk.order)
}

// runTask runs, at every rate of wk's link, the leaf that excludes
// every branch position (branch < 0), or the assignments whose first
// included branch position is wk.order[branch]. Together the tasks
// cover runWalk(wk)'s leaves exactly once.
func (w *pairwiseWorker) runTask(wk walk, branch int) error {
	if branch < 0 {
		return w.runWalk(walk{lpos: wk.lpos})
	}
	for ri := range w.e.rates[wk.lpos] {
		if !w.push(wk.lpos, ri) {
			continue
		}
		err := w.include(wk.order[branch], branch+1, wk.order)
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}

// rec walks every complete assignment of the positions order[oi:] on
// top of the current members: exclude order[oi], then include it.
func (w *pairwiseWorker) rec(oi int, order []int) error {
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
func (w *pairwiseWorker) include(idx, oi int, order []int) error {
	for ri := range w.e.rates[idx] {
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
