package indepset

import (
	"context"
	"math"
	"math/bits"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// The physical walk explores link subsets; under the physical model
// the maximum supported rate vector is a function of membership, and
// interference only grows with additions, so infeasible subsets prune
// their supersets. Rate-maximality is automatic (every member already
// carries its maximum supported rate), and link-maximality is decided
// at each node from the tracker's running interference sums: an outside
// link joins exactly when it sustains some positive declared rate and
// lowers no member's rate. The tracker's open mask (the positions
// compatible with every member, conflict.SetTables) skips in O(1) the
// branches whose first visit would find a member silenced and the
// joiners that could not join. Each worker walks with a private
// SetTracker over the enumeration's shared SetTables; see parallel.go
// for the walks and their partition.

// physicalEnum is the read-only state shared by every worker of one
// physical enumeration.
type physicalEnum struct {
	m *conflict.Physical
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the Enumerate call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	tables   *conflict.SetTables
	minRate  []radio.Rate
	// joinCeil[p] is the largest interference under which position p
	// sustains its lowest positive declared rate, -Inf without one.
	joinCeil []float64
	n        int
	budget   *budget
}

// newPhysicalEnum records minRate[i], the lowest positive declared
// rate of universe[i]: the weakest couple it could join a set with,
// and the interference ceiling under which it does. Links with no
// positive declared rate can never join (nor appear).
func newPhysicalEnum(ctx context.Context, m *conflict.Physical, universe []topology.LinkID, budget *budget) *physicalEnum {
	e := &physicalEnum{
		m:        m,
		ctx:      ctx,
		universe: universe,
		tables:   m.NewSetTables(universe),
		minRate:  make([]radio.Rate, len(universe)),
		joinCeil: make([]float64, len(universe)),
		n:        len(universe),
		budget:   budget,
	}
	for i, l := range universe {
		e.minRate[i] = m.MinPositiveRate(l)
		e.joinCeil[i] = math.Inf(-1)
		if e.hasRate(i) {
			e.joinCeil[i] = e.tables.Ceiling(i, e.minRate[i])
		}
	}
	return e
}

//lint:ignore abw/floateq Rate 0 is the exact no-declared-rate sentinel, never a computed float
func (e *physicalEnum) hasRate(p int) bool { return e.minRate[p] != 0 }

func (e *physicalEnum) newWalker() walker { return newPhysicalWorker(e) }

// physicalWorker owns the mutable DFS state of one worker: an
// incremental SetTracker plus the member stack and output family.
type physicalWorker struct {
	e       *physicalEnum
	tr      *conflict.SetTracker
	chk     *cancel.Checker // nil for uncancellable contexts (zero cost)
	members []int
	rateBuf []radio.Rate
	keepBuf []float64         // members' keep ceilings (SetTracker.MemberRates)
	arena   []conflict.Couple // chunked backing for materialized sets
	out     []Set
}

func newPhysicalWorker(e *physicalEnum) *physicalWorker {
	return &physicalWorker{
		e:       e,
		tr:      e.tables.NewTracker(),
		chk:     cancel.NewChecker(e.ctx, 0),
		members: make([]int, 0, e.n),
		rateBuf: make([]radio.Rate, e.n),
		keepBuf: make([]float64, e.n),
	}
}

func (w *physicalWorker) push(i int) {
	w.tr.Push(i)
	w.members = append(w.members, i)
}

func (w *physicalWorker) pop() {
	w.members = w.members[:len(w.members)-1]
	w.tr.Pop()
}

// opens reports whether position p is in the open mask: outside it,
// p's push would only be visited to find a member silenced.
func opens(open []uint64, p int) bool { return open[p>>6]&(1<<(p&63)) != 0 }

func (w *physicalWorker) family() []Set { return w.out }

// runWalk pushes wk's link and walks every subset of its order under it.
func (w *physicalWorker) runWalk(wk walk) error {
	w.push(wk.lpos)
	err := w.rec(0, wk.order)
	w.pop()
	return err
}

// runTask runs the leaf {wk's link} alone (branch < 0), or, under that
// link, the walk of wk.order[branch] over the positions after it. A
// subtree under an infeasible leaf prunes at its first visit, exactly
// like the sequential walk never descending past it, and a branch
// outside the leaf's open mask is skipped like rec skips it.
func (w *physicalWorker) runTask(wk walk, branch int) error {
	if branch < 0 {
		return w.runWalk(walk{lpos: wk.lpos})
	}
	w.push(wk.lpos)
	var err error
	if p := wk.order[branch]; opens(w.tr.Open(), p) {
		err = w.runWalk(walk{lpos: p, order: wk.order[branch+1:]})
	}
	w.pop()
	return err
}

// rec visits the current member set, then branches over order[oi:].
// Visiting each node prunes natively: a branch dies the moment any
// member is silenced, and interference only grows with further members.
// Branches outside the open mask are not pushed at all: their visit
// would find a member silenced before charging the budget.
func (w *physicalWorker) rec(oi int, order []int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	ok, err := w.visit()
	if !ok || err != nil {
		return err
	}
	open := w.tr.Open()
	for k := oi; k < len(order); k++ {
		if !opens(open, order[k]) {
			continue
		}
		w.push(order[k])
		err := w.rec(k+1, order)
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}

// visit charges the budget for the current member set and records it
// when maximal. ok=false prunes the subtree: some member is silenced.
// Feasibility, budget and maximality are member-order-independent
// (tracker sums and the open mask); members sit in branch order,
// which a delta walk does not keep ascending, so materialization
// re-establishes the canonical ascending-position couple order by
// insertion-sorting the freshly appended couples (a no-op pass in the
// full walk; member counts are small).
func (w *physicalWorker) visit() (ok bool, err error) {
	e := w.e
	if !w.tr.MemberRates(w.rateBuf, w.keepBuf) {
		return false, nil
	}
	if !e.budget.take() {
		return false, ErrLimit
	}
	if physicalMaximal(w.tr, w.members, w.keepBuf, e.joinCeil) {
		if cap(w.arena)-len(w.arena) < len(w.members) {
			w.arena = make([]conflict.Couple, 0, 16*e.n)
		}
		base := len(w.arena)
		for d, mi := range w.members {
			w.arena = append(w.arena, conflict.Couple{Link: e.universe[mi], Rate: w.rateBuf[d]})
			for k := len(w.arena) - 1; k > base && w.arena[k-1].Link > w.arena[k].Link; k-- {
				w.arena[k-1], w.arena[k] = w.arena[k], w.arena[k-1]
			}
		}
		couples := w.arena[base:len(w.arena):len(w.arena)]
		w.out = append(w.out, Set{Couples: couples})
	}
	return true, nil
}

// physicalMaximal reports link-maximality of the tracker's current
// member set (the members' rate ceilings in keep): no outside link may
// join at any positive declared rate while every member keeps its
// rate. Under the physical model a joining link can only lower member
// rates, so "keeps" means the interference with the joiner's added
// stays within the member's ceiling. Only the open mask's positions
// are tried: a position outside it is a member, or is blocked or
// silenced by some member, or silences one alone.
func physicalMaximal(tr *conflict.SetTracker, members []int, keep, joinCeil []float64) bool {
	for wi, word := range tr.Open() {
		for ; word != 0; word &= word - 1 {
			j := wi<<6 | bits.TrailingZeros64(word)
			if tr.Level(j) > joinCeil[j] {
				continue // no declared rate survives (or none exists)
			}
			// j is open, so no member shares a node with it.
			joins := true
			for d, mi := range members {
				if tr.JoinedLevel(mi, j) > keep[d] {
					joins = false
					break
				}
			}
			if joins {
				return false
			}
		}
	}
	return true
}
