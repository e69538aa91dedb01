package indepset

import (
	"context"

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
// lowers no member's rate. Each worker walks with a private SetTracker;
// see parallel.go for the walks and their partition.

// physicalEnum is the read-only state shared by every worker of one
// physical enumeration.
type physicalEnum struct {
	m *conflict.Physical
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the Enumerate call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	minRate  []radio.Rate
	n        int
	budget   *budget
}

// newPhysicalEnum records minRate[i], the lowest positive declared
// rate of universe[i]: the weakest couple it could join a set with.
// Links with no positive declared rate can never join (nor appear).
func newPhysicalEnum(ctx context.Context, m *conflict.Physical, universe []topology.LinkID, budget *budget) *physicalEnum {
	e := &physicalEnum{
		m:        m,
		ctx:      ctx,
		universe: universe,
		minRate:  make([]radio.Rate, len(universe)),
		n:        len(universe),
		budget:   budget,
	}
	for i, l := range universe {
		e.minRate[i] = m.MinPositiveRate(l)
	}
	return e
}

//lint:ignore abw/floateq Rate 0 is the exact no-declared-rate sentinel, never a computed float
func (e *physicalEnum) hasRate(p int) bool { return e.minRate[p] != 0 }

func (e *physicalEnum) newWalker() walker { return newPhysicalWorker(e) }

// physicalWorker owns the mutable DFS state of one worker: an
// incremental SetTracker plus the member stack and output family.
type physicalWorker struct {
	e        *physicalEnum
	tr       *conflict.SetTracker
	chk      *cancel.Checker // nil for uncancellable contexts (zero cost)
	members  []int
	isMember []bool
	rateBuf  []radio.Rate
	arena    []conflict.Couple // chunked backing for materialized sets
	out      []Set
}

func newPhysicalWorker(e *physicalEnum) *physicalWorker {
	return &physicalWorker{
		e:        e,
		tr:       e.m.NewSetTracker(e.universe),
		chk:      cancel.NewChecker(e.ctx, 0),
		members:  make([]int, 0, e.n),
		isMember: make([]bool, e.n),
		rateBuf:  make([]radio.Rate, e.n),
	}
}

func (w *physicalWorker) push(i int) {
	w.tr.Push(i)
	w.members = append(w.members, i)
	w.isMember[i] = true
}

func (w *physicalWorker) pop() {
	i := w.members[len(w.members)-1]
	w.isMember[i] = false
	w.members = w.members[:len(w.members)-1]
	w.tr.Pop()
}

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
// like the sequential walk never descending past it.
func (w *physicalWorker) runTask(wk walk, branch int) error {
	if branch < 0 {
		return w.runWalk(walk{lpos: wk.lpos})
	}
	w.push(wk.lpos)
	err := w.runWalk(walk{lpos: wk.order[branch], order: wk.order[branch+1:]})
	w.pop()
	return err
}

// rec visits the current member set, then branches over order[oi:].
// Visiting each node prunes natively: a branch dies the moment any
// member is silenced, and interference only grows with further members.
func (w *physicalWorker) rec(oi int, order []int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	ok, err := w.visit()
	if !ok || err != nil {
		return err
	}
	for k := oi; k < len(order); k++ {
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
// (tracker sums and the isMember table); members sit in branch order,
// which a delta walk does not keep ascending, so materialization
// re-establishes the canonical ascending-position couple order by
// insertion-sorting the freshly appended couples (a no-op pass in the
// full walk; member counts are small).
func (w *physicalWorker) visit() (ok bool, err error) {
	e := w.e
	for d, mi := range w.members {
		r := w.tr.MaxRate(mi)
		//lint:ignore abw/floateq Rate 0 is the exact silenced-link sentinel MaxRate returns, never a computed float
		if r == 0 {
			return false, nil
		}
		w.rateBuf[d] = r
	}
	if !e.budget.take() {
		return false, ErrLimit
	}
	if physicalMaximal(w.tr, w.members, w.isMember, w.rateBuf, e.minRate, e.n) {
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
// member set (rates in rateBuf): no outside link may join at any
// positive declared rate while every member keeps its rate. Under the
// physical model a joining link can only lower member rates, so
// "keeps" means the recomputed rate with the joiner's interference
// added stays at least the current one.
func physicalMaximal(tr *conflict.SetTracker, members []int, isMember []bool, rateBuf, minRate []radio.Rate, n int) bool {
	for j := 0; j < n; j++ {
		//lint:ignore abw/floateq Rate 0 is the exact no-declared-rate sentinel, never a computed float
		if isMember[j] || minRate[j] == 0 {
			continue
		}
		if tr.MaxRate(j) < minRate[j] {
			continue // blocked or silenced: cannot join at any declared rate
		}
		// j is unblocked here (MaxRate(j) > 0): no member shares a node
		// with it, so the joined rates need no sharer test.
		joins := true
		for d, mi := range members {
			if tr.MaxRateJoinedUnblocked(mi, j) < rateBuf[d] {
				joins = false
				break
			}
		}
		if joins {
			return false
		}
	}
	return true
}
