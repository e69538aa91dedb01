package core

import (
	"context"
	"fmt"
	"sync"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Background is a solved background: the admitted flows'
// minimal-airtime schedule (the feasibility verdict and a delivering
// schedule), the feasibility LP's optimal basis in link terms when they
// are schedulable, and the node idle ratios the schedule induces, the
// one value routing (Eq. 14), the Fig. 4 estimators and Eq. 6 read.
// It also names the delta base of the flows' universe U_bg: Eq. 6 for
// a path grows U_bg's maximal-set family by the path's new links
// through the cache (memo.Cache.GrowContext) instead of walking
// U_bg ∪ P again, and runs phase 2 only, from the background's basis
// (see AvailableBandwidthContext). A cold Background holds the family
// with its exact exploration count, as the cache returned it (shared
// with the cache's entry, not copied), for as long as the value lives.
// A Session's memoized Background names U_bg alone, so the family
// stays under the cache's byte budget: the grow takes it from the
// cache's memory, and walks U_bg ∪ P whole once it is evicted. Its
// Eq. 6 goes through the session's retained LPs.
type Background struct {
	// Feasible reports whether the flows can all be delivered at once;
	// Schedule delivers them when they can.
	Feasible bool
	// memoized reports that sess memoized the background, so Eq. 6
	// over it re-solves sess's retained LPs.
	memoized bool
	Schedule schedule.Schedule

	// sess carries the model and options the background was solved
	// with.
	sess *Session
	// universe is U_bg, ascending, and demand the flows' summed demand
	// on each of its links, as linkLoad sums it.
	universe []topology.LinkID
	demand   []float64
	// base is the complete family of U_bg, or U_bg alone when
	// memoized; empty for an empty background.
	base indepset.DeltaBase
	// start is the feasibility LP's optimal basis, set when the
	// background is non-empty and schedulable.
	start *bgStart

	idleOnce sync.Once
	idle     []float64
}

// SolveBackgroundContext reports whether the flows can all be delivered
// simultaneously (the feasibility side of Eq. 2/4) and, when they can,
// their minimal-airtime delivering schedule, and keeps what Eq. 6 for a
// path over the same background can reuse. An unschedulable background
// is not an error: Feasible is false, and Eq. 6 over it still answers
// (as lp.Infeasible). Enumeration and the LP poll ctx; a cancelled call
// returns no verdict, so callers must not treat ErrCanceled as
// "infeasible".
func SolveBackgroundContext(ctx context.Context, m conflict.Model, flows []Flow, opts Options) (*Background, error) {
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return nil, err
	}
	return solveBackground(ctx, &Session{m: m, opts: opts}, flows, universe)
}

// solveBackground is SolveBackgroundContext with the session's model
// and options, over the flows' universe.
func solveBackground(ctx context.Context, s *Session, flows []Flow, universe []topology.LinkID) (*Background, error) {
	m, opts := s.m, s.opts
	pos := newLinkPos(universe)
	b := &Background{sess: s, universe: universe, demand: linkLoad(pos, flows)}
	if len(flows) == 0 {
		b.Feasible = true
		return b, nil
	}
	sets, explored, err := opts.Cache.GrowContext(ctx, m, indepset.DeltaBase{}, universe, opts.indepOptions())
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	b.base = indepset.DeltaBase{Universe: universe, Sets: sets, Explored: explored}
	b.Feasible, b.Schedule, b.start, err = feasibleOver(ctx, pos, b.demand, sets, opts.Cache)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// IdleRatios returns the per-node carrier-sensed idle ratios the
// background's schedule induces (estimate.NodeIdleRatios; all ones
// when the flows are unschedulable, as the schedule is empty), derived
// on the first call and shared by every later one, concurrent ones
// included. net must be the network the background's model was built
// on. Callers must not modify the returned slice.
func (b *Background) IdleRatios(net *topology.Network) []float64 {
	b.idleOnce.Do(func() { b.idle = estimate.NodeIdleRatios(net, b.Schedule) })
	return b.idle
}

// feasibleOver runs the feasibility LP for the flows' demand
// over a complete family of their universe, and returns its optimal
// basis as a start when the flows are schedulable.
func feasibleOver(ctx context.Context, pos linkPos, demand []float64, sets []indepset.Set, cache *memo.Cache) (bool, schedule.Schedule, *bgStart, error) {
	// The Eq. 6 machinery with every flow in the background and no
	// new path: any feasible solution proves deliverability, and
	// minimizing the total share picks the minimal-airtime schedule.
	// Only demanded links get a row; every other row holds trivially.
	set, err := buildSetLP(pos, sets, -1, demand, nil, demanded)
	if err != nil {
		return false, schedule.Schedule{}, nil, err
	}
	for li, d := range demand {
		if d > 0 && !set.served[li] {
			return false, schedule.Schedule{}, nil, nil // demanded link can never transmit
		}
	}
	sol, basis, err := set.prob.SolveWithBasisContext(ctx)
	if err != nil {
		return false, schedule.Schedule{}, nil, fmt.Errorf("core: solving feasibility LP: %w", err)
	}
	cache.AddSolvePivots(false, sol.Pivots, 0)
	if sol.Status != lp.Optimal {
		return false, schedule.Schedule{}, nil, nil
	}
	return true, scheduleOf(sets, sol.X), newBgStart(sets, set, basis), nil
}

// bgStart is the feasibility LP's optimal basis in link terms, so that
// Eq. 6 over any complete family of a larger universe can start from
// it (basis): the couples of each basic set, whether the share row's
// slack is basic, and the demanded links whose surplus slack or
// artificial is basic. It holds no reference to the family it came
// from: a session keeps one per demand signature.
type bgStart struct {
	universe   []topology.LinkID   // U_bg
	sets       [][]conflict.Couple // the basic sets, copied into one array
	shareSlack bool
	slackLinks []topology.LinkID
	artLinks   []topology.LinkID
}

// newBgStart records basis, the optimal basis of the feasibility LP set
// over sets, in link terms.
func newBgStart(sets []indepset.Set, set setLP, basis *lp.Basis) *bgStart {
	n := 0
	for _, v := range basis.Vars {
		n += len(sets[v].Couples)
	}
	couples := make([]conflict.Couple, 0, n)
	st := &bgStart{
		universe:   set.universe.links,
		sets:       make([][]conflict.Couple, len(basis.Vars)),
		slackLinks: make([]topology.LinkID, 0, len(basis.Slacks)),
	}
	for k, v := range basis.Vars {
		couples = append(couples, sets[v].Couples...)
		st.sets[k] = couples[len(couples)-len(sets[v].Couples):]
	}
	for _, r := range basis.Slacks {
		if r == 0 { // buildSetLP's share row (the LP has sets, as it was solved)
			st.shareSlack = true
		} else {
			st.slackLinks = append(st.slackLinks, set.linkOfRow(r))
		}
	}
	for _, r := range basis.Artificials {
		st.artLinks = append(st.artLinks, set.linkOfRow(r))
	}
	return st
}

// linkOfRow returns the universe link whose throughput row is r; every
// row but the share row belongs to one.
func (set setLP) linkOfRow(r int) topology.LinkID {
	for li, k := range set.rowOf {
		if k == r {
			return set.universe.links[li]
		}
	}
	return -1
}

// basis maps the start onto set, an Eq. 6 LP (f non-basic) over sets,
// a complete family of a universe containing U_bg, with the same
// background demand: each basic set becomes the first family set
// whose couples on U_bg equal it; a basic slack or artificial stays on
// its link's row; every row without demand takes its own slack. The
// demanded rows then hold exactly the feasibility LP's basis, and a
// demand-free row's slack equals its row's activity, which is
// non-negative, so the basis is primal feasible. An unmatched set
// leaves the basis short, which lp refuses as unmapped. A nil start
// maps to nil: the two-phase solve.
func (st *bgStart) basis(sets []indepset.Set, set setLP, demand []float64) *lp.Basis {
	if st == nil {
		return nil
	}
	// Both universes ascend: one merge pass finds the added links.
	universe := set.universe.links
	added := make([]topology.LinkID, 0, len(universe)-len(st.universe))
	j := 0
	for _, l := range universe {
		for j < len(st.universe) && st.universe[j] < l {
			j++
		}
		if j == len(st.universe) || st.universe[j] != l {
			added = append(added, l)
		}
	}
	m := set.prob.NumConstraints()
	b := &lp.Basis{Vars: make([]lp.Var, 0, len(st.sets)), Slacks: make([]int, 0, max(0, m-len(st.sets)))}
	for _, i := range indepset.MatchRestricted(sets, added, st.sets) {
		if i >= 0 {
			b.Vars = append(b.Vars, lp.Var(i))
		}
	}
	if st.shareSlack {
		b.Slacks = append(b.Slacks, 0)
	}
	for _, l := range st.slackLinks {
		b.Slacks = append(b.Slacks, set.rowOf[set.universe.of(l)])
	}
	for li, r := range set.rowOf {
		if r >= 0 && demand[li] <= 0 {
			b.Slacks = append(b.Slacks, r)
		}
	}
	for _, l := range st.artLinks {
		b.Artificials = append(b.Artificials, set.rowOf[set.universe.of(l)])
	}
	return b
}

// AvailableBandwidthContext answers Eq. 6 for newPath against the
// background: bit for bit what Eq. 6 over a full walk of U_bg ∪ P
// returns when started from the same basis (as
// AvailableBandwidthWithSetsContext over that walk does), and the
// package-level AvailableBandwidthContext's answer within
// pivot-tolerance arithmetic noise. The family of U_bg ∪ P is the
// background's family grown by the path's new links (grow); a
// session's memoized background then re-solves the session's retained
// LP for the pair. A schedulable background starts the LP from the
// feasibility LP's optimal basis (bgStart.basis), so only phase 2
// runs; an unschedulable or empty one solves two-phase.
func (b *Background) AvailableBandwidthContext(ctx context.Context, newPath topology.Path) (*Result, error) {
	if b.memoized {
		return b.sess.availableBandwidth(ctx, b, newPath)
	}
	universe, sets, err := b.grow(ctx, newPath)
	if err != nil {
		return nil, err
	}
	return solveEq6(ctx, newLinkPos(universe), widen(b.demand, b.universe, universe), newPath, sets, b.sess.opts.Cache, b.start)
}

// grow returns U_bg ∪ P and its complete family: the background's
// family grown by the path's new links through the cache (one delta
// walk on a miss, a full walk of P from an empty background or of
// U_bg ∪ P once a memoized background's family is evicted).
func (b *Background) grow(ctx context.Context, newPath topology.Path) ([]topology.LinkID, []indepset.Set, error) {
	if len(newPath) == 0 {
		return nil, nil, fmt.Errorf("core: empty new path")
	}
	s := b.sess
	sets, _, err := s.opts.Cache.GrowContext(ctx, s.m, b.base, newPath, s.opts.indepOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	return topology.LinkUnion(b.universe, newPath), sets, nil
}
