package core

import (
	"context"
	"fmt"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Background is one request's solved background: the admitted flows'
// minimal-airtime schedule (FeasibleDemandsContext's verdict and
// schedule), the feasibility LP's optimal basis in link terms when they
// are schedulable, and, on the cold path, the complete maximal-set
// family of their universe U_bg with the walk's exact exploration
// count. Eq. 6 for a path then grows that family by the path's new
// links in one delta walk (indepset.EnumerateDelta) instead of walking
// U_bg ∪ P again, and runs phase 2 only, from the background's basis
// (see AvailableBandwidthContext). The family lives exactly as long as
// the caller holds the value; nothing is kept across requests.
type Background struct {
	// Feasible reports whether the flows can all be delivered at once;
	// Schedule delivers them when they can.
	Feasible bool
	Schedule schedule.Schedule

	m        conflict.Model
	flows    []Flow
	opts     Options
	universe []topology.LinkID
	// base is the background's complete family, set only on the cold
	// path (no Options.Cache) over a non-empty background.
	base *indepset.DeltaBase
	// start is the feasibility LP's optimal basis, set when the
	// background is non-empty and schedulable.
	start *bgStart
}

// SolveBackgroundContext solves the flows' minimal-airtime schedule,
// as FeasibleDemandsContext does, and keeps what Eq. 6 for a path over
// the same background can reuse. An unschedulable background is not
// an error: Feasible is false, and Eq. 6 over it still answers (as
// lp.Infeasible).
func SolveBackgroundContext(ctx context.Context, m conflict.Model, flows []Flow, opts Options) (*Background, error) {
	b := &Background{m: m, flows: flows, opts: opts}
	if len(flows) == 0 {
		b.Feasible = true
		return b, nil
	}
	var err error
	if b.universe, err = flowUniverse(nil, flows); err != nil {
		return nil, err
	}
	var sets []indepset.Set
	if opts.Cache == nil {
		var truncated bool
		var explored int64
		sets, truncated, explored, err = indepset.EnumeratePartialCountedContext(ctx, m, b.universe, opts.indepOptions())
		if err == nil && truncated {
			err = indepset.ErrLimit
		}
		if err == nil {
			b.base = &indepset.DeltaBase{Universe: b.universe, Sets: sets, Explored: explored}
		}
	} else {
		sets, err = opts.enumerate(ctx, m, b.universe)
	}
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	b.Feasible, b.Schedule, b.start, err = feasibleOver(ctx, b.universe, sets, flows, opts.Cache)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// feasibleOver runs FeasibleDemandsContext's LP over a complete family
// of the flows' universe, and returns its optimal basis as a start when
// the flows are schedulable.
func feasibleOver(ctx context.Context, universe []topology.LinkID, sets []indepset.Set, flows []Flow, cache *memo.Cache) (bool, schedule.Schedule, *bgStart, error) {
	// The Eq. 6 machinery with every flow in the background and no
	// new path: any feasible solution proves deliverability, and
	// minimizing the total share picks the minimal-airtime schedule.
	// Only demanded links get a row; every other row holds trivially.
	pos := newLinkPos(universe)
	demand := linkLoad(pos, flows)
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
// pivot-tolerance arithmetic noise. On the cold path the family of U_bg ∪ P is the background's
// family grown by the path's new links in one delta walk, recorded as
// the delta stage (nothing to walk when the path lies inside U_bg);
// with Options.Cache it comes from the cache. A schedulable background
// starts the LP from the feasibility LP's optimal basis (bgStart.basis),
// so only phase 2 runs; an unschedulable one solves two-phase, and an
// empty one is the package-level call.
func (b *Background) AvailableBandwidthContext(ctx context.Context, newPath topology.Path) (*Result, error) {
	if len(b.flows) == 0 {
		return AvailableBandwidthContext(ctx, b.m, b.flows, newPath, b.opts)
	}
	if len(newPath) == 0 {
		return nil, fmt.Errorf("core: empty new path")
	}
	universe := topology.LinkUnion(b.universe, newPath)
	var sets []indepset.Set
	var err error
	if b.base != nil {
		var tm *obs.StageTimer
		if len(universe) > len(b.universe) {
			tm = obs.SpanFrom(ctx).StartStage(obs.StageDelta)
		}
		sets, _, err = indepset.EnumerateDelta(ctx, b.m, *b.base, newPath, b.opts.indepOptions())
		tm.AddSets(int64(len(sets)))
		tm.End()
	} else {
		sets, err = b.opts.enumerate(ctx, b.m, universe)
	}
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	return solveEq6(ctx, b.flows, newPath, universe, sets, b.opts.Cache, b.start)
}
