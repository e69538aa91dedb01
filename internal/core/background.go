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
// minimal-airtime schedule (FeasibleDemands' verdict and schedule) and,
// on the cold path, the complete maximal-set family of their universe
// U_bg with the walk's exact exploration count. Eq. 6 for a path then
// grows that family by the path's new links in one delta walk
// (indepset.EnumerateDelta) instead of walking U_bg ∪ P again. The
// family lives exactly as long as the caller holds the value; nothing
// is kept across requests.
type Background struct {
	// Feasible reports whether the flows can all be delivered at once;
	// Schedule delivers them when they can.
	Feasible bool
	Schedule schedule.Schedule

	m     conflict.Model
	flows []Flow
	opts  Options
	// base is the background's complete family, set only on the cold
	// path (no Options.Cache) over a non-empty background.
	base *indepset.DeltaBase
}

// SolveBackgroundContext solves the flows' minimal-airtime schedule,
// as FeasibleDemandsContext does, and keeps what Eq. 6 for a path over
// the same background can reuse. An unschedulable background is not
// an error: Feasible is false, and Eq. 6 over it still answers (as
// lp.Infeasible).
func SolveBackgroundContext(ctx context.Context, m conflict.Model, flows []Flow, opts Options) (*Background, error) {
	if err := validateFlows(flows); err != nil {
		return nil, err
	}
	b := &Background{m: m, flows: flows, opts: opts}
	if len(flows) == 0 {
		b.Feasible = true
		return b, nil
	}
	paths := make([]topology.Path, 0, len(flows))
	for _, f := range flows {
		paths = append(paths, f.Path)
	}
	universe := topology.LinkUnion(paths...)
	var sets []indepset.Set
	var err error
	if opts.Cache == nil {
		var truncated bool
		var explored int64
		sets, truncated, explored, err = indepset.EnumeratePartialCountedContext(ctx, m, universe, opts.indepOptions())
		if err == nil && truncated {
			err = indepset.ErrLimit
		}
		if err == nil {
			b.base = &indepset.DeltaBase{Universe: universe, Sets: sets, Explored: explored}
		}
	} else {
		sets, err = opts.enumerate(ctx, m, universe)
	}
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	b.Feasible, b.Schedule, err = feasibleOver(ctx, universe, sets, flows, opts.Cache)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// feasibleOver runs FeasibleDemands' LP over a complete family of the
// flows' universe.
func feasibleOver(ctx context.Context, universe []topology.LinkID, sets []indepset.Set, flows []Flow, cache *memo.Cache) (bool, schedule.Schedule, error) {
	// The Eq. 6 machinery with every flow in the background and no
	// new path: any feasible solution proves deliverability, and
	// minimizing the total share picks the minimal-airtime schedule.
	// Only demanded links get a row; every other row holds trivially.
	demand := linkLoad(universe, flows)
	set, err := buildSetLP(universe, sets, -1, demand, nil, demanded)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	for li, d := range demand {
		if d > 0 && !set.served[li] {
			return false, schedule.Schedule{}, nil // demanded link can never transmit
		}
	}
	sol, err := set.prob.SolveContext(ctx)
	if err != nil {
		return false, schedule.Schedule{}, fmt.Errorf("core: solving feasibility LP: %w", err)
	}
	cache.AddSolvePivots(false, sol.Pivots, 0)
	if sol.Status != lp.Optimal {
		return false, schedule.Schedule{}, nil
	}
	return true, scheduleOf(sets, sol.X), nil
}

// AvailableBandwidthContext answers Eq. 6 for newPath against the
// background: exactly what the package-level AvailableBandwidthContext
// returns for the same flows, path and options, bit for bit. On the
// cold path the family of U_bg ∪ P is the background's family grown by
// the path's new links in one delta walk, recorded as the delta stage
// (nothing to walk when the path lies inside U_bg). An empty
// background and a set Options.Cache walk U_bg ∪ P in full, as before.
func (b *Background) AvailableBandwidthContext(ctx context.Context, newPath topology.Path) (*Result, error) {
	if b.base == nil {
		return AvailableBandwidthContext(ctx, b.m, b.flows, newPath, b.opts)
	}
	if len(newPath) == 0 {
		return nil, fmt.Errorf("core: empty new path")
	}
	universe := topology.LinkUnion(b.base.Universe, newPath)
	var tm *obs.StageTimer
	if len(universe) > len(b.base.Universe) {
		tm = obs.SpanFrom(ctx).StartStage(obs.StageDelta)
	}
	sets, _, err := indepset.EnumerateDelta(ctx, b.m, *b.base, newPath, b.opts.indepOptions())
	tm.AddSets(int64(len(sets)))
	tm.End()
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	return solveWithSetsCounted(ctx, b.m, b.flows, newPath, universe, sets, b.opts.Cache)
}
