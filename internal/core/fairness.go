package core

import (
	"context"
	"fmt"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// MaxMinFairContext allocates end-to-end throughput to the given flows
// max-min fairly over the exact feasibility polytope (Eq. 4):
// progressive filling raises every flow's allocation together,
// freezing flows as they hit their bottleneck (or their Demand, when
// positive — pass Demand 0 for an uncapped flow). It returns the
// per-flow allocations in input order and a schedule delivering them.
//
// Max-min fairness over independent sets is the resource-allocation
// question of the paper's reference [11], answered here with the
// paper's own rate-coupled machinery. Enumeration and every
// progressive-filling LP poll ctx; see AvailableBandwidthContext.
func MaxMinFairContext(ctx context.Context, m conflict.Model, flows []Flow, opts Options) ([]float64, schedule.Schedule, error) {
	if len(flows) == 0 {
		return nil, schedule.Schedule{}, fmt.Errorf("core: no flows")
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return nil, schedule.Schedule{}, err
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return nil, schedule.Schedule{}, fmt.Errorf("core: enumerating independent sets: %w", err)
	}

	alloc := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	remaining := len(flows)

	for round := 0; remaining > 0 && round <= len(flows); round++ {
		theta, _, err := solveFill(ctx, flows, universe, sets, alloc, frozen, -1)
		if err != nil {
			return nil, schedule.Schedule{}, err
		}
		// Cap active flows at their demands; demanded flows freeze when
		// they reach it.
		capped := theta
		for j := range flows {
			if !frozen[j] && flows[j].Demand > 0 && flows[j].Demand < capped {
				capped = flows[j].Demand
			}
		}
		for j := range flows {
			if !frozen[j] {
				alloc[j] = capped
			}
		}
		if capped < theta {
			for j := range flows {
				if !frozen[j] && flows[j].Demand > 0 && flows[j].Demand <= capped+1e-9 {
					frozen[j] = true
					remaining--
				}
			}
			continue
		}
		// Freeze the bottlenecked flows: those whose allocation cannot
		// exceed theta while everyone else keeps at least theirs.
		froze := 0
		for j := range flows {
			if frozen[j] {
				continue
			}
			best, _, err := solveFill(ctx, flows, universe, sets, alloc, frozen, j)
			if err != nil {
				return nil, schedule.Schedule{}, err
			}
			if best <= theta+1e-7 {
				frozen[j] = true
				remaining--
				froze++
			}
		}
		if froze == 0 && remaining > 0 {
			// Numerical stall: freeze everything at theta.
			for j := range flows {
				if !frozen[j] {
					frozen[j] = true
					remaining--
				}
			}
		}
	}

	// Final schedule delivering the allocations.
	final := make([]Flow, len(flows))
	for j, f := range flows {
		final[j] = Flow{Path: f.Path, Demand: alloc[j]}
	}
	bg, err := SolveBackgroundContext(ctx, m, final, opts)
	if err != nil {
		return nil, schedule.Schedule{}, err
	}
	if !bg.Feasible {
		return nil, schedule.Schedule{}, fmt.Errorf("core: max-min allocation not schedulable (internal error)")
	}
	return alloc, bg.Schedule, nil
}

// solveFill solves one progressive-filling LP. With boost < 0 it
// maximizes the common allocation theta of all unfrozen flows (frozen
// flows keep alloc[j]). With boost = j it maximizes flow j's allocation
// while every other unfrozen flow keeps at least alloc (the freeze
// test).
func solveFill(
	ctx context.Context,
	flows []Flow,
	universe []topology.LinkID,
	sets []indepset.Set,
	alloc []float64,
	frozen []bool,
	boost int,
) (float64, *lp.Solution, error) {
	// Per-link coverage: sum lambda R >= sum over flows of its
	// per-occurrence allocation; unfrozen (or boosted) flows' traversals
	// weigh the objective column instead.
	rhs := make([]float64, len(universe))
	objCoef := make([]float64, len(universe))
	for li, link := range universe {
		for j, f := range flows {
			occ := 0
			for _, l := range f.Path {
				if l == link {
					occ++
				}
			}
			if occ == 0 {
				continue
			}
			switch {
			case frozen[j] || (boost >= 0 && j != boost):
				rhs[li] += float64(occ) * alloc[j]
			default:
				objCoef[li] += float64(occ)
			}
		}
	}
	set, err := buildSetLP(newLinkPos(universe), sets, 0, rhs, objCoef, nonVacuous)
	if err != nil {
		return 0, nil, err
	}
	sol, err := set.prob.SolveContext(ctx)
	if err != nil {
		return 0, nil, fmt.Errorf("core: solving filling LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, sol, fmt.Errorf("core: filling LP %v", sol.Status)
	}
	return sol.Objective, sol, nil
}
