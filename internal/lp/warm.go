package lp

import (
	"context"
	"errors"
	"math"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// WarmSolver re-solves one Problem across a sequence of right-hand-side
// changes without starting the simplex from scratch each time. The
// admission loop's availability LPs have exactly that shape: the
// constraint matrix (set rate vectors, path membership) is fixed while
// the per-link background demands — pure RHS — move between steps.
//
// After a cold solve, the final simplex state is retained: B⁻¹, the
// basis and x_B = B⁻¹b, m×m + O(m) numbers however many columns the
// problem has, plus a reference to the Problem's own sparse columns.
// A change Δ to constraint k's rhs updates x_B in one saxpy with column
// k of B⁻¹: x_B += Δ·B⁻¹e_k (Δ taken in the row's frozen
// normalization). The retained basis stays dual-feasible — the reduced
// costs don't involve b — so a few dual-simplex pivots restore primal
// feasibility, followed by a primal cleanup pass that re-establishes
// the exact optimality criterion the cold path uses. When anything
// about the warm path is off — structure grew, the dual loop stalls, a
// basic artificial resurfaces above tolerance, or dual simplex claims
// infeasibility — ResolveContext falls back to a cold solve, so its
// answers always match Problem.SolveContext within pivotTol-scale arithmetic
// noise.
//
// A WarmSolver owns its Problem between calls: the caller may change
// bounds through SetRHS, but must not add variables or constraints
// after the first ResolveContext without expecting cold re-solves.
//
// WarmSolver is not safe for concurrent use.
type WarmSolver struct {
	p *Problem
	s *state

	// Dimensions at state build time; growth forces a cold rebuild.
	nVars, nCons int

	// start, when set, is where the next cold solve starts (SetStart).
	start *Basis

	warmCount int
}

// NewWarmSolver wraps p. The first ResolveContext runs cold and
// retains the final simplex state.
func NewWarmSolver(p *Problem) *WarmSolver {
	return &WarmSolver{p: p}
}

// SetStart makes the next cold solve start from start, with
// SolveFromContext's rules and fallbacks; later cold solves run
// two-phase again.
func (w *WarmSolver) SetStart(start *Basis) { w.start = start }

// SetRHS changes the right-hand side of constraint k and, when a state
// is retained, pushes the change through the retained inverse so the
// next ResolveContext can start warm.
func (w *WarmSolver) SetRHS(k int, rhs float64) error {
	old := w.p.RHS(k)
	if err := w.p.SetRHS(k, rhs); err != nil {
		return err
	}
	s := w.s
	if s == nil {
		return nil
	}
	m := len(s.basis)
	if k >= m {
		// A constraint added after the build; the state no longer
		// describes the problem.
		w.s = nil
		return nil
	}
	// Normalized-system delta: the row was scaled by sign at build time
	// and stays scaled that way (re-normalizing on a sign flip would be
	// a different but equivalent system; keeping the original sign keeps
	// the feasible region and lets x_B go negative, which is exactly
	// what dual simplex repairs).
	delta := s.sign[k] * (rhs - old)
	//lint:ignore abw/floateq exact no-op skip: an unchanged bound must not dirty x_B at all
	if delta == 0 {
		return nil
	}
	for i := range s.xB {
		//lint:ignore abw/floateq exact-zero saxpy skip: true zeros contribute nothing
		if v := s.binv[i*m+k]; v != 0 {
			s.xB[i] += delta * v
		}
	}
	return nil
}

// ResolveContext solves the problem as it currently stands. When the
// retained state is usable it runs the warm path — dual simplex to
// restore primal feasibility, then a primal cleanup — and reports
// warm=true; otherwise (no state, structural growth, or any warm-path
// bailout) it re-solves cold, from the SetStart basis when one is
// pending, and retains the fresh state. Both the warm dual loop and
// any cold fallback poll ctx between pivots. A cancelled resolve
// discards the retained state (it may be mid-pivot-sequence), so the
// next call after cancellation simply runs cold — correctness is never
// entrusted to a half-repaired basis.
func (w *WarmSolver) ResolveContext(ctx context.Context) (*Solution, bool, error) {
	// The timer starts on the warm stage and is re-labeled lp_solve if
	// the attempt falls through to a cold solve, so each resolve is
	// accounted exactly once under the path it actually took.
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPWarm)
	defer tm.End()
	chk := cancel.NewChecker(ctx, pivotCheckEvery)
	if w.s != nil && (w.p.NumVars() != w.nVars || w.p.NumConstraints() != w.nCons) {
		w.s = nil
	}
	if w.s != nil {
		sol, ok, err := w.s.dualResolve(chk)
		if err != nil {
			w.s = nil
			return nil, false, err
		}
		if ok {
			w.warmCount++
			tm.SetWarm(true)
			tm.AddPivots(int64(sol.Pivots))
			return sol, true, nil
		}
		// Warm path bailed out (stall, surviving artificial, or a
		// dual-infeasibility verdict we only trust from a cold solve).
		w.s = nil
	}
	tm.SetStage(obs.StageLPSolve)
	start := w.start
	w.start = nil
	sol, s, reason, err := w.p.solveFrom(chk, start)
	labelStart(tm, start, reason)
	if err != nil {
		return nil, false, err
	}
	// Only an Optimal state is retained: that is the dual-feasibility
	// precondition warm-starting needs.
	w.s = s
	w.nVars, w.nCons = w.p.NumVars(), w.p.NumConstraints()
	tm.AddPivots(int64(sol.Pivots))
	return sol, false, nil
}

// WarmResolves returns how many ResolveContext calls took the warm path.
func (w *WarmSolver) WarmResolves() int { return w.warmCount }

// dualResolve runs dual simplex on the retained state to repair primal
// feasibility after rhs changes, then a primal cleanup pass. ok=false
// means the warm path cannot vouch for the result (the caller re-solves
// cold); err is reserved for cancellation.
func (s *state) dualResolve(chk *cancel.Checker) (*Solution, bool, error) {
	w := s.newWork()
	s.phase2Costs(w.c)
	startPivots := s.pivots

	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return nil, false, nil // stalled; cold solve decides
		}
		if err := chk.Check(); err != nil {
			return nil, false, err
		}
		// Leaving row: most negative basic value.
		leaving := -1
		worst := -feasTol
		for i, v := range s.xB {
			if v < worst {
				worst = v
				leaving = i
			}
		}
		if leaving < 0 {
			break // primal feasible again
		}
		// Entering column: dual ratio test over the pivot row
		// (B⁻¹)_r·A, priced sparsely. Among eligible columns (negative
		// entry in the leaving row, artificials barred) pick the one
		// minimizing reduced-cost / |entry|, so the reduced costs stay
		// non-negative — dual feasibility is the loop invariant. Ties
		// break toward the lowest column index (Bland-style, prevents
		// cycling on degenerate duals).
		s.prices(w.c, w.y)
		pivotRow := s.binvRow(leaving)
		entering := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.artFrom; j++ {
			if w.basic[j] {
				continue
			}
			a := s.dot(pivotRow, j)
			if a >= -pivotTol {
				continue
			}
			rc := w.c[j] - s.dot(w.y, j)
			if rc < 0 {
				rc = 0 // clamp tolerance-scale dual noise
			}
			if ratio := rc / -a; ratio < bestRatio-pivotTol {
				bestRatio = ratio
				entering = j
			}
		}
		if entering < 0 {
			// Dual simplex says infeasible. Sound in exact arithmetic,
			// but we only report Infeasible from the cold path so warm
			// answers can never disagree with it.
			return nil, false, nil
		}
		s.ftran(entering, w.d)
		s.pivot(leaving, entering, w)
	}

	// A basic artificial above tolerance means the repaired point does
	// not satisfy the original constraints; only phase 1 can judge that.
	for i, b := range s.basis {
		if b >= s.artFrom && math.Abs(s.xB[i]) > feasTol {
			return nil, false, nil
		}
	}

	// Primal cleanup: rhs changes don't touch reduced costs, but the
	// clamp above can hide tolerance-scale dual infeasibility. Finish
	// with the same primal loop the cold path ends on, so warm and cold
	// optima satisfy the identical termination criterion.
	status, err := s.primal(chk, w, s.artFrom)
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			return nil, false, err // cancelled: no cold retry, caller aborts
		}
		return nil, false, nil // stalled; cold solve decides
	}
	if status != Optimal {
		return nil, false, nil // unbounded from a warm basis: distrust, go cold
	}
	sol := s.solution(w)
	sol.Pivots = s.pivots - startPivots
	return sol, true, nil
}
