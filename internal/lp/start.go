package lp

import (
	"context"
	"fmt"
	"math"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// Basis names a simplex basis by its basic columns: structural
// variables, and rows whose slack (or surplus) column is basic. An
// optimal solve reports its basis through SolveWithBasisContext, and
// SolveFromContext starts a later solve from one — typically mapped
// onto a larger problem by a caller that knows how the two relate.
type Basis struct {
	// Vars are the basic structural columns.
	Vars []Var
	// Slacks are the inequality rows whose slack column is basic.
	Slacks []int
	// Artificials are the rows whose artificial column stayed basic at
	// the optimum: redundant rows phase 1 could not pivot it out of. A
	// start naming one is refused (FallbackArtificial).
	Artificials []int
}

// Reasons SolveFromContext refuses a start and solves two-phase
// instead. They label the abw_lp_start_fallbacks_total counter.
const (
	// FallbackArtificial: the start names an artificial column.
	FallbackArtificial = "artificial"
	// FallbackUnmapped: the start does not name exactly one valid,
	// distinct column per row (out of range, an EQ row's slack, a
	// duplicate, or too few or too many columns).
	FallbackUnmapped = "unmapped"
	// FallbackSingular: the named columns are linearly dependent.
	FallbackSingular = "singular"
	// FallbackInfeasible: the named basis gives some basic variable a
	// value below -feasTol.
	FallbackInfeasible = "infeasible"
)

// SolveWithBasisContext is SolveContext that also reports the optimal
// basis (nil unless the status is Optimal), for a later
// SolveFromContext on a related problem.
func (p *Problem) SolveWithBasisContext(ctx context.Context) (*Solution, *Basis, error) {
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPSolve)
	defer tm.End()
	sol, s, err := p.solve(cancel.NewChecker(ctx, pivotCheckEvery))
	if sol != nil {
		tm.AddPivots(int64(sol.Pivots))
	}
	if s == nil {
		return sol, nil, err
	}
	return sol, s.basisOf(), err
}

// SolveFromContext solves p starting from start instead of from phase
// 1: the start's columns are pivoted into the identity basis one by
// one (each onto the row, among those not yet holding a start column,
// with the largest entry of its column in the current basis), and the
// installed basis must be primal feasible; phase 2 then runs exactly
// as in SolveContext. When the start does not name one column per row,
// names an artificial, or is singular or infeasible, the solve falls
// back to SolveContext's two-phase solve and returns exactly its
// solution. A nil start is the two-phase solve.
//
// A started optimum is an optimum of the same LP, reached by a
// different pivot sequence: it agrees with SolveContext's within
// pivot-tolerance arithmetic noise, and where the LP has several
// optimal vertices it may be another one. Solution.Pivots counts the
// phase-2 pivots only; installing the start's columns costs one
// B⁻¹ update each but no pricing pass. The trace labels the solve as
// started, or its fallback with the reason.
func (p *Problem) SolveFromContext(ctx context.Context, start *Basis) (*Solution, error) {
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPSolve)
	defer tm.End()
	sol, _, reason, err := p.solveFrom(cancel.NewChecker(ctx, pivotCheckEvery), start)
	labelStart(tm, start, reason)
	if sol != nil {
		tm.AddPivots(int64(sol.Pivots))
	}
	return sol, err
}

// labelStart marks a solve that was given a start as started or as
// fallen back, with the reason.
func labelStart(tm *obs.StageTimer, start *Basis, reason string) {
	switch {
	case start == nil:
	case reason != "":
		tm.SetStartFallback(reason)
	default:
		tm.SetStarted(true)
	}
}

// solveFrom is SolveFromContext's solve: it returns the final state
// (nil unless optimal) like solve, and the reason a non-nil start was
// refused ("" when it was taken).
func (p *Problem) solveFrom(chk *cancel.Checker, start *Basis) (*Solution, *state, string, error) {
	if start == nil || p.validate() != nil {
		sol, s, err := p.solve(chk)
		return sol, s, "", err
	}
	s := p.newState()
	w := s.newWork()
	if reason := s.install(start, w); reason != "" {
		sol, s, err := p.solve(chk)
		return sol, s, reason, err
	}
	installed := s.pivots
	s.phase2Costs(w.c)
	status, err := s.primal(chk, w, s.artFrom)
	if err != nil {
		return nil, nil, "", fmt.Errorf("lp: phase 2: %w", err)
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Pivots: s.pivots - installed}, nil, "", nil
	}
	sol := s.solution(w)
	sol.Pivots = s.pivots - installed
	return sol, s, "", nil
}

// install pivots the start's columns into the fresh identity basis and
// reports why the result cannot start phase 2, or "" when it can. Each
// column enters on the row, among those not yet holding a start
// column, with the largest |B⁻¹a_j| entry; an LE slack of the start is
// already basic on its own row and stays there. A column named twice
// enters once and leaves a row unplaced, which refuses the start.
func (s *state) install(start *Basis, w *work) string {
	n, m := len(s.p.obj), len(s.basis)
	if len(start.Artificials) > 0 {
		return FallbackArtificial
	}
	if len(start.Vars)+len(start.Slacks) != m {
		return FallbackUnmapped
	}
	slackOf := make([]int, m)
	for i := range slackOf {
		slackOf[i] = -1
	}
	for j := n; j < s.artFrom; j++ {
		slackOf[s.auxRow[j-n]] = j
	}
	placed := make([]bool, m)
	for _, k := range start.Slacks {
		if k < 0 || k >= m || slackOf[k] < 0 {
			return FallbackUnmapped
		}
		placed[k] = w.basic[slackOf[k]]
	}
	for e := 0; e < m; e++ {
		var j int
		if e < len(start.Vars) {
			if j = int(start.Vars[e]); j < 0 || j >= n {
				return FallbackUnmapped
			}
		} else {
			j = slackOf[start.Slacks[e-len(start.Vars)]]
		}
		if w.basic[j] {
			continue
		}
		s.ftran(j, w.d)
		r, best := -1, pivotTol
		for i, a := range w.d {
			if a = math.Abs(a); !placed[i] && a > best {
				r, best = i, a
			}
		}
		if r < 0 {
			return FallbackSingular
		}
		s.pivot(r, j, w)
		placed[r] = true
	}
	for i := range placed {
		if !placed[i] {
			return FallbackUnmapped
		}
	}
	for _, v := range s.xB {
		if v < -feasTol {
			return FallbackInfeasible
		}
	}
	return ""
}

// basisOf names the state's basic columns.
func (s *state) basisOf() *Basis {
	n := len(s.p.obj)
	vars, arts := 0, 0
	for _, j := range s.basis {
		if j < n {
			vars++
		} else if j >= s.artFrom {
			arts++
		}
	}
	b := &Basis{Vars: make([]Var, 0, vars), Slacks: make([]int, 0, len(s.basis)-vars-arts)}
	for _, j := range s.basis {
		switch {
		case j < n:
			b.Vars = append(b.Vars, Var(j))
		case j < s.artFrom:
			b.Slacks = append(b.Slacks, s.auxRow[j-n])
		default:
			b.Artificials = append(b.Artificials, s.auxRow[j-n])
		}
	}
	return b
}
