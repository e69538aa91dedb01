package lp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"abw/internal/obs"
)

// startLP is max x + y over x + y <= 4, x − y >= 1, x + 2y = 2, plus z,
// a copy of x's column with no objective. Its optimum is x = 2, y = 0
// (objective 2) on the basis {x, slack 0, slack 1}.
func startLP(t *testing.T) (*Problem, Var, Var, Var) {
	t.Helper()
	p := NewProblem(Maximize)
	x, y, z := p.AddVar(1), p.AddVar(1), p.AddVar(0)
	mustCons(t, p, "cap", map[Var]float64{x: 1, y: 1, z: 1}, LE, 4)
	mustCons(t, p, "gap", map[Var]float64{x: 1, y: -1, z: 1}, GE, 1)
	mustCons(t, p, "mix", map[Var]float64{x: 1, y: 2, z: 1}, EQ, 2)
	return p, x, y, z
}

// assertSameSolution fails unless got equals want bit for bit.
func assertSameSolution(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %+v, want the two-phase %+v", label, got, want)
	}
}

// TestSolveFromFallbacks refuses every kind of bad start with its
// reason, returns the two-phase solution bit for bit, and labels the
// trace with the reason.
func TestSolveFromFallbacks(t *testing.T) {
	p, x, y, z := startLP(t)
	want, err := p.SolveContext(context.Background())
	if err != nil || want.Status != Optimal || math.Abs(want.Objective-2) > 1e-12 {
		t.Fatalf("two-phase: %+v, %v", want, err)
	}
	for _, tc := range []struct {
		name   string
		start  Basis
		reason string
	}{
		{"artificial", Basis{Vars: []Var{x, y}, Artificials: []int{2}}, FallbackArtificial},
		{"short", Basis{Vars: []Var{x}, Slacks: []int{0}}, FallbackUnmapped},
		{"long", Basis{Vars: []Var{x, y}, Slacks: []int{0, 1}}, FallbackUnmapped},
		{"duplicate var", Basis{Vars: []Var{x, x}, Slacks: []int{0}}, FallbackUnmapped},
		{"duplicate slack", Basis{Vars: []Var{x}, Slacks: []int{0, 0}}, FallbackUnmapped},
		{"var out of range", Basis{Vars: []Var{x, 7}, Slacks: []int{0}}, FallbackUnmapped},
		{"slack out of range", Basis{Vars: []Var{x, y}, Slacks: []int{5}}, FallbackUnmapped},
		{"EQ row slack", Basis{Vars: []Var{x, y}, Slacks: []int{2}}, FallbackUnmapped},
		{"singular", Basis{Vars: []Var{x, z}, Slacks: []int{0}}, FallbackSingular},
		{"infeasible", Basis{Vars: []Var{y}, Slacks: []int{0, 1}}, FallbackInfeasible},
	} {
		sol, _, reason, err := p.solveFrom(nil, &tc.start)
		if err != nil || reason != tc.reason {
			t.Fatalf("%s: reason %q (err %v), want %q", tc.name, reason, err, tc.reason)
		}
		assertSameSolution(t, tc.name, sol, want)

		span := obs.NewSpan("")
		sol, err = p.SolveFromContext(obs.WithSpan(context.Background(), span), &tc.start)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolution(t, tc.name+" through SolveFromContext", sol, want)
		rec := span.Trace().Stages[0]
		if rec.Stage != obs.StageLPSolve || rec.Started != 0 || rec.StartFallbacks[tc.reason] != 1 || rec.Pivots != int64(want.Pivots) {
			t.Fatalf("%s: trace %+v, want one %s fallback with %d pivots", tc.name, rec, tc.reason, want.Pivots)
		}
	}
}

// TestSolveFromStarts: a feasible start skips phase 1 and reaches the
// same optimum; the optimal basis itself needs no pivot at all; a nil
// start is the two-phase solve.
func TestSolveFromStarts(t *testing.T) {
	p, x, y, _ := startLP(t)
	want, err := p.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sol, basis, err := p.SolveWithBasisContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "SolveWithBasisContext", sol, want)
	slices.Sort(basis.Slacks) // listed in basis-row order; only membership matters
	if !reflect.DeepEqual(basis, &Basis{Vars: []Var{x}, Slacks: []int{0, 1}}) {
		t.Fatalf("optimal basis %+v, want x and the slacks of rows 0 and 1", basis)
	}
	for _, tc := range []struct {
		name   string
		start  *Basis
		pivots int
	}{
		{"optimal basis", basis, 0},
		{"feasible basis", &Basis{Vars: []Var{x, y}, Slacks: []int{0}}, 1},
	} {
		span := obs.NewSpan("")
		got, err := p.SolveFromContext(obs.WithSpan(context.Background(), span), tc.start)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-12 || got.Pivots != tc.pivots {
			t.Fatalf("%s: %+v, want objective %v in %d pivots", tc.name, got, want.Objective, tc.pivots)
		}
		checkPrimalFeasible(t, p, got)
		checkDuals(t, p, got)
		rec := span.Trace().Stages[0]
		if rec.Started != 1 || rec.StartedPivots != int64(tc.pivots) || len(rec.StartFallbacks) != 0 {
			t.Fatalf("%s: trace %+v, want one started solve of %d pivots", tc.name, rec, tc.pivots)
		}
	}
	got, err := p.SolveFromContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "nil start", got, want)
}

// TestWarmSolverStartsFirstSolveOnly: SetStart shapes the next cold
// solve only; warm resolves and later cold solves are unchanged.
func TestWarmSolverStartsFirstSolveOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := availabilityLP(t, rng, 40)
	base := cloneProblem(p)
	_, basis, err := base.SolveWithBasisContext(context.Background())
	if err != nil || basis == nil {
		t.Fatalf("reference solve: basis %v, err %v", basis, err)
	}
	w := NewWarmSolver(p)
	w.SetStart(basis)
	span := obs.NewSpan("")
	ctx := obs.WithSpan(context.Background(), span)
	first, warm, err := w.ResolveContext(ctx)
	if err != nil || warm || first.Pivots != 0 {
		t.Fatalf("first resolve: %+v warm=%v err=%v; want a started solve of 0 pivots", first, warm, err)
	}
	if err := w.SetRHS(3, p.RHS(3)+0.5); err != nil {
		t.Fatal(err)
	}
	second, warm, err := w.ResolveContext(ctx)
	if err != nil || !warm {
		t.Fatalf("second resolve: warm=%v err=%v", warm, err)
	}
	cold, err := cloneProblem(p).SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertAgrees(t, 0, 1, second, cold)
	p.AddVar(0) // structural growth: the next resolve is cold, two-phase
	third, warm, err := w.ResolveContext(ctx)
	if err != nil || warm {
		t.Fatalf("third resolve: warm=%v err=%v", warm, err)
	}
	cold, err = cloneProblem(p).SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "cold resolve after growth", third, cold)
	recs := map[obs.Stage]obs.StageRecord{}
	for _, rec := range span.Trace().Stages {
		recs[rec.Stage] = rec
	}
	if c := recs[obs.StageLPSolve]; c.Calls != 2 || c.Started != 1 || len(c.StartFallbacks) != 0 {
		t.Fatalf("lp_solve record %+v, want 2 calls of which 1 started", c)
	}
	if wr := recs[obs.StageLPWarm]; wr.Calls != 1 || wr.Started != 0 {
		t.Fatalf("lp_warm record %+v, want 1 warm call", wr)
	}
}
