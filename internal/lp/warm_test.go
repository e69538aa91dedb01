package lp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// warmTol bounds the disagreement we accept between a warm resolve and
// a from-scratch cold solve of the same program. The property tests
// draw dyadic-rational data (k/8), so simplex arithmetic is near-exact
// and the two paths agree to pivot-tolerance scale.
const warmTol = 1e-8

// dyadic returns a random dyadic rational in [-4, 4] with denominator 8.
func dyadic(rng *rand.Rand) float64 { return float64(rng.Intn(65)-32) / 8 }

// randomWarmLP builds a random LP with mixed relations. Every variable
// sits under a box row sum(x) <= bound, so the program is never
// unbounded; feasibility is left to chance (infeasible programs are a
// case the warm path must get right too).
func randomWarmLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(4)
	m := 2 + rng.Intn(4)
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	p := NewProblem(sense)
	xs := make([]Var, n)
	for j := 0; j < n; j++ {
		xs[j] = p.AddVar(dyadic(rng))
	}
	for i := 0; i < m; i++ {
		row := make(map[Var]float64, n)
		for j := 0; j < n; j++ {
			row[xs[j]] = dyadic(rng)
		}
		rel := LE
		switch rng.Intn(4) { // LE-heavy mix keeps most programs feasible
		case 0:
			rel = GE
		case 1:
			rel = EQ
		}
		rhs := float64(rng.Intn(33)) / 8
		if rel == GE {
			rhs = -rhs // x=0 satisfies sum >= negative rhs more often
		}
		if err := p.AddConstraint(row, rel, rhs); err != nil {
			panic(err)
		}
	}
	box := make(map[Var]float64, n)
	for _, v := range xs {
		box[v] = 1
	}
	if err := p.AddConstraint(box, LE, float64(16+rng.Intn(65))/8); err != nil {
		panic(err)
	}
	return p
}

// cloneProblem deep-copies a problem so the cold reference solve sees
// the same data the warm solver mutated via SetRHS.
func cloneProblem(p *Problem) *Problem {
	q := NewProblem(p.sense)
	q.obj = append([]float64(nil), p.obj...)
	q.start = append([]int32(nil), p.start...)
	q.rowIx = append([]int32(nil), p.rowIx...)
	q.vals = append([]float64(nil), p.vals...)
	q.rows = append([]row(nil), p.rows...)
	return q
}

// assertAgrees checks a warm (or fallback) resolve against a cold
// solve of an identical problem: same status, and objectives within
// warmTol when both are Optimal.
func assertAgrees(t *testing.T, trial, step int, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("trial %d step %d: warm status %v, cold %v", trial, step, warm.Status, cold.Status)
	}
	if warm.Status != Optimal {
		return
	}
	if math.Abs(warm.Objective-cold.Objective) > warmTol {
		t.Fatalf("trial %d step %d: warm objective %.12g, cold %.12g (diff %g)",
			trial, step, warm.Objective, cold.Objective, warm.Objective-cold.Objective)
	}
}

// TestWarmMatchesColdOnBoundChanges is the Sec. 8-style warm-start
// invariant: over randomized programs and randomized bound-change
// sequences, every ResolveContext answer equals a from-scratch solve of the
// same data — same status, same optimum within warmTol.
func TestWarmMatchesColdOnBoundChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	warmResolves := 0
	for trial := 0; trial < 120; trial++ {
		p := randomWarmLP(rng)
		w := NewWarmSolver(p)
		sol, _, err := w.ResolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		coldRef, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}
		assertAgrees(t, trial, -1, sol, coldRef)

		steps := 1 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			k := rng.Intn(p.NumConstraints())
			if err := w.SetRHS(k, dyadic(rng)+2); err != nil {
				t.Fatalf("trial %d step %d: SetRHS: %v", trial, step, err)
			}
			got, warm, err := w.ResolveContext(context.Background())
			if err != nil {
				t.Fatalf("trial %d step %d: resolve: %v", trial, step, err)
			}
			if warm {
				warmResolves++
			}
			want, err := cloneProblem(p).SolveContext(context.Background())
			if err != nil {
				t.Fatalf("trial %d step %d: reference solve: %v", trial, step, err)
			}
			assertAgrees(t, trial, step, got, want)
			if got.Status == Optimal {
				checkDuals(t, p, got)
			}
		}
	}
	// The point of the exercise: the warm path must actually fire, not
	// silently fall back to cold on every step.
	if warmResolves == 0 {
		t.Fatal("no resolve ever took the warm path")
	}
	t.Logf("warm resolves: %d", warmResolves)
}

// TestWarmPivotSavings pins the performance claim on a representative
// availability-shaped LP: maximize f subject to capacity rows whose
// rhs drifts. Warm resolves must do strictly fewer pivots than cold
// solves of the same sequence in aggregate.
func TestWarmPivotSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := availabilityLP(t, rng, 12)
	w := NewWarmSolver(p)
	if _, _, err := w.ResolveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	warmPivots, coldPivots := 0, 0
	for step := 0; step < 20; step++ {
		k := 1 + rng.Intn(8) // a link row, not the total-share row
		if err := w.SetRHS(k, float64(rng.Intn(13))/4); err != nil {
			t.Fatal(err)
		}
		got, _, err := w.ResolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, 0, step, got, want)
		warmPivots += got.Pivots
		coldPivots += want.Pivots
	}
	if w.WarmResolves() == 0 {
		t.Fatal("no warm resolves on the availability-shaped sequence")
	}
	if warmPivots >= coldPivots {
		t.Fatalf("warm path saved nothing: %d warm pivots vs %d cold", warmPivots, coldPivots)
	}
	t.Logf("pivots: warm %d vs cold %d over 20 resolves (%d warm)", warmPivots, coldPivots, w.WarmResolves())
}

// availabilityLP builds an Eq. 6-shaped program: maximize f subject to
// a total-share row over nSets time shares and 8 GE link rows, each
// set serving a random half of the links at a random rate.
func availabilityLP(t *testing.T, rng *rand.Rand, nSets int) *Problem {
	t.Helper()
	p := NewProblem(Maximize)
	f := p.AddVar(1)
	lambdas := make([]Var, nSets)
	for i := range lambdas {
		lambdas[i] = p.AddVar(0)
	}
	shares := make(map[Var]float64, len(lambdas))
	for _, v := range lambdas {
		shares[v] = 1
	}
	if err := p.AddConstraint(shares, LE, 1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		row := map[Var]float64{f: -1}
		for _, v := range lambdas {
			if rng.Intn(2) == 1 {
				row[v] = float64(6 * (1 + rng.Intn(9)))
			}
		}
		if err := p.AddConstraint(row, GE, float64(rng.Intn(9))/4); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestWarmSolverRetainsOnlyTheInverse pins what a solved WarmSolver
// keeps between resolves: B⁻¹ (m×m) plus O(m) bookkeeping, and no copy
// of the constraint matrix — the same amount whether the program has 8
// set columns or 400. Every slice field of the solver and its state is
// counted by reflection, so a field added later is counted too.
func TestWarmSolverRetainsOnlyTheInverse(t *testing.T) {
	const m = 9 // the share row plus 8 link rows
	retained := func(nSets int) int {
		w := NewWarmSolver(availabilityLP(t, rand.New(rand.NewSource(11)), nSets))
		if _, _, err := w.ResolveContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if w.s == nil {
			t.Fatalf("%d sets: no state retained after an optimal solve", nSets)
		}
		if len(w.s.binv) != m*m || len(w.s.basis) != m || len(w.s.xB) != m {
			t.Fatalf("%d sets: B⁻¹ %d, basis %d, x_B %d entries; want %d, %d, %d",
				nSets, len(w.s.binv), len(w.s.basis), len(w.s.xB), m*m, m, m)
		}
		words := 0
		for _, v := range []reflect.Value{reflect.ValueOf(w).Elem(), reflect.ValueOf(w.s).Elem()} {
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Slice {
					words += f.Cap()
				}
			}
		}
		return words
	}
	small, large := retained(8), retained(400)
	if small != large {
		t.Fatalf("retained %d slice elements with 8 sets but %d with 400: the state grows with the columns", small, large)
	}
	if small > m*m+7*m {
		t.Fatalf("retained %d slice elements, want at most m² + 7m = %d", small, m*m+7*m)
	}
}

// TestWarmStructuralGrowthFallsBackCold: adding a variable or a
// constraint after the first solve must not poison the retained
// state — the next ResolveContext goes cold and is still correct.
func TestWarmStructuralGrowthFallsBackCold(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	if err := p.AddConstraint(map[Var]float64{x: 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	w := NewWarmSolver(p)
	sol, _, err := w.ResolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-4) > warmTol {
		t.Fatalf("objective %g, want 4", sol.Objective)
	}
	y := p.AddVar(2)
	if err := p.AddConstraint(map[Var]float64{y: 1}, LE, 3); err != nil {
		t.Fatal(err)
	}
	got, warm, err := w.ResolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("resolve after structural growth must run cold")
	}
	if math.Abs(got.Objective-10) > warmTol {
		t.Fatalf("objective %g, want 10", got.Objective)
	}
	// And the fresh state warms the step after.
	if err := w.SetRHS(0, 5); err != nil {
		t.Fatal(err)
	}
	got, _, err = w.ResolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Objective-11) > warmTol {
		t.Fatalf("objective %g, want 11", got.Objective)
	}
}

// TestWarmInfeasibleTransitions drives a program across the
// feasible/infeasible boundary in both directions; the warm solver
// must track the status a cold solve reports at every step.
func TestWarmInfeasibleTransitions(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	if err := p.AddConstraint(map[Var]float64{x: 1}, LE, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[Var]float64{x: 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	w := NewWarmSolver(p)
	if _, _, err := w.ResolveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for step, tc := range []struct {
		rhs  float64 // new floor
		want Status
	}{
		{3, Infeasible}, // floor above cap
		{1.5, Optimal},  // back inside
		{2.5, Infeasible},
		{0, Optimal},
	} {
		if err := w.SetRHS(1, tc.rhs); err != nil {
			t.Fatal(err)
		}
		got, _, err := w.ResolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != tc.want {
			t.Fatalf("step %d (floor=%g): status %v, want %v", step, tc.rhs, got.Status, tc.want)
		}
		want, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, 0, step, got, want)
	}
}
