package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestStrongDuality builds random bounded-feasible primal programs
//
//	max c.x  s.t.  Ax <= b, x >= 0   (b >= 0, so x = 0 is feasible)
//
// and their duals
//
//	min b.y  s.t.  A'y >= c, y >= 0,
//
// solves both with the same simplex, and checks the objectives agree —
// a stringent end-to-end correctness check, since any pivoting or
// tolerance bug breaks the equality. Each solution's Duals must also be
// dual-feasible with b·y equal to its objective, and the primal's
// duals must price the dual LP at its optimum.
func TestStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4) // variables
		m := 2 + rng.Intn(4) // constraints
		a := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for i := 0; i < m; i++ {
			a[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = rng.Float64()*4 - 1
			}
			b[i] = rng.Float64() * 10
		}
		for j := 0; j < n; j++ {
			c[j] = rng.Float64()*4 - 1
		}
		// Ensure boundedness: add a row of ones with positive rhs is not
		// enough if some a columns are all negative; add the box row
		// sum(x) <= 20 which bounds everything.
		box := make([]float64, n)
		for j := range box {
			box[j] = 1
		}
		a = append(a, box)
		b = append(b, 20)
		m++

		primal := NewProblem(Maximize)
		xs := make([]Var, n)
		for j := 0; j < n; j++ {
			xs[j] = primal.AddVar(c[j])
		}
		for i := 0; i < m; i++ {
			row := make(map[Var]float64, n)
			for j := 0; j < n; j++ {
				row[xs[j]] = a[i][j]
			}
			if err := primal.AddConstraint(row, LE, b[i]); err != nil {
				t.Fatal(err)
			}
		}
		psol, err := primal.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d primal: %v", trial, err)
		}
		if psol.Status != Optimal {
			t.Fatalf("trial %d: primal status %v (should be bounded and feasible)", trial, psol.Status)
		}

		dual := NewProblem(Minimize)
		ys := make([]Var, m)
		for i := 0; i < m; i++ {
			ys[i] = dual.AddVar(b[i])
		}
		for j := 0; j < n; j++ {
			row := make(map[Var]float64, m)
			for i := 0; i < m; i++ {
				row[ys[i]] = a[i][j]
			}
			if err := dual.AddConstraint(row, GE, c[j]); err != nil {
				t.Fatal(err)
			}
		}
		dsol, err := dual.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d dual: %v", trial, err)
		}
		if dsol.Status != Optimal {
			t.Fatalf("trial %d: dual status %v (strong duality demands optimal)", trial, dsol.Status)
		}
		if math.Abs(psol.Objective-dsol.Objective) > 1e-6*(1+math.Abs(psol.Objective)) {
			t.Errorf("trial %d: duality gap %.9f (primal %.6f, dual %.6f)",
				trial, psol.Objective-dsol.Objective, psol.Objective, dsol.Objective)
		}
		// Each solve's own duals certify it: b·y equals the objective
		// and y is dual-feasible. The primal's duals solve the dual LP.
		checkDuals(t, primal, psol)
		checkDuals(t, dual, dsol)
		by := 0.0
		for i, y := range psol.Duals {
			by += b[i] * y
		}
		if math.Abs(by-dsol.Objective) > 1e-6*(1+math.Abs(dsol.Objective)) {
			t.Errorf("trial %d: primal duals give b.y = %.9f, dual LP optimum %.9f", trial, by, dsol.Objective)
		}
	}
}

// TestComplementarySlackness spot-checks one solved pair: active primal
// constraints may carry dual weight, inactive ones must not (verified
// via the duality gap decomposition).
func TestComplementarySlackness(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18: optimum (2,6).
	p := NewProblem(Maximize)
	x := p.AddVar(3)
	y := p.AddVar(5)
	rows := []struct {
		coefs map[Var]float64
		rhs   float64
	}{
		{map[Var]float64{x: 1}, 4},
		{map[Var]float64{y: 2}, 12},
		{map[Var]float64{x: 3, y: 2}, 18},
	}
	for _, r := range rows {
		if err := p.AddConstraint(r.coefs, LE, r.rhs); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Constraint 0 is slack at (2,6): x=2 < 4. Constraints 1 and 2 are
	// tight. Verify directly from the solution.
	if got := sol.Value(x); math.Abs(got-2) > 1e-9 {
		t.Fatalf("x = %g", got)
	}
	slack0 := 4 - sol.Value(x)
	tight1 := 12 - 2*sol.Value(y)
	tight2 := 18 - 3*sol.Value(x) - 2*sol.Value(y)
	if slack0 <= 1e-9 {
		t.Error("constraint 0 should be slack")
	}
	if math.Abs(tight1) > 1e-9 || math.Abs(tight2) > 1e-9 {
		t.Errorf("constraints 1,2 should be tight: %g, %g", tight1, tight2)
	}
}
