package lp

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// FuzzSimplex feeds the two-phase simplex random small LPs decoded from
// raw bytes and asserts the solver's safety contract: it terminates
// without an internal error, and any solution it reports Optimal is
// primal-feasible — every constraint satisfied within feasTol-scale
// slack, all variables non-negative, objective equal to c·x — and
// carries duals that are dual-feasible with b·y equal to the objective.
//
// Coefficients are dyadic rationals (int8/8), which makes degenerate
// ties and exactly-zero pivots common — the regime the two-pass ratio
// test and Bland fallback exist for.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{2, 3, 1, 8, 16, 24, 0, 40, 1, 2, 3, 100, 1, 80, 2, 8, 8})
	f.Add([]byte{1, 1, 0, 248, 1, 8, 200})               // minimize -x st x <= trouble
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // all-zero degenerate
	f.Add([]byte{2, 2, 0, 8, 8, 1, 8, 248, 0, 2, 248, 8, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, ok := decodeProblem(data)
		if !ok {
			return
		}
		sol, err := p.SolveContext(context.Background())
		if err != nil {
			// Malformed inputs are screened out by the decoder, so the
			// only sanctioned error is the pivot-limit bailout.
			t.Fatalf("solve failed: %v", err)
		}
		if sol.Status != Optimal {
			return
		}
		checkPrimalFeasible(t, p, sol)
		checkDuals(t, p, sol)
	})
}

// FuzzWarmResolve decodes a small LP plus a sequence of right-hand-side
// changes (two bytes each: constraint, new dyadic rhs) and asserts the
// warm-start contract after every change: ResolveContext agrees with a fresh
// cold Solve of the same data — equal status, objectives within 1e-7
// relative — and a warm optimum is primal- and dual-feasible.
func FuzzWarmResolve(f *testing.F) {
	f.Add([]byte{2, 3, 1, 8, 16, 24, 0, 40, 1, 2, 3, 100, 1, 80, 2, 8, 8, 0, 16, 2, 240, 1, 4})
	f.Add([]byte{1, 2, 1, 8, 0, 8, 16, 1, 8, 8, 1, 200, 1, 40, 1, 0})
	f.Add([]byte{3, 3, 0, 8, 248, 16, 0, 8, 8, 8, 32, 2, 8, 0, 8, 8, 0, 8, 8, 8, 64, 0, 8, 1, 248, 2, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ops, ok := decodeProblem(data)
		if !ok || p.NumConstraints() == 0 {
			return
		}
		w := NewWarmSolver(p)
		if _, _, err := w.ResolveContext(context.Background()); err != nil {
			t.Fatalf("cold solve failed: %v", err)
		}
		for step := 0; step+1 < len(ops) && step < 16; step += 2 {
			k := int(ops[step]) % p.NumConstraints()
			if err := w.SetRHS(k, float64(int8(ops[step+1]))/8); err != nil {
				t.Fatalf("SetRHS: %v", err)
			}
			got, _, err := w.ResolveContext(context.Background())
			if err != nil {
				t.Fatalf("step %d: resolve failed: %v", step/2, err)
			}
			want, err := cloneProblem(p).SolveContext(context.Background())
			if err != nil {
				t.Fatalf("step %d: reference solve failed: %v", step/2, err)
			}
			if got.Status != want.Status {
				t.Fatalf("step %d: resolve status %v, cold %v", step/2, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-7*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("step %d: resolve objective %.12g, cold %.12g", step/2, got.Objective, want.Objective)
			}
			checkPrimalFeasible(t, p, got)
			checkDuals(t, p, got)
		}
	})
}

// FuzzSolveFrom decodes a small LP (FuzzWarmResolve's decoder) and a
// candidate start from one of two sources, chosen by the first
// remaining byte: the optimal basis of the same LP after a
// fuzzer-chosen right-hand-side change, or fuzzer-chosen column and
// slack indices (a byte per row; one byte in eight names an artificial
// row instead). It asserts the start contract: the same status as the
// two-phase Solve, an objective within 1e-7 relative, a primal- and
// dual-feasible optimum, and, when the start is refused, the two-phase
// solution bit for bit.
func FuzzSolveFrom(f *testing.F) {
	f.Add([]byte{2, 3, 1, 8, 16, 24, 0, 40, 1, 2, 3, 100, 1, 80, 2, 8, 8, 0, 1, 16})
	f.Add([]byte{2, 3, 1, 8, 16, 24, 0, 40, 1, 2, 3, 100, 1, 80, 2, 8, 8, 1, 0, 2, 4})
	f.Add([]byte{3, 3, 0, 8, 248, 16, 0, 8, 8, 8, 32, 2, 8, 0, 8, 8, 0, 8, 8, 8, 64, 0, 8, 0, 2, 240})
	f.Add([]byte{3, 2, 1, 8, 8, 8, 1, 8, 0, 8, 16, 0, 8, 8, 0, 24, 1, 0, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ops, ok := decodeProblem(data)
		if !ok || len(ops) < 2 {
			return
		}
		want, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatalf("two-phase solve failed: %v", err)
		}
		var start *Basis
		if ops[0]%2 == 0 {
			if p.NumConstraints() == 0 || len(ops) < 3 {
				return
			}
			q := cloneProblem(p)
			if err := q.SetRHS(int(ops[1])%q.NumConstraints(), float64(int8(ops[2]))/8); err != nil {
				t.Fatal(err)
			}
			if _, start, err = q.SolveWithBasisContext(context.Background()); err != nil {
				t.Fatalf("neighbour solve failed: %v", err)
			}
			if start == nil {
				return
			}
		} else {
			// One entry per row (fewer when the bytes run out); an index
			// one past the end is out of range.
			start = &Basis{}
			for _, b := range ops[1:min(len(ops), 1+p.NumConstraints())] {
				switch k := int(b >> 3); b % 8 {
				case 0, 1, 2, 3:
					start.Vars = append(start.Vars, Var(k%(p.NumVars()+1)))
				case 4, 5, 6:
					start.Slacks = append(start.Slacks, k%(p.NumConstraints()+1))
				default:
					start.Artificials = append(start.Artificials, k%(p.NumConstraints()+1))
				}
			}
		}
		got, _, reason, err := p.solveFrom(nil, start)
		if err != nil {
			t.Fatalf("started solve failed: %v", err)
		}
		if reason != "" && !reflect.DeepEqual(got, want) {
			t.Fatalf("start refused (%s) but the solution %+v is not the two-phase %+v", reason, got, want)
		}
		if got.Status != want.Status {
			t.Fatalf("started status %v, two-phase %v (start %+v)", got.Status, want.Status, start)
		}
		if got.Status != Optimal {
			return
		}
		if diff := math.Abs(got.Objective - want.Objective); diff > 1e-7*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("started objective %.12g, two-phase %.12g (start %+v)", got.Objective, want.Objective, start)
		}
		checkPrimalFeasible(t, p, got)
		checkDuals(t, p, got)
	})
}

// decodeProblem builds an LP with up to 6 variables and 6 constraints
// from the fuzz payload and returns the bytes it did not consume.
// Returns ok=false when the payload is too short to name a shape.
func decodeProblem(data []byte) (*Problem, []byte, bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	nVars := 1 + int(data[0])%6
	nCons := int(data[1]) % 7
	sense := Minimize
	if data[2]%2 == 1 {
		sense = Maximize
	}
	next := 3
	byteAt := func() byte {
		if next >= len(data) {
			return 0
		}
		b := data[next]
		next++
		return b
	}
	// Dyadic coefficients in [-16, 15.875]: exact in float64, tie-rich.
	coefAt := func() float64 { return float64(int8(byteAt())) / 8 }

	p := NewProblem(sense)
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = p.AddVar(coefAt())
	}
	for c := 0; c < nCons; c++ {
		rel := []Rel{LE, GE, EQ}[byteAt()%3]
		coefs := make(map[Var]float64, nVars)
		for _, v := range vars {
			coefs[v] = coefAt()
		}
		rhs := coefAt()
		if err := p.AddConstraint(coefs, rel, rhs); err != nil {
			return nil, nil, false
		}
	}
	if next > len(data) {
		next = len(data)
	}
	return p, data[next:], true
}

// rowActivity returns A·x, one value per constraint.
func rowActivity(p *Problem, x []float64) []float64 {
	lhs := make([]float64, p.NumConstraints())
	for j := range p.obj {
		for e := p.start[j]; e < p.start[j+1]; e++ {
			lhs[p.rowIx[e]] += p.vals[e] * x[j]
		}
	}
	return lhs
}

// checkPrimalFeasible verifies a reported optimum against the problem
// it came from.
func checkPrimalFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	const slack = 1e-6
	if len(sol.X) != p.NumVars() {
		t.Fatalf("solution has %d values for %d variables", len(sol.X), p.NumVars())
	}
	for i, x := range sol.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("x[%d] = %g is not finite", i, x)
		}
		if x < -slack {
			t.Fatalf("x[%d] = %g violates non-negativity", i, x)
		}
	}
	obj := 0.0
	for i, x := range sol.X {
		obj += p.obj[i] * x
	}
	scale := 1.0 + math.Abs(sol.Objective)
	if math.Abs(obj-sol.Objective) > slack*scale {
		t.Fatalf("objective %g does not match c.x = %g", sol.Objective, obj)
	}
	lhs := rowActivity(p, sol.X)
	for k, r := range p.rows {
		rowScale := 1.0 + math.Abs(r.rhs)
		switch r.rel {
		case LE:
			if lhs[k] > r.rhs+slack*rowScale {
				t.Fatalf("constraint violated: %g <= %g", lhs[k], r.rhs)
			}
		case GE:
			if lhs[k] < r.rhs-slack*rowScale {
				t.Fatalf("constraint violated: %g >= %g", lhs[k], r.rhs)
			}
		case EQ:
			if math.Abs(lhs[k]-r.rhs) > slack*rowScale {
				t.Fatalf("constraint violated: %g = %g", lhs[k], r.rhs)
			}
		}
	}
}

// checkDuals verifies a reported optimum's duals: strong duality
// (b·y = objective) and dual feasibility in the problem's own sense —
// each dual's sign matches its row's relation, and every reduced cost
// c_j − y·a_j has the optimal sign — all within rounding-scale slack.
func checkDuals(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	const slack = 1e-6
	if len(sol.Duals) != p.NumConstraints() {
		t.Fatalf("solution has %d duals for %d constraints", len(sol.Duals), p.NumConstraints())
	}
	// sense = +1 for a minimization, −1 for a maximization: the optimal
	// signs below are stated for a minimization and flip with it.
	sense := 1.0
	if p.sense == Maximize {
		sense = -1
	}
	by, byScale := 0.0, 1.0+math.Abs(sol.Objective)
	for k, r := range p.rows {
		y := sol.Duals[k]
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("dual %d = %g is not finite", k, y)
		}
		by += r.rhs * y
		byScale += math.Abs(r.rhs * y)
		if (r.rel == LE && sense*y > slack) || (r.rel == GE && sense*y < -slack) {
			t.Fatalf("dual %d = %g has the wrong sign for a %v row", k, y, r.rel)
		}
	}
	if math.Abs(by-sol.Objective) > slack*byScale {
		t.Fatalf("duality gap: b.y = %.12g, objective %.12g", by, sol.Objective)
	}
	for j := range p.obj {
		rc, rcScale := p.obj[j], 1.0+math.Abs(p.obj[j])
		for e := p.start[j]; e < p.start[j+1]; e++ {
			y := sol.Duals[p.rowIx[e]]
			rc -= y * p.vals[e]
			rcScale += math.Abs(y * p.vals[e])
		}
		if sense*rc < -slack*rcScale {
			t.Fatalf("column %d has reduced cost %g of the wrong sign", j, rc)
		}
	}
}
