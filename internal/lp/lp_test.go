package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func solveOrFatal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.SolveContext(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestMaximizeSimple(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
	p := NewProblem(Maximize)
	x := p.AddVar(3)
	y := p.AddVar(5)
	mustCons(t, p, "c1", map[Var]float64{x: 1}, LE, 4)
	mustCons(t, p, "c2", map[Var]float64{y: 2}, LE, 12)
	mustCons(t, p, "c3", map[Var]float64{x: 3, y: 2}, LE, 18)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-36) > 1e-9 {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-9 || math.Abs(sol.Value(y)-6) > 1e-9 {
		t.Errorf("x=%g y=%g, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2 => x=10? obj: put all weight
	// on x: x=10,y=0 -> 20; but x>=2 anyway. Optimal 20.
	p := NewProblem(Minimize)
	x := p.AddVar(2)
	y := p.AddVar(3)
	mustCons(t, p, "sum", map[Var]float64{x: 1, y: 1}, GE, 10)
	mustCons(t, p, "xmin", map[Var]float64{x: 1}, GE, 2)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-20) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 20", sol.Status, sol.Objective)
	}
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + y = 5, x <= 3 -> obj 5.
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(1)
	mustCons(t, p, "eq", map[Var]float64{x: 1, y: 1}, EQ, 5)
	mustCons(t, p, "cap", map[Var]float64{x: 1}, LE, 3)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 5", sol.Status, sol.Objective)
	}
	if got := sol.Value(x) + sol.Value(y); math.Abs(got-5) > 1e-9 {
		t.Errorf("x+y = %g, want exactly 5", got)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	mustCons(t, p, "lo", map[Var]float64{x: 1}, GE, 5)
	mustCons(t, p, "hi", map[Var]float64{x: 1}, LE, 3)
	sol := solveOrFatal(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar(1)
	y := p.AddVar(1)
	mustCons(t, p, "a", map[Var]float64{x: 1, y: 1}, EQ, 4)
	mustCons(t, p, "b", map[Var]float64{x: 1, y: 1}, EQ, 6)
	sol := solveOrFatal(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(0)
	mustCons(t, p, "c", map[Var]float64{y: 1}, LE, 1)
	_ = x
	sol := solveOrFatal(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 is y - x >= 2. max x s.t. x - y <= -2, y <= 5 -> x=3.
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(0)
	mustCons(t, p, "neg", map[Var]float64{x: 1, y: -1}, LE, -2)
	mustCons(t, p, "cap", map[Var]float64{y: 1}, LE, 5)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestNegativeRHSGE(t *testing.T) {
	// -x >= -4  <=>  x <= 4. max x -> 4.
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	mustCons(t, p, "c", map[Var]float64{x: -1}, GE, -4)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 4", sol.Status, sol.Objective)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's cycling example; must terminate via Bland fallback.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1
	// Optimum: -0.05.
	p := NewProblem(Minimize)
	x4 := p.AddVar(-0.75)
	x5 := p.AddVar(150)
	x6 := p.AddVar(-0.02)
	x7 := p.AddVar(6)
	mustCons(t, p, "r1", map[Var]float64{x4: 0.25, x5: -60, x6: -0.04, x7: 9}, LE, 0)
	mustCons(t, p, "r2", map[Var]float64{x4: 0.5, x5: -90, x6: -0.02, x7: 3}, LE, 0)
	mustCons(t, p, "r3", map[Var]float64{x6: 1}, LE, 1)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-(-0.05)) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal -0.05", sol.Status, sol.Objective)
	}
}

func TestZeroConstraints(t *testing.T) {
	// No constraints: max is unbounded, min is 0 at origin.
	pMax := NewProblem(Maximize)
	pMax.AddVar(1)
	sol := solveOrFatal(t, pMax)
	if sol.Status != Unbounded {
		t.Errorf("max no constraints: status = %v, want unbounded", sol.Status)
	}
	pMin := NewProblem(Minimize)
	x := pMin.AddVar(1)
	sol = solveOrFatal(t, pMin)
	//lint:ignore abw/floateq a variable the simplex never pivots in is exactly 0.0
	if sol.Status != Optimal || sol.Value(x) != 0 {
		t.Errorf("min no constraints: status=%v x=%g, want optimal 0", sol.Status, sol.Value(x))
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem(Maximize)
	if _, err := p.SolveContext(context.Background()); err == nil {
		t.Error("no variables: expected error")
	}
	x := p.AddVar(1)
	if err := p.AddConstraint(map[Var]float64{Var(99): 1}, LE, 1); err == nil {
		t.Error("unknown variable: expected error")
	}
	if err := p.AddConstraint(map[Var]float64{x: 1}, Rel(0), 1); err == nil {
		t.Error("invalid relation: expected error")
	}
	if err := p.AddConstraint(map[Var]float64{x: 1}, LE, math.NaN()); err == nil {
		t.Error("NaN rhs: expected error")
	}
	if err := p.AddConstraint(map[Var]float64{x: math.Inf(1)}, LE, 1); err == nil {
		t.Error("Inf coefficient: expected error")
	}
	if err := p.SetObjCoef(Var(99), 1); err == nil {
		t.Error("SetObjCoef out of range: expected error")
	}
	mustCons(t, p, "two", map[Var]float64{x: 1}, LE, 2)
	for _, c := range []struct {
		name string
		rows []int32
		vals []float64
	}{
		{"length mismatch", []int32{0}, nil},
		{"unknown row", []int32{1}, []float64{1}},
		{"rows out of order", []int32{0, 0}, []float64{1, 1}},
		{"NaN value", []int32{0}, []float64{math.NaN()}},
	} {
		if _, err := p.AddColumn(1, c.rows, c.vals); err == nil {
			t.Errorf("AddColumn with %s: expected error", c.name)
		}
	}
	if p.NumVars() != 1 {
		t.Errorf("rejected columns were added: %d variables", p.NumVars())
	}
	bad := &Problem{}
	bad.AddVar(1)
	if _, err := bad.SolveContext(context.Background()); err == nil {
		t.Error("zero-value sense: expected error")
	}
}

func TestSetObjCoef(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(0)
	mustCons(t, p, "cap", map[Var]float64{x: 1}, LE, 7)
	if err := p.SetObjCoef(x, 2); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFatal(t, p)
	if math.Abs(sol.Objective-14) > 1e-9 {
		t.Errorf("objective = %g, want 14", sol.Objective)
	}
}

func TestStatusAndRelStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("Status strings wrong")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Rel strings wrong")
	}
	if Status(9).String() != "Status(9)" || Rel(9).String() != "Rel(9)" {
		t.Error("unknown enum strings wrong")
	}
}

// TestRandomBoundedLPs generates random LPs with a guaranteed-feasible
// bounded region (box + random extra constraints satisfied by a known
// point) and checks that the returned optimum is feasible and at least
// as good as the known point and a cloud of random feasible points.
func TestRandomBoundedLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		p := NewProblem(Maximize)
		obj := make([]float64, n)
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.Float64()*4 - 1 // mostly positive
			vars[j] = p.AddVar(obj[j])
		}
		// Box: x_j <= 10 keeps everything bounded.
		for j := 0; j < n; j++ {
			mustCons(t, p, "box", map[Var]float64{vars[j]: 1}, LE, 10)
		}
		// A known interior point.
		point := make([]float64, n)
		for j := range point {
			point[j] = rng.Float64() * 5
		}
		// Random extra constraints that the known point satisfies.
		type row struct {
			coefs map[Var]float64
			rel   Rel
			rhs   float64
		}
		var rows []row
		for k := 0; k < 1+rng.Intn(4); k++ {
			coefs := make(map[Var]float64, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				c := rng.Float64()*2 - 0.5
				coefs[vars[j]] = c
				lhs += c * point[j]
			}
			slackAmt := rng.Float64() * 3
			rel := LE
			rhs := lhs + slackAmt
			if rng.Intn(2) == 0 {
				rel = GE
				rhs = lhs - slackAmt
			}
			mustCons(t, p, "extra", coefs, rel, rhs)
			rows = append(rows, row{coefs: coefs, rel: rel, rhs: rhs})
		}
		sol := solveOrFatal(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for a feasible bounded LP", trial, sol.Status)
		}
		// Solution must satisfy every constraint.
		for j := 0; j < n; j++ {
			x := sol.Value(vars[j])
			if x < -1e-7 || x > 10+1e-7 {
				t.Errorf("trial %d: x%d = %g outside [0,10]", trial, j, x)
			}
		}
		for ri, r := range rows {
			lhs := 0.0
			for v, c := range r.coefs {
				lhs += c * sol.Value(v)
			}
			switch r.rel {
			case LE:
				if lhs > r.rhs+1e-6 {
					t.Errorf("trial %d: row %d violated: %g > %g", trial, ri, lhs, r.rhs)
				}
			case GE:
				if lhs < r.rhs-1e-6 {
					t.Errorf("trial %d: row %d violated: %g < %g", trial, ri, lhs, r.rhs)
				}
			}
		}
		// Optimality vs the known point.
		known := 0.0
		for j := 0; j < n; j++ {
			known += obj[j] * point[j]
		}
		if sol.Objective < known-1e-6 {
			t.Errorf("trial %d: objective %g worse than known feasible %g", trial, sol.Objective, known)
		}
	}
}

func mustCons(t *testing.T, p *Problem, name string, coefs map[Var]float64, rel Rel, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(coefs, rel, rhs); err != nil {
		t.Fatalf("AddConstraint(%s): %v", name, err)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Linearly dependent but consistent equalities exercise the
	// redundant-row handling after phase 1 (an artificial stays basic at
	// zero and must not corrupt phase 2).
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(1)
	mustCons(t, p, "eq1", map[Var]float64{x: 1, y: 1}, EQ, 6)
	mustCons(t, p, "eq2", map[Var]float64{x: 2, y: 2}, EQ, 12) // 2x the first
	mustCons(t, p, "cap", map[Var]float64{x: 1}, LE, 4)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-6) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 6", sol.Status, sol.Objective)
	}
	if got := sol.Value(x) + sol.Value(y); math.Abs(got-6) > 1e-9 {
		t.Errorf("x+y = %g, want 6", got)
	}
}

func TestDuplicateConstraints(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	for i := 0; i < 5; i++ {
		mustCons(t, p, "dup", map[Var]float64{x: 1}, LE, 3)
	}
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Errorf("status=%v obj=%g, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestZeroCoefficientDropped(t *testing.T) {
	// Zero coefficients are pruned at AddConstraint; the row must behave
	// as if the variable were absent.
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(1)
	mustCons(t, p, "c", map[Var]float64{x: 1, y: 0}, LE, 2)
	mustCons(t, p, "cy", map[Var]float64{y: 1}, LE, 5)
	sol := solveOrFatal(t, p)
	if math.Abs(sol.Objective-7) > 1e-9 {
		t.Errorf("obj = %g, want 7 (y unconstrained by the zero-coef row)", sol.Objective)
	}
}

// TestRatioTestStaleMinimum pins the two-pass ratio test against a
// basis crafted so a single-pass test with folded-in tie-breaking goes
// wrong: the true minimum ratio appears on a row that loses the Bland
// tie-break, so minRatio is never tightened, and a later row whose
// ratio is genuinely larger (but within pivotTol of the stale bound)
// wins on basis index. Pivoting there drives the amplified first row's
// basic variable to about -5e-4 — far past any tolerance — while the
// correct pivot keeps every basic variable within ~1e-9 of feasibility.
func TestRatioTestStaleMinimum(t *testing.T) {
	// Columns 1, 2 and 5 are unit columns, so with basis {2, 5, 1} the
	// system below is already in canonical form: B⁻¹ = I, x_B = rhs.
	rows := [][]float64{
		// col:  0     1    2    3    4    5    rhs        ratio
		{1e6, 0, 1, 0, 0, 0, 1e6},      // 1.0        basis 2
		{1, 0, 0, 0, 0, 1, 1 - 0.8e-9}, // 1 - 0.8e-9 basis 5 (true min)
		{1, 1, 0, 0, 0, 0, 1 + 0.5e-9}, // 1 + 0.5e-9 basis 1
	}
	p := NewProblem(Minimize)
	xs := make([]Var, 6)
	for j := range xs {
		xs[j] = p.AddVar(0)
	}
	if err := p.SetObjCoef(xs[0], -1); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		coefs := make(map[Var]float64, 6)
		for j, v := range r[:6] {
			coefs[xs[j]] = v
		}
		mustCons(t, p, "row", coefs, EQ, r[6])
	}
	s := p.newState()
	copy(s.basis, []int{2, 5, 1})
	w := s.newWork()
	s.ftran(0, w.d)
	if got := ratioTest(w.d, s.xB, s.basis); got != 0 {
		t.Fatalf("ratioTest picked row %d, want 0 (lowest basis index among near-minimum ratios)", got)
	}

	s.phase2Costs(w.c)
	status, err := s.primal(nil, w, s.artFrom)
	if err != nil {
		t.Fatalf("simplex: %v", err)
	}
	if status != Optimal {
		t.Fatalf("status = %v, want Optimal", status)
	}
	for i, v := range s.xB {
		if v < -1e-6 {
			t.Errorf("row %d: basic variable driven to %g by a bad leaving-row choice", i, v)
		}
	}
}

// TestDegenerateTieBreakSolve exercises the public solver on a
// degenerate LP whose optimum sits on several coincident basic
// solutions, so the ratio test repeatedly faces exact and near ties.
func TestDegenerateTieBreakSolve(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar(1)
	y := p.AddVar(1)
	// x <= 1, y <= 1, x+y <= 2 (redundant: optimum vertex is degenerate).
	mustCons(t, p, "c1", map[Var]float64{x: 1}, LE, 1)
	mustCons(t, p, "c2", map[Var]float64{y: 1}, LE, 1)
	mustCons(t, p, "c3", map[Var]float64{x: 1, y: 1}, LE, 2)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("objective = %g, want 2", sol.Objective)
	}
	for i, v := range sol.X {
		if v < -1e-9 {
			t.Fatalf("x[%d] = %g, want nonnegative", i, v)
		}
	}
}

// TestPricingBandEntersLowestIndex pins the banded Dantzig tie-break:
// two columns whose reduced costs are equal in exact arithmetic (0.3
// and 0.1+0.2) but one ulp apart as computed must tie, so the
// lower-index column enters. Entering the other one lands on a
// different optimal vertex of the same objective value.
func TestPricingBandEntersLowestIndex(t *testing.T) {
	a, b := 0.1, 0.2 // variables: constant folding would sum exactly
	lo, hi := 0.3, a+b
	//lint:ignore abw/floateq the premise is a bit-exact one-ulp gap
	if math.Nextafter(lo, 1) != hi {
		t.Fatalf("test premise: %v and %v are not one ulp apart", lo, hi)
	}
	p := NewProblem(Maximize)
	x0 := p.AddVar(lo)
	x1 := p.AddVar(hi)
	mustCons(t, p, "share", map[Var]float64{x0: 1, x1: 1}, LE, 1)
	sol := solveOrFatal(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	//lint:ignore abw/floateq one pivot on a unit column leaves exact values
	if sol.Value(x0) != 1 || sol.Value(x1) != 0 {
		t.Errorf("x = (%g, %g), want (1, 0): the lower-index tied column must enter", sol.Value(x0), sol.Value(x1))
	}
	if sol.Pivots != 1 {
		t.Errorf("pivots = %d, want 1", sol.Pivots)
	}
}
