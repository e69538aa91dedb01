// Package lp is a self-contained linear-programming solver used by the
// availability model: a two-phase revised simplex over sparse columns,
// with a small modeling layer (variables, relational constraints, or
// whole columns). The paper's LPs are tiny by LP standards — tens of
// rows, up to a few thousand columns — and each Eq. 6 column touches
// only the links of one independent set. So the problem keeps its
// matrix as sparse columns (row indices ascending, stored when a
// constraint or column is added), and the solver keeps only the
// explicit m×m basis inverse B⁻¹, the basis and the basic values: a
// pivot costs one O(m²) inverse update plus one sparse dot product per
// column for pricing. Pricing is Dantzig's rule with a banded
// lowest-index tie-break, falling back to Bland's rule to break
// cycling; the ratio test is two-pass (DESIGN.md Sec. 8 invariant 5).
//
// A solve can also start from a named basis instead of from phase 1
// (SolveFromContext, start.go): a caller that has solved a related LP
// (SolveWithBasisContext reports its optimal basis) maps that basis
// onto this one, the solver installs it and, when it is a primal
// feasible basis, runs phase 2 only; any other start falls back to the
// two-phase solve. WarmSolver (warm.go) re-solves one problem across
// right-hand-side changes by dual simplex from its retained state.
//
// All variables are non-negative; encode free variables as differences
// if ever needed. Infeasibility and unboundedness are reported through
// Solution.Status, not errors: they are expected outcomes of the
// admission-control questions this package answers.
package lp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// Sense is the optimization direction.
type Sense int

// Optimization senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	// LE is <=.
	LE Rel = iota + 1
	// GE is >=.
	GE
	// EQ is =.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Var identifies a decision variable (a structural column) within one
// Problem.
type Var int

type row struct {
	rel Rel
	rhs float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
//
// The constraint matrix is stored by column in one flat array pair:
// column j's nonzeros are rowIx[start[j]:start[j+1]] (rows strictly
// ascending) with values vals[start[j]:start[j+1]].
type Problem struct {
	sense Sense
	obj   []float64
	start []int32
	rowIx []int32
	vals  []float64
	rows  []row
}

// NewProblem returns an empty problem with the given sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense, start: []int32{0}}
}

// AddVar adds a non-negative decision variable with the given objective
// coefficient and no constraint coefficients yet, and returns its
// handle.
func (p *Problem) AddVar(objCoef float64) Var {
	p.obj = append(p.obj, objCoef)
	p.start = append(p.start, int32(len(p.rowIx)))
	return Var(len(p.obj) - 1)
}

// AddColumn adds a variable with its whole column at once: value
// vals[e] in constraint rows[e]. Rows must be strictly ascending and
// already added. Both slices are copied.
func (p *Problem) AddColumn(objCoef float64, rows []int32, vals []float64) (Var, error) {
	if len(rows) != len(vals) {
		return 0, fmt.Errorf("lp: column has %d rows but %d values", len(rows), len(vals))
	}
	for e, r := range rows {
		if r < 0 || int(r) >= len(p.rows) || (e > 0 && r <= rows[e-1]) {
			return 0, fmt.Errorf("lp: column row %d out of range or out of order", r)
		}
		if math.IsNaN(vals[e]) || math.IsInf(vals[e], 0) {
			return 0, fmt.Errorf("lp: column has non-finite value %g in row %d", vals[e], r)
		}
	}
	p.rowIx = append(p.rowIx, rows...)
	p.vals = append(p.vals, vals...)
	return p.AddVar(objCoef), nil
}

// Reserve pre-sizes internal storage for an expected number of
// variables, constraints and nonzeros, avoiding repeated growth when
// the caller knows the problem shape up front. It never shrinks.
func (p *Problem) Reserve(nVars, nCons, nnz int) {
	p.obj = slices.Grow(p.obj, max(0, nVars-len(p.obj)))
	p.start = slices.Grow(p.start, max(0, nVars+1-len(p.start)))
	p.rowIx = slices.Grow(p.rowIx, max(0, nnz-len(p.rowIx)))
	p.vals = slices.Grow(p.vals, max(0, nnz-len(p.vals)))
	p.rows = slices.Grow(p.rows, max(0, nCons-len(p.rows)))
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddRow adds the constraint (row) rel rhs with no coefficients yet and
// returns its index; AddColumn fills it in.
func (p *Problem) AddRow(rel Rel, rhs float64) (int, error) {
	if rel != LE && rel != GE && rel != EQ {
		return 0, fmt.Errorf("lp: constraint %d has invalid relation %d", len(p.rows), int(rel))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("lp: constraint %d has non-finite rhs %g", len(p.rows), rhs)
	}
	p.rows = append(p.rows, row{rel: rel, rhs: rhs})
	return len(p.rows) - 1, nil
}

// AddConstraint adds sum(coefs[v]*v) rel rhs. The new row's nonzeros
// are merged into their columns at once (the row index is the largest
// yet, so each goes last in its column), which costs time linear in
// the nonzeros so far: build large problems by column (AddRow, then
// AddColumn). The map is not retained. Unknown variables are rejected.
func (p *Problem) AddConstraint(coefs map[Var]float64, rel Rel, rhs float64) error {
	for v, c := range coefs {
		if int(v) < 0 || int(v) >= len(p.obj) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending variable names the error
			return fmt.Errorf("lp: constraint %d references unknown variable %d", len(p.rows), v)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending coefficient names the error
			return fmt.Errorf("lp: constraint %d has non-finite coefficient %g for x%d", len(p.rows), c, v)
		}
	}
	k, err := p.AddRow(rel, rhs)
	if err != nil {
		return err
	}
	rowIx := make([]int32, 0, len(p.rowIx)+len(coefs))
	vals := make([]float64, 0, len(p.vals)+len(coefs))
	for j := range p.obj {
		lo, hi := p.start[j], p.start[j+1]
		p.start[j] = int32(len(rowIx))
		rowIx = append(rowIx, p.rowIx[lo:hi]...)
		vals = append(vals, p.vals[lo:hi]...)
		//lint:ignore abw/floateq exact-zero sparsity skip: a true zero contributes nothing to any dot product
		if c := coefs[Var(j)]; c != 0 {
			rowIx = append(rowIx, int32(k))
			vals = append(vals, c)
		}
	}
	p.start[len(p.obj)] = int32(len(rowIx))
	p.rowIx, p.vals = rowIx, vals
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports whether an optimum was found.
	Status Status
	// Objective is the optimal objective value in the problem's own
	// sense; meaningful only when Status is Optimal.
	Objective float64
	// X holds the variable values; meaningful only when Status is
	// Optimal.
	X []float64
	// Duals holds one dual value per constraint, y = c_B·B⁻¹ from the
	// final phase-2 basis, in the problem's own sense: b·y equals
	// Objective. For a maximization an LE row's dual is >= 0 and a GE
	// row's <= 0 (signs flip for a minimization); EQ rows are free.
	// Meaningful only when Status is Optimal.
	Duals []float64
	// Pivots counts the simplex pivots this solve performed (both
	// phases; for a solve from a start basis, phase 2's; for a warm
	// resolve, the dual pivots plus any primal cleanup). It feeds the
	// cache-stats surface (internal/memo).
	Pivots int
}

// Value returns the optimal value of v (0 for out-of-range handles).
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}

// Tolerances and iteration limits of the simplex loop.
const (
	pivotTol    = 1e-9
	feasTol     = 1e-7
	blandAfter  = 5000
	maxPivots   = 200000
	reducedCost = 1e-9
	// priceBand is the Dantzig pricing tie band: every column whose
	// reduced cost lies within priceBand of the minimum counts as tied,
	// and the lowest-index one enters. Columns equal in exact arithmetic
	// but a few ulps apart as computed then enter in a fixed order.
	priceBand = 1e-10
)

// pivotCheckEvery is the countdown interval of the per-pivot
// cancellation check: one channel poll per 16 pivots keeps the simplex
// loop responsive (pivots on the paper's LPs are microseconds) while
// the uncancellable path pays only the nil-Checker branch.
const pivotCheckEvery = 16

// SolveContext runs the two-phase simplex. It returns an error only on
// malformed problems, on an internal failure to converge, or on
// cancellation; infeasible and unbounded programs come back as
// Solutions with the matching Status. The simplex loop polls
// ctx.Done() between pivots and abandons the solve with an error
// satisfying errors.Is(err, cancel.ErrCanceled) once ctx is cancelled;
// an uncancelled solve's pivots and answer do not depend on ctx.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPSolve)
	defer tm.End()
	sol, _, err := p.solve(cancel.NewChecker(ctx, pivotCheckEvery))
	if sol != nil {
		tm.AddPivots(int64(sol.Pivots))
	}
	return sol, err
}

// solve is SolveContext returning the final simplex state alongside the
// solution so WarmSolver (warm.go) can retain it across right-hand-side
// changes. The state is nil unless phase 2 ran to optimality (only then
// is the retained basis dual-feasible, the warm-start precondition). A
// nil chk means the solve cannot be cancelled.
func (p *Problem) solve(chk *cancel.Checker) (*Solution, *state, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	s := p.newState()
	w := s.newWork()

	// Phase 1: minimize the sum of artificials.
	if s.artFrom < len(w.c) {
		feasible, err := s.phase1(chk, w)
		if err != nil {
			return nil, nil, err
		}
		if !feasible {
			return &Solution{Status: Infeasible, Pivots: s.pivots}, nil, nil
		}
	}

	// Phase 2: original objective (as minimization), artificials barred.
	s.phase2Costs(w.c)
	status, err := s.primal(chk, w, s.artFrom)
	if err != nil {
		return nil, nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Pivots: s.pivots}, nil, nil
	}
	return s.solution(w), s, nil
}

// validate rejects a problem no solve can start on.
func (p *Problem) validate() error {
	if p.sense != Minimize && p.sense != Maximize {
		return fmt.Errorf("lp: invalid sense %d", int(p.sense))
	}
	if len(p.obj) == 0 {
		return fmt.Errorf("lp: no variables")
	}
	return nil
}

// SetRHS replaces the right-hand side of constraint k (in insertion
// order). WarmSolver turns this into an incremental update of the
// basic values; a plain SolveContext simply starts from the new value.
func (p *Problem) SetRHS(k int, rhs float64) error {
	if k < 0 || k >= len(p.rows) {
		return fmt.Errorf("lp: constraint %d out of range", k)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %d given non-finite rhs %g", k, rhs)
	}
	p.rows[k].rhs = rhs
	return nil
}

// RHS returns the current right-hand side of constraint k.
func (p *Problem) RHS(k int) float64 {
	if k < 0 || k >= len(p.rows) {
		return 0
	}
	return p.rows[k].rhs
}

// state is the revised simplex over p's normalized system, in which
// every row with a negative rhs is negated (sign) so the starting basic
// values are non-negative. Column j < n is structural; then come one
// slack per inequality row (+1 under LE, −1 under GE once normalized)
// and one artificial (+1) per GE or EQ row, artificials last, each
// group in row order. The starting basis — each row's LE slack or
// artificial — is the identity, so B⁻¹ starts as I.
//
// Only B⁻¹ (m×m, row-major), the basis, x_B = B⁻¹b and the O(m) layout
// of the slack and artificial columns live here; structural columns
// are read from p, so the state never copies the constraint matrix.
// SolveContext builds one per call; WarmSolver keeps it across bound
// changes.
type state struct {
	p       *Problem
	sign    []float64 // row normalization (±1), frozen at build
	auxRow  []int     // row of slack or artificial column n+k
	auxVal  []float64 // that column's one nonzero
	artFrom int       // first artificial column
	binv    []float64
	basis   []int
	xB      []float64

	// pivots counts every pivot performed on this state, across phases
	// and warm resolves.
	pivots int
}

// work is one solve's scratch, sized by the column count and never
// retained: costs and reduced costs per column, simplex multipliers
// (also with the row signs folded in) and the entering column per row,
// and basis membership per column.
type work struct {
	c, red   []float64
	y, ys, d []float64
	basic    []bool
}

// newState builds the starting state for p: rows normalized to a
// non-negative rhs, the identity basis on the LE slacks and the
// artificials.
func (p *Problem) newState() *state {
	n, m := len(p.obj), len(p.rows)
	s := &state{
		p:      p,
		sign:   make([]float64, m),
		auxRow: make([]int, 0, 2*m),
		auxVal: make([]float64, 0, 2*m),
		binv:   make([]float64, m*m),
		basis:  make([]int, m),
		xB:     make([]float64, m),
	}
	var artRows []int
	for i, r := range p.rows {
		rel := r.rel
		s.sign[i] = 1
		if r.rhs < 0 {
			s.sign[i] = -1
			if rel != EQ {
				rel = LE + GE - rel // row negation swaps LE and GE
			}
		}
		s.binv[i*m+i] = 1
		s.xB[i] = s.sign[i] * r.rhs
		if rel != EQ {
			s.basis[i] = n + len(s.auxRow)
			s.auxRow = append(s.auxRow, i)
			s.auxVal = append(s.auxVal, 1)
			if rel == GE {
				s.auxVal[len(s.auxVal)-1] = -1
			}
		}
		if rel != LE {
			artRows = append(artRows, i)
		}
	}
	s.artFrom = n + len(s.auxRow)
	for _, i := range artRows {
		s.basis[i] = n + len(s.auxRow)
		s.auxRow = append(s.auxRow, i)
		s.auxVal = append(s.auxVal, 1)
	}
	return s
}

func (s *state) newWork() *work {
	total, m := len(s.p.obj)+len(s.auxRow), len(s.basis)
	f := make([]float64, 2*total+3*m)
	w := &work{
		c:     f[:total],
		red:   f[total : 2*total],
		y:     f[2*total : 2*total+m],
		ys:    f[2*total+m : 2*total+2*m],
		d:     f[2*total+2*m:],
		basic: make([]bool, total),
	}
	for _, b := range s.basis {
		w.basic[b] = true
	}
	return w
}

// dot returns v·a_j for column j of the normalized system.
func (s *state) dot(v []float64, j int) float64 {
	p := s.p
	if n := len(p.obj); j >= n {
		return v[s.auxRow[j-n]] * s.auxVal[j-n]
	}
	lo, hi := p.start[j], p.start[j+1]
	vals := p.vals[lo:hi]
	sum := 0.0
	for e, r := range p.rowIx[lo:hi] {
		sum += v[r] * s.sign[r] * vals[e]
	}
	return sum
}

// binvRow returns row i of B⁻¹.
func (s *state) binvRow(i int) []float64 {
	m := len(s.basis)
	return s.binv[i*m : (i+1)*m]
}

// ftran fills d = B⁻¹·a_j, the entering column in the current basis.
func (s *state) ftran(j int, d []float64) {
	for i := range d {
		d[i] = s.dot(s.binvRow(i), j)
	}
}

// prices fills y = c_B·B⁻¹, accumulated row by row with true-zero basic
// costs skipped.
func (s *state) prices(c, y []float64) {
	for k := range y {
		y[k] = 0
	}
	for i, b := range s.basis {
		//lint:ignore abw/floateq exact-zero multiplier skip: omitting true-zero terms keeps the sum bit-identical
		if cb := c[b]; cb != 0 {
			for k, v := range s.binvRow(i) {
				y[k] += cb * v
			}
		}
	}
}

// phase2Costs fills c with the problem's objective in minimization form
// over the structural columns, zero elsewhere.
func (s *state) phase2Costs(c []float64) {
	for j := range c {
		c[j] = 0
		if j < len(s.p.obj) {
			c[j] = s.p.minSign() * s.p.obj[j]
		}
	}
}

// minSign is +1 for a minimization and −1 for a maximization: the
// factor that turns the objective into the minimization form solved.
func (p *Problem) minSign() float64 {
	if p.sense == Maximize {
		return -1
	}
	return 1
}

// phase1 minimizes the sum of artificials and drives any degenerate
// survivors out of the basis. It reports whether the problem is
// feasible.
func (s *state) phase1(chk *cancel.Checker, w *work) (bool, error) {
	for j := range w.c {
		w.c[j] = 0
		if j >= s.artFrom {
			w.c[j] = 1
		}
	}
	status, err := s.primal(chk, w, len(w.c))
	if err != nil {
		return false, fmt.Errorf("lp: phase 1: %w", err)
	}
	if status == Unbounded {
		return false, fmt.Errorf("lp: phase 1 unbounded (internal error)")
	}
	p1 := 0.0
	for i, b := range s.basis {
		if b >= s.artFrom {
			p1 += s.xB[i]
		}
	}
	if p1 > feasTol {
		return false, nil
	}
	// Drive any remaining (degenerate) artificials out of the basis:
	// pivot in the first non-artificial column with a usable entry in
	// the artificial's row of B⁻¹A.
	for i, b := range s.basis {
		if b < s.artFrom {
			continue
		}
		pivoted := false
		for j := 0; j < s.artFrom; j++ {
			if !w.basic[j] && math.Abs(s.dot(s.binvRow(i), j)) > pivotTol {
				s.ftran(j, w.d)
				s.pivot(i, j, w)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: the artificial stays basic at zero; it is
			// harmless because artificial columns are barred from
			// entering in phase 2.
			s.xB[i] = 0
		}
	}
	return true, nil
}

// solution extracts the optimal solution and the duals; w.c must hold
// the phase-2 costs.
func (s *state) solution(w *work) *Solution {
	p := s.p
	x := make([]float64, len(p.obj))
	for i, b := range s.basis {
		if b < len(x) {
			x[b] = s.xB[i]
		}
	}
	obj := 0.0
	for j, v := range x {
		obj += p.obj[j] * v
	}
	// The phase-2 costs are the minimization form; undo that and the
	// row normalization to state the duals in the problem's own terms.
	s.prices(w.c, w.y)
	duals := make([]float64, len(s.basis))
	for k, y := range w.y {
		duals[k] = p.minSign() * s.sign[k] * y
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: duals, Pivots: s.pivots}
}

// primal runs the primal simplex loop minimizing cost w.c over the
// columns below limit (artificials sit at or above it in phase 2). It
// returns Optimal or Unbounded. A non-nil chk is polled once per
// iteration (amortized by its countdown) and aborts the loop with the
// cancellation cause.
func (s *state) primal(chk *cancel.Checker, w *work, limit int) (Status, error) {
	if len(s.basis) == 0 {
		// With no rows, any variable with negative cost increases
		// without bound.
		for _, c := range w.c[:limit] {
			if c < -reducedCost {
				return Unbounded, nil
			}
		}
		return Optimal, nil
	}
	red := w.red[:limit]
	for iter := 0; iter < maxPivots; iter++ {
		if err := chk.Check(); err != nil {
			return 0, err
		}
		s.reducedCosts(w, red)
		entering := price(red, iter >= blandAfter)
		if entering < 0 {
			return Optimal, nil
		}
		s.ftran(entering, w.d)
		leaving := ratioTest(w.d, s.xB, s.basis)
		if leaving < 0 {
			return Unbounded, nil
		}
		s.pivot(leaving, entering, w)
	}
	return 0, fmt.Errorf("simplex did not converge within %d pivots", maxPivots)
}

// reducedCosts fills red with r_j = c_j − y·a_j, y = c_B·B⁻¹, for the
// columns it covers; basic columns have r_j = 0 and are never priced.
// The structural loop is the solver's hot spot, so it reads the sparse
// columns directly with the row signs folded into y once (exact, as
// every sign is ±1).
func (s *state) reducedCosts(w *work, red []float64) {
	s.prices(w.c, w.y)
	for k, y := range w.y {
		w.ys[k] = y * s.sign[k]
	}
	p := s.p
	for j := range red {
		red[j] = 0
		switch {
		case w.basic[j]:
		case j < len(p.obj):
			lo, hi := p.start[j], p.start[j+1]
			vals := p.vals[lo:hi]
			sum := 0.0
			for e, r := range p.rowIx[lo:hi] {
				sum += w.ys[r] * vals[e]
			}
			red[j] = w.c[j] - sum
		default:
			red[j] = w.c[j] - s.dot(w.y, j)
		}
	}
}

// price picks the entering column from the reduced costs: the
// lowest-index column within priceBand of the most negative reduced
// cost (Dantzig pricing with a banded tie-break), or under Bland's rule
// simply the first improving column. It returns -1 at optimality.
func price(red []float64, bland bool) int {
	best := -reducedCost
	for j, r := range red {
		if r < best {
			if bland {
				return j
			}
			best = r
		}
	}
	for j, r := range red {
		if r < -reducedCost && r <= best+priceBand {
			return j
		}
	}
	return -1
}

// ratioTest picks the leaving row for the entering column d = B⁻¹a_q:
// the row minimizing xB[i] / d[i] over rows with a positive pivot
// candidate, breaking near-ties (within pivotTol) toward the lowest
// basis index for Bland-style anti-cycling. Returns -1 when no row has
// a positive entry (the column is unbounded).
//
// The true minimum is established in a first pass before any tie-break
// runs: folding both into one pass can leave minRatio stale — or drag it
// upward through a chain of within-tolerance tie wins — so that a later,
// genuinely smaller ratio is compared against the wrong bound and the
// chosen pivot drives basic variables negative.
func ratioTest(d, xB []float64, basis []int) int {
	minRatio := math.Inf(1)
	for i, a := range d {
		if a > pivotTol {
			if ratio := xB[i] / a; ratio < minRatio {
				minRatio = ratio
			}
		}
	}
	leaving := -1
	for i, a := range d {
		if a > pivotTol {
			if ratio := xB[i] / a; ratio < minRatio+pivotTol &&
				(leaving < 0 || basis[i] < basis[leaving]) {
				leaving = i
			}
		}
	}
	return leaving
}

// pivot brings column q into the basis at row r, given its column
// d = B⁻¹a_q in w.d: a Gauss-Jordan step on B⁻¹ and x_B.
func (s *state) pivot(r, q int, w *work) {
	br := s.binvRow(r)
	pv := w.d[r]
	for k := range br {
		br[k] /= pv
	}
	s.xB[r] /= pv
	for i, f := range w.d {
		//lint:ignore abw/floateq exact-zero row skip: a true-zero multiplier contributes nothing; tolerance here would zero real entries
		if i == r || f == 0 {
			continue
		}
		bi := s.binvRow(i)
		for k, v := range br {
			bi[k] -= f * v
		}
		s.xB[i] -= f * s.xB[r]
	}
	w.basic[s.basis[r]] = false
	w.basic[q] = true
	s.basis[r] = q
	s.pivots++
}
