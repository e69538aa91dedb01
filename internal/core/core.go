// Package core implements the paper's primary contribution: the exact
// available-bandwidth model for a path with background traffic in a
// multirate, multihop wireless network (Sec. 2), together with the
// clique-derived upper bounds and independent-set lower bounds of
// Sec. 3.
//
// The exact model (Eq. 6) is a linear program over the maximal
// independent sets (coupled with maximum supported rate vectors) of the
// union of all involved paths: time shares lambda_alpha are assigned to
// the sets so that every background demand is met, the total share stays
// within one, and the throughput of the new path is maximized. Because
// the same link may appear with different rates in different sets, the
// optimum exploits time-varying link adaptation — the effect that breaks
// classical clique bounds (Sec. 3.2, reproduced in this package's
// bounds.go).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Flow is a routed traffic demand: a path and its end-to-end throughput
// requirement in Mbps.
type Flow struct {
	Path   topology.Path
	Demand float64
}

// Options configure the availability computations.
type Options struct {
	// SetLimit caps independent-set enumeration (0 = package default).
	SetLimit int
	// OmegaLimit caps the number of rate vectors the Eq. 9 upper-bound
	// LP enumerates (0 = 4096). The paper notes Omega can reach Z^L and
	// proposes restricted enumerations; exceeding the cap is an error.
	OmegaLimit int
	// Cache, when non-nil, memoizes complete set families across calls
	// keyed by (model fingerprint, universe, enumeration limit) and
	// collects solver statistics. When the cache carries an on-disk
	// store (memo.Cache.SetStore), misses additionally consult and
	// refill the spill directory, so the memo survives process
	// restarts. Safe because complete enumeration is deterministic: a
	// cached family — in memory or reloaded and revalidated from disk —
	// is byte-identical to a fresh one (DESIGN.md Sec. 8 and 11), so
	// results do not change — only their cost.
	Cache *memo.Cache
}

// indepOptions translates the core options into enumeration options.
func (o Options) indepOptions() indepset.Options {
	return indepset.Options{Limit: o.SetLimit}
}

// enumerate runs a complete maximal-set enumeration through the cache
// when one is configured (a nil cache passes straight through). The
// context cancels the walk; cancelled families are never cached.
func (o Options) enumerate(ctx context.Context, m conflict.Model, universe []topology.LinkID) ([]indepset.Set, error) {
	return o.Cache.EnumerateContext(ctx, m, universe, o.indepOptions())
}

// enumeratePartial is enumerate with graceful truncation; truncated
// families are never cached (their content depends on scheduling).
func (o Options) enumeratePartial(ctx context.Context, m conflict.Model, universe []topology.LinkID) ([]indepset.Set, bool, error) {
	return o.Cache.EnumeratePartialContext(ctx, m, universe, o.indepOptions())
}

func (o Options) omegaLimit() int {
	if o.OmegaLimit <= 0 {
		return 4096
	}
	return o.OmegaLimit
}

// Result is the outcome of an availability computation.
type Result struct {
	// Status is Optimal when the background demands are satisfiable;
	// Infeasible when the background alone cannot be delivered.
	Status lp.Status
	// Bandwidth is the maximum supportable throughput of the new path in
	// Mbps (the f_{K+1} of Eq. 6); meaningful only when Status is
	// Optimal.
	Bandwidth float64
	// Schedule delivers the background demands plus Bandwidth on the new
	// path; meaningful only when Status is Optimal.
	Schedule schedule.Schedule
	// Sets are the independent sets made available to the optimizer.
	Sets []indepset.Set
	// Links is the link universe P (union of all involved paths).
	Links []topology.LinkID
}

// AvailableBandwidthContext solves the paper's exact model (Eq. 6):
// the maximum throughput deliverable over newPath while every
// background flow keeps its demand, assuming globally optimal link
// scheduling. It enumerates the maximal independent sets of the union
// of all involved paths. Both the set enumeration and the Eq. 6 simplex
// poll ctx and abandon the computation with an error satisfying
// errors.Is(err, cancel.ErrCanceled) once it is cancelled.
func AvailableBandwidthContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, opts Options) (*Result, error) {
	universe, err := flowUniverse([]topology.Path{newPath}, background)
	if err != nil {
		return nil, err
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	pos := newLinkPos(universe)
	return solveEq6(ctx, pos, linkLoad(pos, background), newPath, sets, opts.Cache, nil)
}

// AvailableBandwidthLowerBoundContext is AvailableBandwidthContext with
// graceful degradation for large instances: when independent-set
// enumeration exceeds the limit, the LP runs over the truncated (still
// sound) set family and the result is a LOWER bound on the true
// availability (Sec. 3.3); Truncated reports when that happened.
// Cancellation wins over truncation: a cancelled call returns
// ErrCanceled and no bound.
func AvailableBandwidthLowerBoundContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, opts Options) (*Result, bool, error) {
	universe, err := flowUniverse([]topology.Path{newPath}, background)
	if err != nil {
		return nil, false, err
	}
	sets, truncated, err := opts.enumeratePartial(ctx, m, universe)
	if err != nil {
		return nil, false, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	pos := newLinkPos(universe)
	res, err := solveEq6(ctx, pos, linkLoad(pos, background), newPath, sets, opts.Cache, nil)
	if err != nil {
		return nil, truncated, err
	}
	return res, truncated, nil
}

// AvailableBandwidthWithSetsContext solves the Eq. 6 LP restricted to
// the given independent sets. With all maximal sets it is exact; with a
// subset it is the lower bound of Sec. 3.3 (the restricted solution
// space is contained in the true one).
//
// It solves the LP as a request does: a non-empty background is solved
// first (SolveBackgroundContext, which walks U_bg) and, when it is
// schedulable, Eq. 6 starts from its optimal basis. Given the complete
// family of U_bg ∪ newPath, the answer is therefore bit for bit
// Background.AvailableBandwidthContext's; a subset the start does not
// map onto solves two-phase. A background whose walk fails (the
// enumeration limit, a model with no walk) also solves two-phase. The
// background walk and both simplex runs poll ctx; see
// AvailableBandwidthContext.
func AvailableBandwidthWithSetsContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, sets []indepset.Set) (*Result, error) {
	universe, err := flowUniverse([]topology.Path{newPath}, background)
	if err != nil {
		return nil, err
	}
	var start *bgStart
	if len(background) > 0 {
		bg, err := SolveBackgroundContext(ctx, m, background, Options{})
		switch {
		case err == nil:
			start = bg.start
		case !errors.Is(err, indepset.ErrLimit) && !errors.Is(err, indepset.ErrUnsupportedModel):
			return nil, err
		}
	}
	pos := newLinkPos(universe)
	return solveEq6(ctx, pos, linkLoad(pos, background), newPath, sets, nil, start)
}

// solveEq6 solves Eq. 6 over the sets, a family of the universe, with
// the background demand aligned with it, reporting the solve's pivot
// count into the (possibly nil) cache's cold-solve counters. A non-nil
// start (a background basis over a universe the sets' universe
// contains) runs phase 2 from it; nil solves two-phase.
func solveEq6(ctx context.Context, universe linkPos, demand []float64, newPath topology.Path, sets []indepset.Set, cache *memo.Cache, start *bgStart) (*Result, error) {
	set, err := eq6LP(universe, sets, demand, newPath, nonVacuous)
	if err != nil {
		return nil, err
	}
	sol, err := set.prob.SolveFromContext(ctx, start.basis(sets, set, demand))
	if err != nil {
		return nil, fmt.Errorf("core: solving Eq.6 LP: %w", err)
	}
	cache.AddSolvePivots(false, sol.Pivots, 0)
	res := &Result{Status: sol.Status, Sets: sets, Links: universe.links}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Bandwidth = sol.Objective
	res.Schedule = scheduleOf(sets, sol.X)
	return res, nil
}

// MaxDemandScaleContext returns the largest theta such that every new
// flow j can be delivered at theta times its demand alongside the
// background (the paper's multi-flow extension of Sec. 2.5). theta >= 1
// means the new flows are jointly admissible. The second return is the
// delivering schedule at the optimum. Enumeration and the LP poll ctx;
// see AvailableBandwidthContext.
func MaxDemandScaleContext(ctx context.Context, m conflict.Model, background, newFlows []Flow, opts Options) (float64, schedule.Schedule, error) {
	if len(newFlows) == 0 {
		return 0, schedule.Schedule{}, fmt.Errorf("core: no new flows")
	}
	universe, err := flowUniverse(nil, background, newFlows)
	if err != nil {
		return 0, schedule.Schedule{}, err
	}
	for _, f := range newFlows {
		if f.Demand <= 0 {
			return 0, schedule.Schedule{}, fmt.Errorf("core: new flow demand must be positive, got %g", f.Demand)
		}
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return 0, schedule.Schedule{}, fmt.Errorf("core: enumerating independent sets: %w", err)
	}

	// theta's coefficient on each link is the new flows' demand summed
	// over their traversals of it.
	pos := newLinkPos(universe)
	set, err := buildSetLP(pos, sets, 0, linkLoad(pos, background), linkLoad(pos, newFlows), nonVacuous)
	if err != nil {
		return 0, schedule.Schedule{}, err
	}
	sol, err := set.prob.SolveContext(ctx)
	if err != nil {
		return 0, schedule.Schedule{}, fmt.Errorf("core: solving scale LP: %w", err)
	}
	opts.Cache.AddSolvePivots(false, sol.Pivots, 0)
	if sol.Status != lp.Optimal {
		return 0, schedule.Schedule{}, nil
	}
	return sol.Objective, scheduleOf(sets, sol.X), nil
}

// rowRule selects which per-link throughput rows buildSetLP keeps.
type rowRule int

const (
	// nonVacuous drops a link's row only when it has no coefficient and
	// no positive demand (Eq. 6, MaxDemandScaleContext, progressive
	// filling).
	nonVacuous rowRule = iota
	// allLinks keeps every link's row, so any later demand vector is a
	// pure right-hand-side change (Session).
	allLinks
	// demanded keeps only rows with a positive demand; with non-negative
	// rates every other row holds trivially (the feasibility LP).
	demanded
)

// setLP is the LP that Eq. 6 and its variants share over one set
// family.
type setLP struct {
	prob     *lp.Problem
	universe linkPos
	// rowOf maps a universe index to its throughput row, -1 when the
	// rule dropped it.
	rowOf []int
	// served[li] reports whether some set serves universe link li.
	served []bool
}

// buildSetLP builds, straight from the sets, the maximization LP
//
//	max lambdaCost·Σλ_i + v
//	s.t. Σλ_i <= 1                                   (when there are sets)
//	     Σ_i rate_i(l)·λ_i − extra[l]·v >= rhs[l]     (each kept link l)
//
// Column i < len(sets) is set i's time share λ_i: a 1 in the
// total-share row plus one nonzero per kept link the set serves (its
// rate). The optional column v (f, theta or the filling objective)
// comes last and exists when extra is non-nil. Rows follow universe
// order, so every caller with the same inputs builds the same LP.
func buildSetLP(universe linkPos, sets []indepset.Set, lambdaCost float64, rhs, extra []float64, rule rowRule) (setLP, error) {
	n := len(universe.links)
	// Locate every couple's universe index once (-1 when the link is
	// outside the universe or not served at a positive rate).
	nnz := 0
	for _, s := range sets {
		nnz += len(s.Couples)
	}
	at := make([]int32, 0, nnz)
	served := make([]bool, n)
	for _, s := range sets {
		for _, c := range s.Couples {
			li := -1
			if c.Rate > 0 {
				li = universe.of(c.Link)
			}
			if li >= 0 {
				served[li] = true
			}
			at = append(at, int32(li))
		}
	}

	prob := lp.NewProblem(lp.Maximize)
	prob.Reserve(len(sets)+1, n+1, nnz+len(sets)+n)
	if len(sets) > 0 {
		if _, err := prob.AddRow(lp.LE, 1); err != nil {
			return setLP{}, fmt.Errorf("core: %w", err)
		}
	}
	rowOf := make([]int, n)
	for li := range rowOf {
		rowOf[li] = -1
		hasExtra := extra != nil && extra[li] > 0
		if rule == allLinks || rhs[li] > 0 || (rule == nonVacuous && (served[li] || hasExtra)) {
			k, err := prob.AddRow(lp.GE, rhs[li])
			if err != nil {
				return setLP{}, fmt.Errorf("core: %w", err)
			}
			rowOf[li] = k
		}
	}

	// One column per set, built in reused scratch (AddColumn copies).
	// A link a set lists twice keeps its first rate, matching Set.Rate.
	var rows []int32
	var vals []float64
	claimed := make([]int, n)
	e := 0
	for i, s := range sets {
		rows, vals = append(rows[:0], 0), append(vals[:0], 1)
		for _, c := range s.Couples {
			li := at[e]
			e++
			if li < 0 || rowOf[li] < 0 || claimed[li] == i+1 {
				continue
			}
			claimed[li] = i + 1
			rows = append(rows, int32(rowOf[li]))
			vals = append(vals, float64(c.Rate))
		}
		// Couples come sorted by link, so this only ever reorders a
		// hand-built set.
		for a := 1; a < len(rows); a++ {
			for b := a; b > 0 && rows[b] < rows[b-1]; b-- {
				rows[b], rows[b-1] = rows[b-1], rows[b]
				vals[b], vals[b-1] = vals[b-1], vals[b]
			}
		}
		if _, err := prob.AddColumn(lambdaCost, rows, vals); err != nil {
			return setLP{}, fmt.Errorf("core: %w", err)
		}
	}
	if extra != nil {
		rows, vals = rows[:0], vals[:0]
		for li, x := range extra {
			if x > 0 && rowOf[li] >= 0 {
				rows = append(rows, int32(rowOf[li]))
				vals = append(vals, -x)
			}
		}
		if _, err := prob.AddColumn(1, rows, vals); err != nil {
			return setLP{}, fmt.Errorf("core: %w", err)
		}
	}
	return setLP{prob: prob, universe: universe, rowOf: rowOf, served: served}, nil
}

// eq6LP builds Eq. 6 for newPath over the family: the background
// demand as the rhs, and f, whose coefficient on a link is the number
// of times newPath traverses it, as the extra column.
func eq6LP(universe linkPos, sets []indepset.Set, demand []float64, newPath topology.Path, rule rowRule) (setLP, error) {
	return buildSetLP(universe, sets, 0, demand, linkLoad(universe, []Flow{{Path: newPath, Demand: 1}}), rule)
}

// scheduleOf turns the set time shares x[:len(sets)] of an optimal
// solution into a normalized schedule, dropping shares of 1e-12 or
// less.
func scheduleOf(sets []indepset.Set, x []float64) schedule.Schedule {
	var sched schedule.Schedule
	for i, s := range sets {
		if share := x[i]; share > 1e-12 {
			sched.Slots = append(sched.Slots, schedule.Slot{Set: s, Share: share})
		}
	}
	return sched.Normalized()
}

// linkPos locates links in an ascending universe: of(l) is l's
// position, -1 when l is outside it. Built once per LP build, it
// answers every couple lookup of buildSetLP, linkLoad and
// bgStart.basis from a table indexed by LinkID. A universe whose IDs
// spread over more than maxLinkSpan per link (no network's dense IDs
// do) keeps no table and binary-searches instead.
type linkPos struct {
	links []topology.LinkID
	lo    topology.LinkID
	pos   []int32 // pos[l-lo], -1 for IDs between universe links
}

const maxLinkSpan = 32

func newLinkPos(universe []topology.LinkID) linkPos {
	p := linkPos{links: universe}
	n := len(universe)
	if n == 0 {
		return p
	}
	// Unsigned, so the span of any two IDs is exact.
	span := uint64(universe[n-1]) - uint64(universe[0])
	if span >= uint64(maxLinkSpan*n+1024) {
		return p
	}
	p.lo = universe[0]
	p.pos = make([]int32, span+1)
	for i := range p.pos {
		p.pos[i] = -1
	}
	for i, l := range universe {
		p.pos[l-p.lo] = int32(i)
	}
	return p
}

func (p linkPos) of(link topology.LinkID) int {
	if p.pos == nil {
		i := sort.Search(len(p.links), func(i int) bool { return p.links[i] >= link })
		if i < len(p.links) && p.links[i] == link {
			return i
		}
		return -1
	}
	if i := uint64(link) - uint64(p.lo); i < uint64(len(p.pos)) {
		return int(p.pos[i])
	}
	return -1
}

// linkLoad aggregates the flows' demand per universe link, aligned with
// the universe: a flow contributes its demand to every occurrence of a
// link on its path, summed in flow then path order (linkDemand's
// order, so the sums are bit-identical).
func linkLoad(universe linkPos, flows []Flow) []float64 {
	out := make([]float64, len(universe.links))
	for _, f := range flows {
		for _, l := range f.Path {
			if li := universe.of(l); li >= 0 {
				out[li] += f.Demand
			}
		}
	}
	return out
}

// widen aligns demand, given over the ascending universe sub, with
// universe, an ascending superset of sub: the other links carry none.
// It equals linkLoad over universe of the flows demand was summed from,
// bit for bit.
func widen(demand []float64, sub, universe []topology.LinkID) []float64 {
	out := make([]float64, len(universe))
	j := 0
	for i, l := range sub {
		for universe[j] != l {
			j++
		}
		out[j] = demand[i]
	}
	return out
}

// flowUniverse checks a computation's inputs and returns its link
// universe P: the sorted union of the new paths' and every flow's path
// links. An empty new path is an error, checked first; the flow lists
// are then validated in turn.
func flowUniverse(newPaths []topology.Path, lists ...[]Flow) ([]topology.LinkID, error) {
	for _, p := range newPaths {
		if len(p) == 0 {
			return nil, fmt.Errorf("core: empty new path")
		}
	}
	n := len(newPaths)
	for _, flows := range lists {
		n += len(flows)
	}
	paths := append(make([]topology.Path, 0, n), newPaths...)
	for _, flows := range lists {
		if err := validateFlows(flows); err != nil {
			return nil, err
		}
		for _, f := range flows {
			paths = append(paths, f.Path)
		}
	}
	return topology.LinkUnion(paths...), nil
}

func validateFlows(flows []Flow) error {
	for i, f := range flows {
		if len(f.Path) == 0 {
			return fmt.Errorf("core: flow %d has empty path", i)
		}
		if f.Demand < 0 || math.IsNaN(f.Demand) || math.IsInf(f.Demand, 0) {
			return fmt.Errorf("core: flow %d has invalid demand %g", i, f.Demand)
		}
	}
	return nil
}

// linkDemand aggregates per-link background demand: a flow contributes
// its demand to every occurrence of a link on its path.
func linkDemand(flows []Flow) map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for _, f := range flows {
		for _, l := range f.Path {
			out[l] += f.Demand
		}
	}
	return out
}

func linkCount(path topology.Path) map[topology.LinkID]int {
	out := make(map[topology.LinkID]int, len(path))
	for _, l := range path {
		out[l]++
	}
	return out
}
