package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Session amortizes repeated availability queries against one conflict
// model: the shape an admission loop produces, where the same
// (universe, candidate path) pair is solved again and again with only
// the background demands moving between steps. Background is its one
// entry point: it hands out the admitted flows' solved background,
// which routing's idle ratios, the Fig. 4 estimates and Eq. 6 all read.
// With Options.Cache three layers stack:
//
//  1. set families come from the cache: each background's family of
//     U_bg, and Eq. 6's family of U_bg ∪ P grown from it;
//  2. solved backgrounds are memoized by exact demand signature, so the
//     repeated "is the current background still deliverable, and which
//     nodes does it keep busy?" before each admission step costs a map
//     lookup. Each schedulable one keeps its feasibility LP's optimal
//     basis in link terms, and no set family: Eq. 6 grows U_bg's from
//     the cache's memory;
//  3. the Eq. 6 LP for each (universe, path) pair is built once with a
//     row for EVERY universe link (vacuous 0 >= 0 rows are harmless,
//     and make the structure independent of which links carry demand),
//     so a background change is a pure right-hand-side update the
//     retained lp.WarmSolver repairs in a few dual-simplex pivots. The
//     first solve of a new pair starts from the background's basis,
//     phase 2 only, as a cold Background does.
//
// Without a cache Background is SolveBackgroundContext and the session
// keeps nothing: no background and no LP. Each background holds its set
// family, which Eq. 6 grows by a delta walk, for as long as its caller
// does.
//
// Answers are exact: the warm-started or basis-started optimum matches
// a cold AvailableBandwidthContext solve within pivot-tolerance
// arithmetic noise (the session property tests pin this), and set
// families, feasibility schedules and idle ratios are bit-identical to
// the cold path's.
//
// A Session is safe for concurrent use. Enumeration and background
// solves run outside the session lock (so concurrent queries and the
// cache's singleflight keep their concurrency); only LP state and the
// memo maps are guarded.
type Session struct {
	m    conflict.Model
	opts Options

	mu    sync.Mutex
	avail map[string]*availState //guards: mu — Eq. 6 over memoized backgrounds only
	bgs   map[string]*Background //guards: mu — memoized by feasKey; cache-backed sessions only
}

// NewSession wraps the model and options. The options' Cache (which
// may be nil) also receives the session's warm/cold pivot statistics.
func NewSession(m conflict.Model, opts Options) *Session {
	return &Session{
		m:     m,
		opts:  opts,
		avail: make(map[string]*availState),
		bgs:   make(map[string]*Background),
	}
}

// Background solves the flows' background (SolveBackgroundContext).
// With Options.Cache it is memoized by exact demand signature, recorded
// as the session stage's hit or miss, and its AvailableBandwidthContext
// re-solves the session's retained Eq. 6 LPs. The returned value is
// shared: callers must not modify it. A cancelled solve memoizes
// nothing, so a later uncancelled repeat answers from scratch.
func (s *Session) Background(ctx context.Context, flows []Flow) (*Background, error) {
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return nil, err
	}
	if s.opts.Cache == nil {
		return solveBackground(ctx, s, flows, universe)
	}
	key := feasKey(universe, flows)
	tm := obs.SpanFrom(ctx).StartStage(obs.StageSession)
	defer tm.End()
	s.mu.Lock()
	b := s.bgs[key]
	s.mu.Unlock()
	if b != nil {
		tm.SetOutcome("hit")
		return b, nil
	}
	tm.SetOutcome("miss")
	if b, err = solveBackground(ctx, s, flows, universe); err != nil {
		return nil, err
	}
	b.memoized = true
	b.base = indepset.DeltaBase{Universe: universe} // the cache holds the family, under its budget
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.bgs[key]; prev != nil {
		return prev, nil // a concurrent miss got there first
	}
	s.bgs[key] = b
	return b, nil
}

// availState is the retained LP for one (universe, path) pair: the
// sparse Eq. 6 problem, whose set columns come from the family, and
// the warm solver's B⁻¹ and basis.
type availState struct {
	w        *lp.WarmSolver
	sets     []indepset.Set
	universe []topology.LinkID
	rowOf    []int // universe index -> throughput row

	// coldPivots remembers the last from-scratch solve's pivot count,
	// the baseline "pivots saved" is measured against.
	coldPivots int
}

// AvailableBandwidthContext is Background's AvailableBandwidthContext
// for the flows' background: the package-level AvailableBandwidthContext's
// answer, but with Options.Cache the background is memoized and
// repeated queries for the same universe and candidate path re-solve
// warm instead of from scratch.
func (s *Session) AvailableBandwidthContext(ctx context.Context, background []Flow, newPath topology.Path) (*Result, error) {
	b, err := s.Background(ctx, background)
	if err != nil {
		return nil, err
	}
	return b.AvailableBandwidthContext(ctx, newPath)
}

// availableBandwidth answers Eq. 6 for newPath against b, a memoized
// background, through the retained LP of the (U_bg ∪ P, path) pair,
// building it, started from b's basis, on first use. Enumeration and
// the (warm or cold) simplex poll ctx. A cancelled resolve discards the
// retained simplex state, so the next query for the same pair simply
// re-solves cold — cancellation never corrupts the session's memoized
// state.
func (s *Session) availableBandwidth(ctx context.Context, b *Background, newPath topology.Path) (*Result, error) {
	// Enumeration (and its cache) run unlocked; the family is
	// deterministic, so a race between two builders of the same state
	// is settled by whoever inserts first.
	universe, sets, err := b.grow(ctx, newPath)
	if err != nil {
		return nil, err
	}
	pos := newLinkPos(universe)
	demand := widen(b.demand, b.universe, universe)
	key := availKey(universe, newPath)

	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.avail[key]
	if st == nil {
		st, err = newAvailState(pos, newPath, sets, demand, b.start)
		if err != nil {
			return nil, err
		}
		s.avail[key] = st
	}
	return st.solve(ctx, s.opts.Cache, demand)
}

// newAvailState builds the Eq. 6 LP for the pair once. Unlike the cold
// path it adds a throughput row for every universe link — including
// links no set serves and no demand touches — so any later demand
// vector is reachable by RHS updates alone. Its other rows are the
// cold path's, in the same order, so both solve the same LP. A non-nil
// start (the background's feasibility basis) starts the first solve.
func newAvailState(universe linkPos, newPath topology.Path, sets []indepset.Set, demand []float64, start *bgStart) (*availState, error) {
	set, err := eq6LP(universe, sets, demand, newPath, allLinks)
	if err != nil {
		return nil, err
	}
	w := lp.NewWarmSolver(set.prob)
	w.SetStart(start.basis(sets, set, demand))
	return &availState{
		w:        w,
		sets:     sets,
		universe: universe.links,
		rowOf:    set.rowOf,
	}, nil
}

// solve pushes the demand vector (aligned with the universe) into the
// RHS and resolves — warm when the retained basis allows it, cold
// otherwise — reporting pivots into the cache counters.
func (st *availState) solve(ctx context.Context, cache *memo.Cache, demand []float64) (*Result, error) {
	for li, d := range demand {
		if err := st.w.SetRHS(st.rowOf[li], d); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sol, warm, err := st.w.ResolveContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: solving Eq.6 LP: %w", err)
	}
	if warm {
		cache.AddSolvePivots(true, sol.Pivots, st.coldPivots-sol.Pivots)
	} else {
		st.coldPivots = sol.Pivots
		cache.AddSolvePivots(false, sol.Pivots, 0)
	}

	res := &Result{Status: sol.Status, Sets: st.sets, Links: st.universe}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Bandwidth = sol.Objective
	res.Schedule = scheduleOf(st.sets, sol.X)
	return res, nil
}

// FeasibleDemandsContext returns the verdict and schedule of
// Background, with a schedule the caller owns.
func (s *Session) FeasibleDemandsContext(ctx context.Context, flows []Flow) (bool, schedule.Schedule, error) {
	b, err := s.Background(ctx, flows)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	return b.Feasible, copySchedule(b.Schedule), nil
}

// IdleRatiosContext returns the per-node carrier-sensed idle ratios
// induced by the flows' minimal-airtime schedule: Background's
// IdleRatios, as a slice the caller owns. An unschedulable background
// is an error. net must be the network the session's model was built
// on.
func (s *Session) IdleRatiosContext(ctx context.Context, net *topology.Network, flows []Flow) ([]float64, error) {
	b, err := s.Background(ctx, flows)
	if err != nil {
		return nil, err
	}
	if !b.Feasible {
		return nil, fmt.Errorf("core: background flows are not jointly schedulable")
	}
	return slices.Clone(b.IdleRatios(net)), nil
}

// copySchedule hands callers their own slot slice so a memoized
// schedule cannot be mutated behind the session's back.
func copySchedule(in schedule.Schedule) schedule.Schedule {
	if len(in.Slots) == 0 {
		return in
	}
	out := in
	out.Slots = make([]schedule.Slot, len(in.Slots))
	copy(out.Slots, in.Slots)
	return out
}

// availKey names one (universe, path) LP structure. The path enters as
// per-link traversal counts — the only way it shapes the LP — so
// permutations of the same multiset share a state.
func availKey(universe []topology.LinkID, newPath topology.Path) string {
	var b strings.Builder
	for i, l := range universe {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	b.WriteByte('|')
	counts := linkCount(newPath)
	links := make([]topology.LinkID, 0, len(counts))
	for l := range counts {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for i, l := range links {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
		b.WriteByte('x')
		b.WriteString(strconv.Itoa(counts[l]))
	}
	return b.String()
}

// feasKey names one feasibility question: the flows' links with their
// exact demand (float bit patterns, so only truly identical demands
// share a verdict), each summed in flow then path order as linkLoad
// does. Universe links no flow uses are skipped, so any universe
// containing the flows' own gives the same key. Each link is encoded
// as a uvarint id then the demand's 8 bytes: prefix-free, so the key
// is unambiguous, and built in one buffer.
func feasKey(universe []topology.LinkID, flows []Flow) string {
	buf := make([]byte, 0, 16*len(universe))
	for _, l := range universe {
		used, d := false, 0.0
		for _, f := range flows {
			for _, pl := range f.Path {
				if pl == l {
					used = true
					d += f.Demand
				}
			}
		}
		if used {
			buf = binary.AppendUvarint(buf, uint64(l))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
		}
	}
	return string(buf)
}
