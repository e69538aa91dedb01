package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"abw/internal/conflict"
	"abw/internal/estimate"
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
// the background demands moving between steps. Three layers stack:
//
//  1. set families come from Options.Cache (or a fresh enumeration
//     when no cache is configured) — byte-identical either way;
//  2. the Eq. 6 LP for each (universe, path) pair is built once with a
//     row for EVERY universe link (vacuous 0 >= 0 rows are harmless,
//     and make the structure independent of which links carry demand),
//     so a background change is a pure right-hand-side update the
//     retained lp.WarmSolver repairs in a few dual-simplex pivots;
//  3. feasibility verdicts are memoized by exact demand signature, so
//     the repeated "is the current background still deliverable?"
//     check before each admission step costs a map lookup. Each
//     schedulable verdict keeps its LP's optimal basis in link terms,
//     and the first solve of a new (universe, path) state starts from
//     the basis memoized for its background, phase 2 only, as a cold
//     Background does; without a memoized verdict it runs two-phase.
//
// Answers are exact: the warm-started or basis-started optimum matches
// a cold AvailableBandwidthContext solve within pivot-tolerance
// arithmetic noise (the session property tests pin this), and set
// families and feasibility schedules are byte-identical to the cold
// path's.
//
// A Session is safe for concurrent use. Enumeration runs outside the
// session lock (so parallel workers and the cache's singleflight keep
// their concurrency); only LP state and the memo maps are guarded.
type Session struct {
	m    conflict.Model
	opts Options

	mu    sync.Mutex
	avail map[string]*availState //guards: mu
	feas  map[string]feasResult  //guards: mu
	idle  map[string][]float64   //guards: mu
}

// NewSession wraps the model and options. The options' Cache (which
// may be nil) also receives the session's warm/cold pivot statistics.
func NewSession(m conflict.Model, opts Options) *Session {
	return &Session{
		m:     m,
		opts:  opts,
		avail: make(map[string]*availState),
		feas:  make(map[string]feasResult),
		idle:  make(map[string][]float64),
	}
}

// Options returns the options the session was built with.
func (s *Session) Options() Options { return s.opts }

// Model returns the conflict model the session answers for.
func (s *Session) Model() conflict.Model { return s.m }

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

// feasResult memoizes one FeasibleDemandsContext verdict, with the
// feasibility LP's optimal basis when the flows are schedulable.
type feasResult struct {
	ok    bool
	sched schedule.Schedule
	start *bgStart
}

// AvailableBandwidthContext is the session-accelerated equivalent of
// the package-level AvailableBandwidthContext: same inputs, same
// answer, but repeated queries for the same universe and candidate path
// re-solve warm instead of from scratch. Enumeration and the (warm or
// cold) simplex poll ctx. A cancelled resolve discards the retained
// simplex state, so the next query for the same pair simply re-solves
// cold — cancellation never corrupts the session's memoized state.
func (s *Session) AvailableBandwidthContext(ctx context.Context, background []Flow, newPath topology.Path) (*Result, error) {
	universe, err := flowUniverse([]topology.Path{newPath}, background)
	if err != nil {
		return nil, err
	}

	// Enumeration (and its cache) run unlocked; the family is
	// deterministic, so a race between two builders of the same state
	// is settled by whoever inserts first.
	sets, err := s.opts.enumerate(ctx, s.m, universe)
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	demand := linkLoad(universe, background)
	key := availKey(universe, newPath)

	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.avail[key]
	if st == nil {
		var start *bgStart
		if len(background) > 0 {
			start = s.feas[feasKey(universe, background)].start
		}
		st, err = newAvailState(universe, newPath, sets, demand, start)
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
func newAvailState(universe []topology.LinkID, newPath topology.Path, sets []indepset.Set, demand []float64, start *bgStart) (*availState, error) {
	set, err := eq6LP(universe, sets, demand, newPath, allLinks)
	if err != nil {
		return nil, err
	}
	w := lp.NewWarmSolver(set.prob)
	w.SetStart(start.basis(universe, sets, set, demand))
	return &availState{
		w:        w,
		sets:     sets,
		universe: universe,
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

// FeasibleDemandsContext is the session-memoized equivalent of the
// package-level FeasibleDemandsContext: identical demand signatures
// over the same universe return the recorded verdict and schedule. A
// cancelled check memoizes nothing: ErrCanceled is never recorded as a
// verdict, so a later uncancelled repeat re-answers from scratch.
func (s *Session) FeasibleDemandsContext(ctx context.Context, flows []Flow) (bool, schedule.Schedule, error) {
	if len(flows) == 0 {
		return true, schedule.Schedule{}, nil
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	key := feasKey(universe, flows)

	tm := obs.SpanFrom(ctx).StartStage(obs.StageSession)
	defer tm.End()
	s.mu.Lock()
	if r, ok := s.feas[key]; ok {
		s.mu.Unlock()
		tm.SetOutcome("hit")
		return r.ok, copySchedule(r.sched), nil
	}
	s.mu.Unlock()
	tm.SetOutcome("miss")

	b, err := SolveBackgroundContext(ctx, s.m, flows, s.opts)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	s.mu.Lock()
	s.feas[key] = feasResult{ok: b.Feasible, sched: b.Schedule, start: b.start}
	s.mu.Unlock()
	return b.Feasible, copySchedule(b.Schedule), nil
}

// IdleRatiosContext returns the per-node carrier-sensed idle ratios
// induced by the flows' minimal-airtime schedule
// (estimate.NodeIdleRatios over the FeasibleDemandsContext schedule),
// memoized by the same demand signature as the feasibility verdict. The
// routing layer asks this before every admission step with an unchanged
// background, so the repeat costs a map lookup. net must be the network
// the session's model was built on. Cancelled computations memoize
// nothing.
func (s *Session) IdleRatiosContext(ctx context.Context, net *topology.Network, flows []Flow) ([]float64, error) {
	if len(flows) == 0 {
		idle := make([]float64, net.NumNodes())
		for i := range idle {
			idle[i] = 1
		}
		return idle, nil
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return nil, err
	}
	key := feasKey(universe, flows)

	tm := obs.SpanFrom(ctx).StartStage(obs.StageSession)
	defer tm.End()
	s.mu.Lock()
	if idle, ok := s.idle[key]; ok {
		s.mu.Unlock()
		tm.SetOutcome("hit")
		out := make([]float64, len(idle))
		copy(out, idle)
		return out, nil
	}
	s.mu.Unlock()
	tm.SetOutcome("miss")

	ok, sched, err := s.FeasibleDemandsContext(ctx, flows)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: background flows are not jointly schedulable")
	}
	idle := estimate.NodeIdleRatios(net, sched)
	s.mu.Lock()
	s.idle[key] = idle
	s.mu.Unlock()
	out := make([]float64, len(idle))
	copy(out, idle)
	return out, nil
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
