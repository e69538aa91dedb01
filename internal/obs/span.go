package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Stage names one segment of the query path. The constants below are
// the complete vocabulary; they appear as the `stage` label on
// abw_stage_seconds and as keys in a trace's stage list.
type Stage string

const (
	// StageRoute is shortest-path resolution in internal/routing.
	StageRoute Stage = "route"
	// StageAdmit is one flow's admission check inside a sequential
	// admission sweep.
	StageAdmit Stage = "admit"
	// StageEnumerate is independent-set / clique enumeration in
	// internal/indepset (the DFS itself, cache misses only).
	StageEnumerate Stage = "enumerate"
	// StageMemo is the set-family cache lookup in internal/memo,
	// whatever its outcome.
	StageMemo Stage = "memo"
	// StageDelta is a delta walk in internal/memo: the one walk that
	// grows a base's family (memo.Cache.GrowContext) into the
	// requested one instead of re-enumerating from scratch. Nested
	// inside the memo stage's lookup (whose outcome is then "delta"
	// when it succeeds).
	StageDelta Stage = "delta"
	// StageSession is a core.Session background memo lookup (its
	// outcome is "hit" or "miss"), the solve on a miss included.
	StageSession Stage = "session"
	// StageLPSolve is a cold simplex solve in internal/lp: two-phase,
	// or phase 2 only from a given start basis (counted as Started, or
	// under StartFallbacks when the start was refused).
	StageLPSolve Stage = "lp_solve"
	// StageLPWarm is a warm dual re-solve by lp.WarmSolver. A warm
	// attempt that falls back to a cold solve records under
	// StageLPSolve instead (the timer is re-staged before End).
	StageLPWarm Stage = "lp_warm"
	// StageSchedule is background/link-schedule construction.
	StageSchedule Stage = "schedule"
	// StageEstimate is per-estimator bandwidth estimation on the
	// resolved path.
	StageEstimate Stage = "estimate"
)

// stages is the vocabulary in slot order: a span keeps one fixed
// record per entry, indexed by Stage.slot.
var stages = [...]Stage{
	StageRoute, StageAdmit, StageEnumerate, StageMemo, StageDelta,
	StageSession, StageLPSolve, StageLPWarm, StageSchedule, StageEstimate,
}

const numStages = len(stages)

// slot returns the stage's index in stages. A stage outside the
// vocabulary is a programming error.
func (st Stage) slot() uint8 {
	for i, v := range stages {
		if v == st {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("obs: unknown stage %q", string(st)))
}

// StageRecord aggregates every timer that ended on one stage within a
// span. Wall time is summed, not unioned: concurrent timers in the
// same stage count their overlap twice, which is the useful number for
// "where did the CPU go".
type StageRecord struct {
	Stage  Stage            `json:"stage"`
	Calls  int64            `json:"calls"`
	WallNs int64            `json:"wallNs"`
	Sets   int64            `json:"sets,omitempty"`
	Pivots int64            `json:"pivots,omitempty"`
	Warm   int64            `json:"warm,omitempty"`
	Cache  map[string]int64 `json:"cache,omitempty"`
	// Started counts solves that ran from a given start basis, and
	// StartedPivots the part of Pivots they spent.
	Started       int64 `json:"started,omitempty"`
	StartedPivots int64 `json:"startedPivots,omitempty"`
	// StartFallbacks counts refused starts by reason.
	StartFallbacks map[string]int64 `json:"startFallbacks,omitempty"`
}

// Tally is one keyed count of a stage within a span: a cache outcome
// (StageRecord.Cache) or, when Fallback is set, a refused start's
// reason (StageRecord.StartFallbacks).
type Tally struct {
	Stage    Stage
	Fallback bool
	Key      string
	N        int64
}

// tally is a Tally with the stage held as its slot.
type tally struct {
	slot     uint8
	fallback bool
	key      string
	n        int64
}

// tallyCap is the number of keyed counts a span holds without
// allocating; a query's memo and session outcomes and refused-start
// reasons rarely reach it, and the rest spill to the heap.
const tallyCap = 12

// Span accumulates the stage records of one query. Create with
// NewSpan, thread through context.Context with WithSpan/SpanFrom. A
// nil *Span is the uninstrumented fast path: StartStage returns an
// inert timer and no clock is read anywhere.
//
// Records live in fixed slots, one per stage of the vocabulary, and
// keyed counts in a small inline table, so timing a stage allocates
// nothing.
type Span struct {
	id    string
	start int64 // UnixNano at creation

	mu      sync.Mutex
	recs    [numStages]StageRecord // Cache and StartFallbacks unused; guarded by mu
	order   [numStages]uint8       // slots in first-End order, guarded by mu
	nOrder  int                    // guarded by mu
	tallies []tally                // keyed counts, backed by buf; guarded by mu
	buf     [tallyCap]tally
}

// NewSpan returns an empty span with the given request id (may be "").
func NewSpan(id string) *Span {
	s := &Span{id: id, start: nanos()}
	s.tallies = s.buf[:0]
	return s
}

// ID returns the request id the span was created with ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Elapsed returns the wall time since NewSpan (zero on nil).
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(nanos() - s.start)
}

type spanKeyType struct{}

var spanKey spanKeyType

// WithSpan attaches a span to a context. Attaching nil returns the
// context unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom extracts the span from a context, or nil when absent. The
// nil result is directly usable: all Span methods accept nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StageTimer measures one call into a stage. Obtain with
// Span.StartStage, finish with End (defer-friendly; End on an inert or
// already-ended timer is a no-op). The zero StageTimer is inert, so
// the nil-span path costs a couple of nil checks and zero clock reads.
//
// A StageTimer is used by one goroutine; the Span it reports into is
// what's safe for concurrent use.
type StageTimer struct {
	span    *Span
	stage   Stage
	startNs int64
	sets    int64
	pivots  int64
	warm    bool
	started bool
	outcome string
	refused string
	done    bool
}

// StartStage begins timing one call into stage. On a nil span it
// returns an inert timer without reading the clock.
func (s *Span) StartStage(stage Stage) *StageTimer {
	if s == nil {
		return nil
	}
	return &StageTimer{span: s, stage: stage, startNs: nanos()}
}

// SetStage re-labels the timer before End — used when a warm LP
// attempt falls back to a cold solve and must account under
// StageLPSolve.
func (t *StageTimer) SetStage(stage Stage) {
	if t == nil {
		return
	}
	t.stage = stage
}

// AddSets notes n enumerated (or cache-served) independent sets.
func (t *StageTimer) AddSets(n int64) {
	if t == nil {
		return
	}
	t.sets += n
}

// AddPivots notes n simplex pivots.
func (t *StageTimer) AddPivots(n int64) {
	if t == nil {
		return
	}
	t.pivots += n
}

// SetWarm marks the call as a successful warm re-solve.
func (t *StageTimer) SetWarm(warm bool) {
	if t == nil {
		return
	}
	t.warm = warm
}

// SetStarted marks the call as a solve that ran from a given start
// basis.
func (t *StageTimer) SetStarted(started bool) {
	if t == nil {
		return
	}
	t.started = started
}

// SetStartFallback notes that the call's start basis was refused, and
// why; the solve ran two-phase.
func (t *StageTimer) SetStartFallback(reason string) {
	if t == nil {
		return
	}
	t.refused = reason
}

// SetOutcome tags the call with a cache outcome (hit, miss, diskHit,
// bypass, merge) counted per stage in the trace.
func (t *StageTimer) SetOutcome(outcome string) {
	if t == nil {
		return
	}
	t.outcome = outcome
}

// End stops the timer and folds it into the span. Safe to defer;
// second and later calls are no-ops.
func (t *StageTimer) End() {
	if t == nil || t.done || t.span == nil {
		return
	}
	t.done = true
	wall := nanos() - t.startNs
	slot := t.stage.slot()
	s := t.span
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &s.recs[slot]
	if rec.Calls == 0 {
		rec.Stage = t.stage
		s.order[s.nOrder] = slot
		s.nOrder++
	}
	rec.Calls++
	rec.WallNs += wall
	rec.Sets += t.sets
	rec.Pivots += t.pivots
	if t.warm {
		rec.Warm++
	}
	if t.started {
		rec.Started++
		rec.StartedPivots += t.pivots
	}
	if t.refused != "" {
		s.count(slot, true, t.refused)
	}
	if t.outcome != "" {
		s.count(slot, false, t.outcome)
	}
}

// count adds one to a keyed count. Caller holds s.mu.
func (s *Span) count(slot uint8, fallback bool, key string) {
	for i := range s.tallies {
		if tl := &s.tallies[i]; tl.slot == slot && tl.fallback == fallback && tl.key == key {
			tl.n++
			return
		}
	}
	s.tallies = append(s.tallies, tally{slot: slot, fallback: fallback, key: key, n: 1})
}

// TraceData is the JSON "trace" block of a query response: total wall
// time plus one record per stage in first-completion order.
type TraceData struct {
	RequestID string        `json:"requestId,omitempty"`
	TotalNs   int64         `json:"totalNs"`
	Stages    []StageRecord `json:"stages"`
}

// Trace snapshots the span. Total wall time is measured at the call,
// so take it once, when the query is done. Returns nil on a nil span.
func (s *Span) Trace() *TraceData {
	if s == nil {
		return nil
	}
	td := &TraceData{RequestID: s.id, TotalNs: nanos() - s.start}
	s.mu.Lock()
	defer s.mu.Unlock()
	td.Stages = make([]StageRecord, 0, s.nOrder)
	for _, slot := range s.order[:s.nOrder] {
		rec := s.recs[slot]
		for _, tl := range s.tallies {
			if tl.slot != slot {
				continue
			}
			m := &rec.Cache
			if tl.fallback {
				m = &rec.StartFallbacks
			}
			if *m == nil {
				*m = make(map[string]int64)
			}
			(*m)[tl.key] = tl.n
		}
		td.Stages = append(td.Stages, rec)
	}
	return td
}

// Fold reports the span's records without building a TraceData: stage
// is called once per recorded stage in first-End order, with Cache and
// StartFallbacks left nil, and keyed once per keyed count in first-seen
// order. The records are copied under the span's lock and reported
// after it is released. A nil span reports nothing.
func (s *Span) Fold(stage func(StageRecord), keyed func(Tally)) {
	if s == nil {
		return
	}
	var buf [tallyCap]tally
	s.mu.Lock()
	recs, order, n := s.recs, s.order, s.nOrder
	tallies := append(buf[:0], s.tallies...)
	s.mu.Unlock()
	for _, slot := range order[:n] {
		stage(recs[slot])
	}
	for _, tl := range tallies {
		keyed(Tally{Stage: stages[tl.slot], Fallback: tl.fallback, Key: tl.key, N: tl.n})
	}
}

// StageNames returns the stages recorded so far, sorted — test helper
// and slow-query-log summary.
func (s *Span) StageNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, s.nOrder)
	for _, slot := range s.order[:s.nOrder] {
		names = append(names, string(stages[slot]))
	}
	sort.Strings(names)
	return names
}
