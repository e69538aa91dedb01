package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/routing"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// replayTarget serves operations by calling each layer's public
// functions in the order abwd's handlers call them, with a span around
// every call: idle ratios, route, set family (memo or walk), Eq. 6,
// background schedule, estimates. It keeps its own background list,
// as the server keeps its flow table.
type replayTarget struct {
	d     *deployment
	cache bool
	spans tracer

	net    *topology.Network
	model  *conflict.Physical
	mc     *memo.Cache
	sess   *core.Session
	bg     []replayFlow
	nextID int

	// states holds the distinct (universe, path) pairs solved since the
	// last reset; statesPerRound their count at the end of each round
	// with timed operations.
	states         map[string]bool
	statesPerRound []int
	timed          int

	// seen holds the background demand signatures the session has
	// computed idle ratios for.
	seen map[string]bool

	// Counts over the timed operations: the library's own stage
	// records, read from an obs.Span passed in through the context; the
	// explicit memo lookups by outcome; the explicit walks' exploration
	// counts (query-cold); and session lookups no explicit call
	// preceded (none, when the replay mirrors the session).
	work        time.Duration // the current operation's layer calls
	pending     []pendingCall
	stages      map[obs.Stage]*obs.StageRecord
	memoN       [3]int
	memoTime    [3]time.Duration
	walks       int
	explored    int64
	unexplained int64
}

// Memo lookup outcomes, as indices of memoN and memoTime.
const (
	memoHit = iota
	memoDelta
	memoMiss
)

type replayFlow struct {
	flow
	path topology.Path
}

func newReplayTarget(d *deployment, cache bool, spans tracer) *replayTarget {
	return &replayTarget{d: d, cache: cache, spans: spans, stages: make(map[obs.Stage]*obs.StageRecord)}
}

func (t *replayTarget) reset(warm []op) error {
	t.finish()
	t.spans.pause()
	net, model, err := t.d.build()
	if err != nil {
		return err
	}
	t.net, t.model, t.bg, t.nextID = net, model, nil, 1
	t.mc, t.sess = nil, nil
	if t.cache {
		t.mc = memo.New(0)
		t.sess = core.NewSession(model, core.Options{Cache: t.mc})
	}
	t.states, t.seen = make(map[string]bool), make(map[string]bool)
	for _, r := range t.d.reqs {
		o := op{kind: opAdmit, src: int(r.Src), dst: int(r.Dst), demand: r.Demand}
		if _, _, err := t.exec(-1, o); err != nil {
			return err
		}
	}
	for i, o := range warm {
		if _, _, err := t.exec(i, o); err != nil {
			return err
		}
	}
	t.spans.resume()
	return nil
}

// finish closes the current round's session-state count.
func (t *replayTarget) finish() {
	if t.timed > 0 {
		t.statesPerRound = append(t.statesPerRound, len(t.states))
		t.timed = 0
	}
}

func (t *replayTarget) flows() []flow {
	out := make([]flow, len(t.bg))
	for i, f := range t.bg {
		out[i] = f.flow
	}
	return out
}

func (t *replayTarget) cacheStats() memo.Stats { return t.mc.Stats() }

// exec serves the operation and returns the time its layer calls took.
// The replay's own bookkeeping between calls (building the background
// list, keying states) is not the program's work: it stays in the root
// span's self time and out of the returned time.
func (t *replayTarget) exec(_ int, o op) (answer, time.Duration, error) {
	root := t.spans.begin(layerOp, -1)
	t.work = 0
	a, err := t.serve(root, o)
	t.spans.end(root)
	if err != nil {
		return a, 0, fmt.Errorf("replay %v %d->%d: %w", o.kind, o.src, o.dst, err)
	}
	return a, t.work - t.settle(root), nil
}

// pendingCall is a layer call whose library stage records are folded in
// once the operation's root span has ended.
type pendingCall struct {
	span  int32
	trace *obs.Span
}

// call runs f as one layer call: inside its own span, with its own
// obs.Span in the context so the library's stage records can be read
// afterwards.
func (t *replayTarget) call(root int32, l layer, f func(context.Context) error) (time.Duration, error) {
	trace := obs.NewSpan("")
	ctx := obs.WithSpan(context.Background(), trace)
	s := t.spans.begin(l, root)
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	t.spans.end(s)
	t.work += d
	if s >= 0 {
		t.pending = append(t.pending, pendingCall{span: s, trace: trace})
	}
	return d, err
}

// settle folds the operation's library stage records into the totals.
// Every lookup the session makes inside a layer call repeats an
// explicit memo call just made, so it is a memory hit abwd does not
// make: its time is taken out of that call's span and of the
// operation's. settle returns the time taken out.
func (t *replayTarget) settle(root int32) time.Duration {
	var repeat time.Duration
	for _, pc := range t.pending {
		explicit := t.spans.rec.spans[pc.span].layer == layerMemo
		for _, rec := range pc.trace.Trace().Stages {
			if !explicit && rec.Stage == obs.StageMemo {
				if rec.Cache["hit"] != rec.Calls {
					t.unexplained += rec.Calls - rec.Cache["hit"]
				}
				d := time.Duration(rec.WallNs)
				t.spans.rec.spans[pc.span].dur -= d
				repeat += d
				continue
			}
			sum := t.stages[rec.Stage]
			if sum == nil {
				sum = &obs.StageRecord{Stage: rec.Stage}
				t.stages[rec.Stage] = sum
			}
			sum.Calls += rec.Calls
			sum.WallNs += rec.WallNs
			sum.Sets += rec.Sets
			sum.Pivots += rec.Pivots
		}
	}
	t.pending = t.pending[:0]
	if root >= 0 {
		t.timed++
		t.spans.rec.spans[root].dur -= repeat
	}
	return repeat
}

// serve is the handlers' computation for one operation.
func (t *replayTarget) serve(root int32, o op) (answer, error) {
	if o.kind == opDelete {
		for i, f := range t.bg {
			if f.id == o.id {
				t.bg = append(t.bg[:i:i], t.bg[i+1:]...)
				return answer{status: 200, id: o.id}, nil
			}
		}
		return answer{status: 404}, nil
	}
	bg := make([]core.Flow, len(t.bg))
	paths := make([]topology.Path, 0, len(t.bg)+1)
	for i, f := range t.bg {
		bg[i] = core.Flow{Path: f.path, Demand: f.demand}
		paths = append(paths, f.path)
	}

	// The session computes idle ratios from the background's schedule
	// once per demand signature; the first time, it looks the
	// background's set family up in the cache. Make that lookup
	// explicit.
	if t.sess != nil && len(bg) > 0 {
		if key := signature(bg); !t.seen[key] {
			t.seen[key] = true
			if err := t.lookup(root, topology.LinkUnion(paths...)); err != nil {
				return answer{}, err
			}
		}
	}
	var idle []float64
	_, err := t.call(root, layerIdle, func(ctx context.Context) (err error) {
		if t.sess != nil {
			idle, err = t.sess.IdleRatiosContext(ctx, t.net, bg)
		} else {
			idle, err = routing.BackgroundIdlenessContext(ctx, t.net, t.model, bg, core.Options{})
		}
		return err
	})
	if err != nil {
		return answer{}, err
	}

	var path topology.Path
	_, err = t.call(root, layerFindPath, func(context.Context) (err error) {
		path, err = routing.FindPath(t.net, t.model, routing.MetricAvgE2ED, idle, topology.NodeID(o.src), topology.NodeID(o.dst))
		return err
	})
	if err != nil {
		return answer{}, err
	}
	nodes, err := nodesOf(t.net, path)
	if err != nil {
		return answer{}, err
	}
	universe := topology.LinkUnion(append(paths, path)...)
	t.states[stateKey(universe, path)] = true

	var res *core.Result
	if t.sess != nil {
		if err := t.lookup(root, universe); err != nil {
			return answer{}, err
		}
		_, err = t.call(root, layerAvail, func(ctx context.Context) (err error) {
			res, err = t.sess.AvailableBandwidthContext(ctx, bg, path)
			return err
		})
	} else {
		var sets []indepset.Set
		_, err = t.call(root, layerWalk, func(ctx context.Context) error {
			var truncated bool
			var explored int64
			var err error
			sets, truncated, explored, err = indepset.EnumeratePartialCountedContext(ctx, t.model, universe, indepset.Options{})
			if err == nil && truncated {
				err = indepset.ErrLimit
			}
			if t.spans.recording() {
				t.walks++
				t.explored += explored
			}
			return err
		})
		if err != nil {
			return answer{}, err
		}
		_, err = t.call(root, layerAvail, func(ctx context.Context) (err error) {
			res, err = core.AvailableBandwidthWithSetsContext(ctx, t.model, bg, path, sets)
			return err
		})
	}
	if err != nil {
		return answer{}, err
	}

	var sched schedule.Schedule
	_, err = t.call(root, layerFeasible, func(ctx context.Context) (err error) {
		if t.sess == nil {
			sched, err = routing.BackgroundScheduleContext(ctx, t.model, bg, core.Options{})
			return err
		}
		if len(bg) == 0 {
			return nil
		}
		var ok bool
		if ok, sched, err = t.sess.FeasibleDemandsContext(ctx, bg); err == nil && !ok {
			err = fmt.Errorf("background not schedulable")
		}
		return err
	})
	if err != nil {
		return answer{}, err
	}

	_, err = t.call(root, layerEstimate, func(context.Context) error {
		ps, err := estimate.PathStateFromSchedule(t.net, t.model, sched, path)
		if err == nil {
			_, err = estimate.EstimateAll(t.model, ps)
		}
		return err
	})
	if err != nil {
		return answer{}, err
	}

	a := answer{status: 200, nodes: nodes}
	if res.Status == lp.Optimal {
		a.ok, a.bw = true, res.Bandwidth
	}
	fits := a.ok && a.bw+1e-9 >= o.demand
	if o.kind == opQuery {
		a.admit = fits
		return a, nil
	}
	if a.ok = fits; !fits {
		a.nodes = nil
		return a, nil
	}
	a.status, a.id = 201, t.nextID
	t.bg = append(t.bg, replayFlow{flow: flow{id: t.nextID, nodes: nodes, demand: o.demand}, path: path})
	t.nextID++
	return a, nil
}

// lookup is one explicit memo.Cache.EnumerateContext call, filed under
// its outcome.
func (t *replayTarget) lookup(root int32, universe []topology.LinkID) error {
	before := t.mc.Stats()
	d, err := t.call(root, layerMemo, func(ctx context.Context) error {
		_, err := t.mc.EnumerateContext(ctx, t.model, universe, indepset.Options{})
		return err
	})
	if err != nil {
		return err
	}
	t.countLookup(before, t.mc.Stats(), d)
	return nil
}

// countLookup files a timed explicit memo lookup under its outcome,
// read from the cache counters around it.
func (t *replayTarget) countLookup(before, after memo.Stats, d time.Duration) {
	if !t.spans.recording() {
		return
	}
	k := -1
	switch {
	case after.Hits > before.Hits:
		k = memoHit
	case after.DeltaHits > before.DeltaHits:
		k = memoDelta
	case after.Misses > before.Misses:
		k = memoMiss
	}
	if k >= 0 {
		t.memoN[k]++
		t.memoTime[k] += d
	}
}

// signature names a background by its universe and per-link demand,
// summed in the order the session sums it, as the session keys its
// feasibility and idle-ratio memos.
func signature(bg []core.Flow) string {
	demand := make(map[topology.LinkID]float64)
	paths := make([]topology.Path, len(bg))
	for i, f := range bg {
		paths[i] = f.Path
		for _, l := range f.Path {
			demand[l] += f.Demand
		}
	}
	var b []byte
	for _, l := range topology.LinkUnion(paths...) {
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, math.Float64bits(demand[l]), 16)
		b = append(b, ',')
	}
	return string(b)
}

// stateKey names a (universe, path) pair the way the session keys its
// retained LPs: the path enters as its set of links.
func stateKey(universe []topology.LinkID, path topology.Path) string {
	links := append([]topology.LinkID(nil), path...)
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	return fmt.Sprint(universe, links)
}
