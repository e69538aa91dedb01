package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"abw/internal/obs"
)

// layer names what a span covers: one whole operation (the root), or
// one call into a package from the replay.
type layer uint8

const (
	layerOp layer = iota
	layerIdle
	layerFindPath
	layerMemo
	layerWalk
	layerAvail
	layerFeasible
	layerEstimate
)

var layerNames = [...]string{"op", "routing.idle", "routing.findpath", "memo", "indepset", "core.avail", "core.feasible", "estimate"}

// span is one recorded interval of a traced pass.
type span struct {
	pass   uint8
	layer  layer
	op     int32 // operation number within the pass
	parent int32 // index of the parent span, -1 for a root
	start  time.Duration
	dur    time.Duration
}

// recorder keeps a traced run's spans in memory; the run writes them
// out when it ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// tracer records one pass's spans into a shared recorder. A tracer with
// no recorder, or a paused one, records nothing.
type tracer struct {
	rec  *recorder
	pass uint8
	op   int32
	on   bool
}

// pause and resume bracket set-up, whose operations are not recorded.
func (t *tracer) pause()          { t.on = false }
func (t *tracer) resume()         { t.on = true }
func (t *tracer) recording() bool { return t.rec != nil && t.on }

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(l layer, parent int32) int32 {
	if !t.recording() {
		return -1
	}
	r := t.rec
	r.spans = append(r.spans, span{pass: t.pass, layer: l, op: t.op, parent: parent, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if i < 0 {
		return 0
	}
	s := &t.rec.spans[i]
	s.dur = time.Since(t.rec.epoch) - s.start
	if s.layer == layerOp {
		t.op++
	}
	return s.dur
}

// root records a whole operation timed elsewhere.
func (t *tracer) root(start time.Time, d time.Duration) {
	if t.recording() {
		r := t.rec
		r.spans = append(r.spans, span{pass: t.pass, layer: layerOp, op: t.op, parent: -1, start: start.Sub(r.epoch), dur: d})
		t.op++
	}
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(bw, `{"pass":%d,"op":%d,"span":%d,"parent":%d,"layer":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
			s.pass, s.op, i, s.parent, layerNames[s.layer], s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerTimes sums a pass's spans by layer: the mean time per call, the
// total per operation, and the roots' mean self time (root minus
// children).
func (r *recorder) layerTimes(pass uint8) (perCall, perOp [len(layerNames)]time.Duration, rootSelf time.Duration) {
	var sum [len(layerNames)]time.Duration
	var n [len(layerNames)]int
	var children time.Duration
	for _, s := range r.spans {
		if s.pass != pass {
			continue
		}
		sum[s.layer] += s.dur
		n[s.layer]++
		if s.parent >= 0 {
			children += s.dur
		}
	}
	ops := time.Duration(n[layerOp])
	if ops == 0 {
		return perCall, perOp, 0
	}
	for l := range sum {
		if n[l] > 0 {
			perCall[l] = sum[l] / time.Duration(n[l])
		}
		perOp[l] = sum[l] / ops
	}
	return perCall, perOp, (sum[layerOp] - children) / ops
}

// traced is the traced run: three passes over the same operations,
// each on its own state — HTTP with abwd's default observability, HTTP
// with metrics and logging off, and the layer-by-layer replay — and
// the per-layer metrics their split gives.
func (w *work) traced(dir string) (*outcome, error) {
	rec := newRecorder()
	cache := cached(w.name)
	reuse := w.name != admitChurn
	t1 := &httpTarget{d: w.d, cache: cache, obs: true, reuse: reuse, spans: tracer{rec: rec, pass: 1}}
	t2 := &httpTarget{d: w.d, cache: cache, reuse: reuse, spans: tracer{rec: rec, pass: 2}}
	t3 := newReplayTarget(w.d, cache, tracer{rec: rec, pass: 3})
	ps, err := w.run(t1, t2, t3)
	if err != nil {
		return nil, err
	}
	p1, p2, p3 := ps[0], ps[1], ps[2]
	if err := w.verify(context.Background(), t1, p1); err != nil {
		return nil, err
	}
	t3.finish()
	if err := rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, w.seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	out := &outcome{
		attempted: len(p1.lat) + len(p2.lat) + len(p3.lat),
		failed:    p1.failed + p2.failed + p3.failed,
		problems:  w.exercised(p1),
	}
	for _, p := range []*pass{p1, p2, p3} {
		out.errs = append(out.errs, p.errs...)
	}
	http1, http2, replay := meanDuration(p1.lat), meanDuration(p2.lat), meanDuration(p3.lat)
	layers, perOp, glue := rec.layerTimes(3)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ratio := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	meanOf := func(total time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	st := p1.stats
	walk := t3.stage(obs.StageEnumerate)
	cold, warm := t3.stage(obs.StageLPSolve), t3.stage(obs.StageLPWarm)
	out.metrics = []named{
		{"server.self_us_per_op", metric{us(http1 - replay), "us"}},
		{"server.resp_bytes_per_op", metric{float64(p1.respBytes) / float64(len(p1.lat)), "bytes"}},
		{"obs.overhead_pct", metric{100 * (float64(http1) - float64(http2)) / float64(http2), "%"}},
		{"routing.findpath_us_per_call", metric{us(layers[layerFindPath]), "us"}},
		{"routing.idle_us_per_call", metric{us(layers[layerIdle]), "us"}},
		{"core.avail_ms_per_call", metric{ms(layers[layerAvail]), "ms"}},
		{"core.feasible_ms_per_call", metric{ms(layers[layerFeasible]), "ms"}},
		{"core.session_states", metric{mean(t3.statesPerRound), "count"}},
		{"memo.hit_ratio", metric{ratio(st.Hits, st.Lookups), "ratio"}},
		{"memo.delta_ratio", metric{ratio(st.DeltaHits, st.Lookups), "ratio"}},
		{"memo.miss_ratio", metric{ratio(st.Misses, st.Lookups), "ratio"}},
		{"memo.hit_us", metric{1e3 * meanOf(t3.memoTime[memoHit], t3.memoN[memoHit]), "us"}},
		{"memo.delta_ms", metric{meanOf(t3.memoTime[memoDelta], t3.memoN[memoDelta]), "ms"}},
		{"memo.miss_ms", metric{meanOf(t3.memoTime[memoMiss], t3.memoN[memoMiss]), "ms"}},
		{"memo.bytes_mb", metric{float64(p1.endStats.Bytes) / (1 << 20), "MB"}},
		{"memo.evictions", metric{float64(st.Evictions), "count"}},
		{"indepset.walk_ms_per_call", metric{ratio(walk.WallNs, walk.Calls) / 1e6, "ms"}},
		{"indepset.explored_per_call", metric{ratio(t3.explored, int64(t3.walks)), "count"}},
		{"indepset.sets_per_call", metric{ratio(walk.Sets, walk.Calls), "count"}},
		{"lp.cold_pivots_per_solve", metric{ratio(cold.Pivots, cold.Calls), "count"}},
		{"lp.warm_pivots_per_resolve", metric{ratio(warm.Pivots, warm.Calls), "count"}},
		{"lp.warm_ratio", metric{ratio(warm.Calls, warm.Calls+cold.Calls), "ratio"}},
		{"estimate.us_per_call", metric{us(layers[layerEstimate]), "us"}},
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"per-operation split: http %.1fus = server %.1fus + layer calls %.1fus (idle %.1f, findpath %.1f, memo/walk %.1f, avail %.1f, feasible %.1f, estimate %.1f); replay bookkeeping outside the calls %.1fus; http without obs %.1fus",
		us(http1), us(http1-replay), us(replay),
		us(perOp[layerIdle]), us(perOp[layerFindPath]), us(perOp[layerMemo]+perOp[layerWalk]),
		us(perOp[layerAvail]), us(perOp[layerFeasible]), us(perOp[layerEstimate]), us(glue), us(http2)))
	return out, nil
}

// stage returns the summed stage record of the timed operations (zero
// when the stage never ran).
func (t *replayTarget) stage(s obs.Stage) obs.StageRecord {
	if rec := t.stages[s]; rec != nil {
		return *rec
	}
	return obs.StageRecord{Stage: s}
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
