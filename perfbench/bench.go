package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"abw/internal/memo"
	"abw/internal/server"
)

// setupRepeats is how many times the query workloads set up, so that
// setup_s is a median; admit-churn sets up once per round instead.
// query-cold's set-up takes tens of milliseconds, so it repeats more.
var setupRepeats = map[string]int{queryWarm: 5, queryCold: 25}

// target is what a pass drives: abwd's handler over HTTP, or the
// layer-by-layer replay.
type target interface {
	// reset discards all state and sets up afresh: install the network,
	// submit the 8 background requests, and warm the given queries.
	reset(warm []op) error
	// exec serves operation i of the pass.
	exec(i int, o op) (answer, time.Duration, error)
	// flows returns the active flows.
	flows() []flow
	cacheStats() memo.Stats
}

// work is one workload instance: the deployment and the seed-generated
// operations.
type work struct {
	name   string
	seed   int64
	rounds int
	d      *deployment
	// queries is the query-warm/query-cold list, run once per round.
	queries []op
	// churn holds admit-churn's generator seed per round, the sampled
	// operation indices per round, and the operations, which the first
	// pass generates in closed loop and later passes repeat.
	churnSeeds  []int64
	churnSample []map[int]bool
	churnOps    [][]op
}

func newWork(name string, seed int64, seconds float64) (*work, error) {
	d, err := loadDeployment()
	if err != nil {
		return nil, err
	}
	w := &work{name: name, seed: seed, d: d}
	switch name {
	case admitChurn:
		w.rounds = rounds(name, churnOps, seconds)
		w.churnSeeds, w.churnSample = churnSeeds(seed, w.rounds)
		return w, nil
	case queryWarm:
		w.queries = d.queryList(seed)[:numQueries]
	default:
		w.queries = d.queryList(seed)
	}
	w.rounds = rounds(name, len(w.queries), seconds)
	return w, nil
}

// roundOps is the number of operations in one round.
func (w *work) roundOps() int {
	if w.name == admitChurn {
		return churnOps
	}
	return len(w.queries)
}

// sampled is an operation kept for the cold library check, with the
// flows active when it was served.
type sampled struct {
	o     op
	flows []flow
	got   answer
}

// pass is the measurement of one pass over a workload.
type pass struct {
	lat []time.Duration
	// answers holds one answer per operation of a round for the query
	// workloads (every round repeats them) and one per operation for
	// admit-churn.
	answers []answer
	alloc   uint64
	// rate and cpu hold each round's operations per second and CPU
	// milliseconds per operation.
	rate, cpu []float64
	heapLive  []float64 // MiB after each timed phase
	setup     []float64 // seconds
	respBytes int64
	failed    int
	// errs holds the first few failures, for the report.
	errs       []string
	rejections int
	stats      memo.Stats // summed deltas over the timed phases
	endStats   memo.Stats // at the end of the last timed phase
	check      []sampled
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// meter brackets a timed phase: GC first, then the process's CPU and
// allocation, and each target's cache counters, before and after.
type meter struct {
	alloc uint64
	stats []memo.Stats
}

func startMeter(ts []target) meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := meter{alloc: ms.TotalAlloc}
	for _, t := range ts {
		m.stats = append(m.stats, t.cacheStats())
	}
	return m
}

// clock times one round of one pass: its wall time and the process's
// CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{cpu: cpuTime(), wall: time.Now()} }

// stop files the round's throughput and CPU per operation.
func (c clock) stop(p *pass, ops int) {
	wall, cpu := time.Since(c.wall), cpuTime()-c.cpu
	p.rate = append(p.rate, float64(ops)/wall.Seconds())
	p.cpu = append(p.cpu, cpu.Seconds()*1e3/float64(ops))
}

// stop closes the timed phase. Allocation and the live heap are the
// process's: they describe a pass only when it ran alone.
func (m meter) stop(ts []target, ps []*pass) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - m.alloc
	for k, t := range ts {
		p := ps[k]
		p.alloc += alloc
		p.endStats = t.cacheStats()
		p.stats = addStats(p.stats, subStats(p.endStats, m.stats[k]))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// The client's latency buffers are not the daemon's state.
	live := ms.HeapAlloc
	for _, p := range ps {
		live -= uint64(8 * cap(p.lat))
	}
	for _, p := range ps {
		p.heapLive = append(p.heapLive, float64(live)/(1<<20))
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives one pass per target over the workload's rounds. The
// passes take turns round by round, each on its own state, so that
// drift in machine speed reaches them alike. The first pass's answers
// are the reference the others must repeat, and only its sampled
// operations are kept for the cold check.
func (w *work) run(ts ...target) ([]*pass, error) {
	ps := make([]*pass, len(ts))
	for k := range ps {
		ps[k] = &pass{lat: make([]time.Duration, 0, w.rounds*w.roundOps())}
	}
	record := func(k, i int, o op, a answer, d time.Duration) {
		p, ref := ps[k], ps[0]
		p.lat = append(p.lat, d)
		p.respBytes += int64(a.size)
		if err := consistent(o, a); err != nil {
			p.fail("%v", err)
		} else if i < len(ref.answers) && !ref.answers[i].equal(a) {
			p.fail("%v %d->%d: answer %v differs from %v", o.kind, o.src, o.dst, a, ref.answers[i])
		}
		if k == 0 && i == len(p.answers) {
			p.answers = append(p.answers, a)
		}
		if o.kind == opAdmit && !a.ok {
			p.rejections++
		}
	}
	reset := func(warm []op) error {
		for k, t := range ts {
			start := time.Now()
			if err := t.reset(warm); err != nil {
				return err
			}
			ps[k].setup = append(ps[k].setup, time.Since(start).Seconds())
		}
		return nil
	}
	if w.name != admitChurn {
		var warm []op
		if w.name == queryWarm {
			warm = w.queries
		}
		// A traced run (several targets) reports no setup_s: one set-up
		// each keeps its memory down.
		repeats := setupRepeats[w.name]
		if len(ts) > 1 {
			repeats = 1
		}
		for n := 0; n < repeats; n++ {
			if err := reset(warm); err != nil {
				return nil, err
			}
		}
		m := startMeter(ts)
		for r := 0; r < w.rounds; r++ {
			for k, t := range ts {
				c := startClock()
				for i, o := range w.queries {
					a, d, err := t.exec(i, o)
					if err != nil {
						return nil, err
					}
					record(k, i, o, a, d)
				}
				c.stop(ps[k], len(w.queries))
			}
		}
		m.stop(ts, ps)
		return ps, nil
	}
	generate := len(w.churnOps) == 0
	for r := 0; r < w.rounds; r++ {
		if err := reset(nil); err != nil {
			return nil, err
		}
		var gen *churn
		if generate {
			var ids []int
			for _, f := range ts[0].flows() {
				ids = append(ids, f.id)
			}
			gen = newChurn(w.d, w.churnSeeds[r], ids)
			w.churnOps = append(w.churnOps, make([]op, 0, churnOps))
		}
		m := startMeter(ts)
		for k, t := range ts {
			c := startClock()
			for i := 0; i < churnOps; i++ {
				var o op
				if gen != nil && k == 0 {
					o = gen.next()
					w.churnOps[r] = append(w.churnOps[r], o)
				} else {
					o = w.churnOps[r][i]
				}
				var active []flow
				if k == 0 && w.churnSample[r][i] {
					active = t.flows()
				}
				a, d, err := t.exec(r*churnOps+i, o)
				if err != nil {
					return nil, err
				}
				record(k, r*churnOps+i, o, a, d)
				if gen != nil && k == 0 {
					gen.observe(o, a)
				}
				if active != nil {
					ps[0].check = append(ps[0].check, sampled{o: o, flows: active, got: a})
				}
			}
			c.stop(ps[k], churnOps)
		}
		m.stop(ts, ps)
	}
	return ps, nil
}

// consistent checks what an answer must satisfy on its own: the
// expected status, a route from src to dst, and a verdict that agrees
// with the bandwidth it reports.
func consistent(o op, a answer) error {
	bad := func(why string) error {
		return fmt.Errorf("%v %d->%d %.6g Mbps: %s: %v", o.kind, o.src, o.dst, o.demand, why, a)
	}
	if a.status != expectedStatus(o, a) {
		return bad("unexpected status")
	}
	fits := a.bw+1e-9 >= o.demand
	routed := len(a.nodes) >= 2 && a.nodes[0] == o.src && a.nodes[len(a.nodes)-1] == o.dst
	switch o.kind {
	case opQuery:
		if !routed || a.admit != (a.ok && fits) {
			return bad("inconsistent query answer")
		}
	case opAdmit:
		if a.ok != fits || a.ok != routed {
			return bad("inconsistent admission verdict")
		}
	case opDelete:
		if a.id != o.id {
			return bad("deleted the wrong flow")
		}
	}
	return nil
}

// verify checks the pass's answers against cold library solves: every
// distinct query of the query workloads, the seed-chosen sample of
// admit-churn. A wrong answer fails every operation that returned it.
func (w *work) verify(ctx context.Context, t target, p *pass) error {
	c, err := newChecker(w.d)
	if err != nil {
		return err
	}
	if w.name == admitChurn {
		for _, s := range p.check {
			if err := c.check(ctx, s.o, s.flows, s.got); err != nil {
				p.fail("%v", err)
			}
		}
		return nil
	}
	bg := t.flows()
	for i, o := range w.queries {
		if err := c.check(ctx, o, bg, p.answers[i]); err != nil {
			for r := 0; r < w.rounds; r++ {
				p.fail("%v", err)
			}
		}
	}
	return nil
}

// httpTarget drives abwd's handler in-process.
type httpTarget struct {
	d          *deployment
	cache, obs bool
	srv        *server.Server
	h          http.Handler
	active     []flow
	// When reuse is set (the query workloads, whose rounds repeat),
	// refBody and refAns hold the first body and answer served per
	// operation index, so a repeated body is not decoded again.
	reuse   bool
	refBody [][]byte
	refAns  []answer
	spans   tracer
}

func (t *httpTarget) reset(warm []op) error {
	t.spans.pause()
	t.srv = newServer(t.cache, t.obs)
	t.h = t.srv.Handler()
	flows, err := httpSetup(t.h, t.d)
	if err != nil {
		return err
	}
	t.active = flows
	for i, o := range warm {
		if _, _, err := t.exec(i, o); err != nil {
			return err
		}
	}
	t.spans.resume()
	return nil
}

func (t *httpTarget) exec(i int, o op) (answer, time.Duration, error) {
	code, body, start, d := serve(t.h, encode(o))
	t.spans.root(start, d)
	var a answer
	if t.reuse && i < len(t.refBody) && bytes.Equal(body, t.refBody[i]) {
		a = t.refAns[i]
	} else {
		var err error
		if a, err = parseAnswer(o.kind, code, body); err != nil {
			return a, d, err
		}
		if t.reuse && i == len(t.refBody) {
			t.refBody = append(t.refBody, body)
			t.refAns = append(t.refAns, a)
		}
	}
	a.size = len(body)
	switch {
	case o.kind == opAdmit && a.ok:
		t.active = append(t.active, flow{id: a.id, nodes: a.nodes, demand: o.demand})
	case o.kind == opDelete && a.status == http.StatusOK:
		t.active = removeFlow(t.active, o.id)
	}
	return a, d, nil
}

func removeFlow(flows []flow, id int) []flow {
	out := flows[:0:0]
	for _, f := range flows {
		if f.id != id {
			out = append(out, f)
		}
	}
	return out
}

func (t *httpTarget) flows() []flow { return append([]flow(nil), t.active...) }

func (t *httpTarget) cacheStats() memo.Stats { return t.srv.CacheStats() }

func subStats(a, b memo.Stats) memo.Stats {
	return memo.Stats{
		Lookups: a.Lookups - b.Lookups, Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		DeltaHits: a.DeltaHits - b.DeltaHits, Evictions: a.Evictions - b.Evictions,
		ColdPivots: a.ColdPivots - b.ColdPivots, WarmPivots: a.WarmPivots - b.WarmPivots,
		WarmResolves: a.WarmResolves - b.WarmResolves,
	}
}

func addStats(a, b memo.Stats) memo.Stats {
	return memo.Stats{
		Lookups: a.Lookups + b.Lookups, Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		DeltaHits: a.DeltaHits + b.DeltaHits, Evictions: a.Evictions + b.Evictions,
		ColdPivots: a.ColdPivots + b.ColdPivots, WarmPivots: a.WarmPivots + b.WarmPivots,
		WarmResolves: a.WarmResolves + b.WarmResolves,
	}
}
