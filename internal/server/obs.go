package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abw/internal/obs"
)

// Observability wiring: metrics, request logging, per-query tracing and
// the liveness/readiness probes. Everything here is opt-in — a server
// with no registry, no logger and no slow-query threshold serves the
// exact byte stream it served before this layer existed (the nil
// fast-path invariant of DESIGN.md Sec. 14).

// SetMetrics installs the metrics registry. Handlers record HTTP
// series into it, completed query spans fold into the stage series,
// and GET /metrics exposes it (404 without one). Call before serving
// requests.
func (s *Server) SetMetrics(r *obs.Registry) {
	s.metrics = r
	s.series = nil
	if r != nil {
		s.series = newServerSeries(r)
	}
}

// Metrics returns the installed registry (nil when disabled).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetLogger installs the structured request logger (nil disables
// request logging). Call before serving requests.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// SetSlowQuery sets the slow-query threshold: computations that take
// longer are logged with their per-stage trace and counted on
// abw_slow_queries_total. Zero (the default) disables the log. Call
// before serving requests.
func (s *Server) SetSlowQuery(d time.Duration) { s.slowQuery = d }

// obsActive reports whether any per-request observability is on.
func (s *Server) obsActive() bool {
	return s.metrics != nil || s.logger != nil || s.slowQuery > 0
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleReadyz is the readiness probe: ready once a network is
// installed (before that every query answers 409, so sending traffic
// is pointless).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	ready := s.net != nil
	s.mu.Unlock()
	status, msg := http.StatusOK, "ready"
	if !ready {
		status, msg = http.StatusServiceUnavailable, "no network installed"
	}
	writeJSON(w, status, struct {
		Status string `json:"status"`
	}{Status: msg})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.metrics == nil {
		writeError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	s.refreshCacheMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// refreshCacheMetrics mirrors the memo-cache counters into gauges at
// scrape time, so /metrics and /v1/stats expose the same numbers from
// the same snapshot source instead of maintaining parallel counters.
func (s *Server) refreshCacheMetrics() {
	st := s.CacheStats()
	set := func(name, help string, v int64) {
		s.metrics.Gauge(name, help).Set(v)
	}
	set("abw_cache_lookups", "memo-cache lookups (mirrors /v1/stats cache.lookups)", st.Lookups)
	set("abw_cache_hits", "memo-cache memory hits", st.Hits)
	set("abw_cache_misses", "memo-cache misses (enumerations run)", st.Misses)
	set("abw_cache_delta_hits", "memo-cache lookups served by delta enumeration", st.DeltaHits)
	set("abw_cache_bypasses", "memo-cache bypasses (unkeyable models)", st.Bypasses)
	set("abw_cache_merges", "memo-cache singleflight merges", st.SingleflightMerges)
	set("abw_cache_evictions", "memo-cache LRU evictions", st.Evictions)
	set("abw_cache_cancellations", "memo-cache lookups abandoned by cancellation", st.Cancellations)
	set("abw_cache_entries", "families currently retained in memory", int64(st.Entries))
	set("abw_cache_bytes", "bytes currently retained in memory", st.Bytes)
	set("abw_cache_disk_hits", "memo-cache disk-store hits", st.DiskHits)
	set("abw_cache_disk_bytes", "bytes currently spilled on disk", st.DiskBytes)
	set("abw_lp_cold_pivots", "simplex pivots spent by cold solves", st.ColdPivots)
	set("abw_lp_warm_pivots", "simplex pivots spent by warm re-solves", st.WarmPivots)
	set("abw_lp_warm_resolves", "LP re-solves answered from a warm basis", st.WarmResolves)
	set("abw_lp_pivots_saved", "estimated pivots avoided by warm-starting", st.PivotsSaved)
}

// handlerLabel names the route for the HTTP series: bounded cardinality
// (one label per endpoint), never the raw path.
func handlerLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/flows"):
		return "flows"
	case path == "/v1/network":
		return "network"
	case path == "/v1/query":
		return "query"
	case path == "/v1/schedule":
		return "schedule"
	case path == "/v1/fairshare":
		return "fairshare"
	case path == "/v1/stats", path == "/stats":
		return "stats"
	case path == "/metrics":
		return "metrics"
	case path == "/healthz", path == "/readyz":
		return "probe"
	default:
		return "other"
	}
}

// statusWriter captures the response code for the request series.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps the API mux with request-id minting, HTTP metrics
// and request logging. With observability fully disabled it returns
// the inner handler untouched, so the uninstrumented server is the
// same handler chain (and the same bytes) as before.
func (s *Server) instrument(inner http.Handler) http.Handler {
	if !s.obsActive() {
		return inner
	}
	inflight := s.metrics.Gauge("abw_http_in_flight", "requests currently being served")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NextRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))

		label := handlerLabel(r.URL.Path)
		watch := obs.StartWatch()
		inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		inner.ServeHTTP(sw, r)
		inflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if s.series != nil {
			s.series.requests.get(requestKey{handler: label, code: sw.status}).Inc()
			s.series.requestSeconds.get(label).Observe(watch.Seconds())
		}
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("requestId", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("handler", label),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", watch.Elapsed()),
			)
		}
	})
}

// querySpan mints a trace span for one computation when anything will
// consume it: the client asked for the trace block, the stage series
// are live, or the slow-query log is armed. Returns nil otherwise —
// the nil span disables every instrumentation point downstream.
func (s *Server) querySpan(reqID string, traceRequested bool) *obs.Span {
	if !traceRequested && s.metrics == nil && s.slowQuery <= 0 {
		return nil
	}
	return obs.NewSpan(reqID)
}

// finishQuerySpan folds a completed span into the registry's stage
// series, applies the slow-query policy, and returns the trace block
// when the client asked for it (nil otherwise). The trace is built
// only when the client or the slow-query log reads it.
func (s *Server) finishQuerySpan(span *obs.Span, wantTrace bool) *obs.TraceData {
	if span == nil {
		return nil
	}
	slow := s.slowQuery > 0 && span.Elapsed() > s.slowQuery
	if s.series != nil {
		span.Fold(s.series.foldStage, s.series.foldTally)
	}
	if !wantTrace && !slow {
		return nil
	}
	td := span.Trace()
	if slow {
		s.metrics.Counter("abw_slow_queries_total",
			"queries slower than the -slowquery threshold").Inc()
		if s.logger != nil {
			attrs := []any{
				slog.String("requestId", td.RequestID),
				slog.Duration("elapsed", time.Duration(td.TotalNs)),
				slog.Duration("threshold", s.slowQuery),
			}
			for _, rec := range td.Stages {
				attrs = append(attrs, slog.Group(string(rec.Stage),
					slog.Int64("calls", rec.Calls),
					slog.Duration("wall", time.Duration(rec.WallNs)),
				))
			}
			s.logger.Warn("slow query", attrs...)
		}
	}
	if !wantTrace {
		return nil
	}
	return td
}

// serverSeries holds the labelled series the server records on every
// request. Each is looked up in the registry the first time it is
// observed and recorded through the kept pointer afterwards, so
// /metrics lists exactly the series that have been observed.
type serverSeries struct {
	requests       seriesCache[requestKey, obs.Counter]
	requestSeconds seriesCache[string, obs.Histogram]
	stageSeconds   seriesCache[obs.Stage, obs.Histogram]
	enumeratedSets seriesCache[obs.Stage, obs.Counter]
	lpPivots       seriesCache[string, obs.Counter]
	startFallbacks seriesCache[string, obs.Counter]
	memoOutcomes   seriesCache[string, obs.Counter]
}

// requestKey labels one abw_http_requests_total series.
type requestKey struct {
	handler string
	code    int
}

func newServerSeries(r *obs.Registry) *serverSeries {
	sr := &serverSeries{}
	sr.requests.resolve = func(k requestKey) *obs.Counter {
		return r.Counter("abw_http_requests_total", "HTTP requests served",
			obs.L{K: "handler", V: k.handler}, obs.L{K: "code", V: strconv.Itoa(k.code)})
	}
	sr.requestSeconds.resolve = func(handler string) *obs.Histogram {
		return r.Histogram("abw_http_request_seconds", "HTTP request latency", nil,
			obs.L{K: "handler", V: handler})
	}
	sr.stageSeconds.resolve = func(st obs.Stage) *obs.Histogram {
		return r.Histogram("abw_stage_seconds", "per-query stage wall time", nil,
			obs.L{K: "stage", V: string(st)})
	}
	sr.enumeratedSets.resolve = func(st obs.Stage) *obs.Counter {
		return r.Counter("abw_enumerated_sets_total",
			"independent sets enumerated or served from cache", obs.L{K: "stage", V: string(st)})
	}
	sr.lpPivots.resolve = func(mode string) *obs.Counter {
		return r.Counter("abw_lp_pivots_total", "simplex pivots spent", obs.L{K: "mode", V: mode})
	}
	sr.startFallbacks.resolve = func(reason string) *obs.Counter {
		return r.Counter("abw_lp_start_fallbacks_total",
			"LP start bases refused, solved two-phase instead", obs.L{K: "reason", V: reason})
	}
	sr.memoOutcomes.resolve = func(oc string) *obs.Counter {
		return r.Counter("abw_memo_outcomes_total", "memo-cache lookup outcomes",
			obs.L{K: "outcome", V: oc})
	}
	return sr
}

// foldStage records one stage of a finished span.
func (sr *serverSeries) foldStage(rec obs.StageRecord) {
	sr.stageSeconds.get(rec.Stage).Observe(float64(rec.WallNs) / 1e9)
	if rec.Sets > 0 {
		sr.enumeratedSets.get(rec.Stage).Add(rec.Sets)
	}
	if rec.Pivots > 0 {
		mode := "cold"
		if rec.Stage == obs.StageLPWarm {
			mode = "warm"
		}
		if cold := rec.Pivots - rec.StartedPivots; cold > 0 {
			sr.lpPivots.get(mode).Add(cold)
		}
		if rec.StartedPivots > 0 {
			sr.lpPivots.get("started").Add(rec.StartedPivots)
		}
	}
}

// foldTally records one keyed count of a finished span.
func (sr *serverSeries) foldTally(t obs.Tally) {
	if t.Fallback {
		sr.startFallbacks.get(t.Key).Add(t.N)
		return
	}
	sr.memoOutcomes.get(t.Key).Add(t.N)
}

// seriesCache keeps the series of one metric family that have been
// resolved, by label value. A registry lookup renders the label string
// and takes the registry mutex; the cache pays that once per series,
// and later reads scan a short immutable list without locking.
type seriesCache[K comparable, T any] struct {
	resolve func(K) *T
	mu      sync.Mutex // serializes resolution
	seen    atomic.Pointer[[]seriesEntry[K, T]]
}

type seriesEntry[K comparable, T any] struct {
	key K
	val *T
}

// get returns the series for key, resolving it on first use.
func (c *seriesCache[K, T]) get(key K) *T {
	if v, ok := c.find(key); ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.find(key); ok {
		return v
	}
	var seen []seriesEntry[K, T]
	if p := c.seen.Load(); p != nil {
		seen = *p
	}
	v := c.resolve(key)
	grown := append(seen[:len(seen):len(seen)], seriesEntry[K, T]{key: key, val: v})
	c.seen.Store(&grown)
	return v
}

func (c *seriesCache[K, T]) find(key K) (*T, bool) {
	if p := c.seen.Load(); p != nil {
		for _, e := range *p {
			if e.key == key {
				return e.val, true
			}
		}
	}
	return nil, false
}
