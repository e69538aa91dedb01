// Package server exposes the availability model as an admission-control
// service: an HTTP/JSON API that owns a network, tracks the admitted
// flows, and answers routing, availability and admission queries — the
// deployable form of the paper's QoS admission pipeline.
//
// Endpoints (all JSON):
//
//	PUT    /v1/network        install/replace the network (netjson node list)
//	GET    /v1/network        topology summary
//	POST   /v1/query          availability + estimates for a path or pair, no state change
//	POST   /v1/flows          route, check and admit a flow
//	GET    /v1/flows          list admitted flows
//	DELETE /v1/flows/{id}     tear a flow down, freeing its bandwidth
//	GET    /v1/stats          memo-cache and warm-start counters (also /stats)
//
// The server is safe for concurrent use. The state mutex is held only
// long enough to snapshot or mutate state — availability computation
// (enumeration + LP) runs unlocked, so slow queries never block cheap
// requests. Admissions serialize on a separate admission mutex and
// re-check the network generation before committing, so decisions stay
// consistent without holding the state lock across the solve.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/netjson"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Server is the admission-control service state. Create with New; the
// zero value serves errors until a network is installed.
type Server struct {
	mu      sync.Mutex
	net     *topology.Network  //guards: mu
	model   *conflict.Physical //guards: mu
	flows   []*flowRecord      //guards: mu — the live flows, ascending by ID
	nextID  int                //guards: mu
	gen     int                //guards: mu — bumped on every network install; guards admissions
	maxBody int64
	cache   *memo.Cache
	sess    *core.Session

	// queryTimeout bounds each request's computation (0 = unbounded).
	// Handlers derive their context from the request's, so a client
	// disconnect cancels the same way a deadline does.
	queryTimeout time.Duration

	// Observability (obs.go): all three default off, and the nil fast
	// path keeps the uninstrumented server byte-identical.
	metrics   *obs.Registry
	series    *serverSeries // metrics' per-request series; nil without metrics
	logger    *slog.Logger
	slowQuery time.Duration

	// admitMu serializes admission decisions (snapshot → compute →
	// commit) without blocking read-only queries on the state mutex.
	admitMu sync.Mutex

	// computeHook, when non-nil, runs at the start of every unlocked
	// availability computation with that computation's context. Tests
	// use it to hold queries in flight deterministically; production
	// leaves it nil.
	computeHook func(context.Context)
}

// coreOptions returns the core options every computation uses.
func (s *Server) coreOptions() core.Options {
	return core.Options{Cache: s.cache}
}

// snapshot is an immutable view of the server state: the network and
// model are immutable by construction, the background slice is a copy,
// and the session is internally synchronized — everything a
// computation needs without holding the state mutex.
type snapshot struct {
	net        *topology.Network
	model      *conflict.Physical
	sess       *core.Session
	background []core.Flow
	gen        int
	opts       core.Options
}

// snapshot captures the state under the mutex; ok is false when no
// network is installed.
func (s *Server) snapshot() (*snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		return nil, false
	}
	return &snapshot{
		net:        s.net,
		model:      s.model,
		sess:       s.sess,
		background: s.backgroundLocked(),
		gen:        s.gen,
		opts:       s.coreOptions(),
	}, true
}

type flowRecord struct {
	ID     int           `json:"id"`
	Src    int           `json:"src"`
	Dst    int           `json:"dst"`
	Demand float64       `json:"demandMbps"`
	Nodes  []int         `json:"pathNodes"`
	path   topology.Path `json:"-"`
}

// New returns an empty server.
func New() *Server {
	return &Server{nextID: 1, maxBody: 1 << 20}
}

// SetWorkers does nothing: every enumeration runs as one walker. It is
// kept because the benchmark client (perfbench/client.go) still calls
// it, and goes with the next change to the benchmark.
func (s *Server) SetWorkers(int) {}

// SetQueryTimeout bounds the computation of every request: contexts
// derived from incoming requests gain the deadline, the enumeration
// walk and LP pivots poll it, and a request that exceeds it answers 504 Gateway
// Timeout. Zero (the default) leaves computations unbounded. Call
// before serving requests.
func (s *Server) SetQueryTimeout(d time.Duration) { s.queryTimeout = d }

// queryContext derives the computation context for a request: the
// request's own context (so a client disconnect cancels the work) plus
// the configured per-request deadline, if any.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.queryTimeout > 0 {
		return context.WithTimeout(ctx, s.queryTimeout)
	}
	return ctx, func() {}
}

// statusClientClosedRequest is nginx's conventional status for requests
// abandoned by the client before a response was produced. The write
// almost certainly goes nowhere — the client is gone — but keeps logs
// and middleware honest about why the computation stopped.
const statusClientClosedRequest = 499

// writeComputeError maps a computation error to an HTTP answer:
// deadline exceeded → 504, canceled by client disconnect → 499,
// anything else → 500.
func writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query deadline exceeded: %v", err)
	case errors.Is(err, cancel.ErrCanceled):
		writeError(w, statusClientClosedRequest, "client closed request: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// SetCacheBytes enables the memo cache — set-family memoization, LP
// warm-starting across queries, and the /v1/stats counters — with the
// given retained-bytes budget (0 picks memo.DefaultMaxBytes; negative
// disables caching). An on-disk store attached by a prior SetCacheDir
// carries over to the new cache (and is closed when caching is
// disabled). Call before serving requests.
func (s *Server) SetCacheBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	store := s.cache.DiskStore()
	if n < 0 {
		_ = store.Close()
		s.cache = nil
		s.sess = nil
		return
	}
	s.cache = memo.New(n)
	s.cache.SetStore(store)
	if s.model != nil {
		s.sess = core.NewSession(s.model, s.coreOptions())
	}
}

// SetCacheDir attaches a crash-safe on-disk spill of the set-family
// cache rooted at dir, enabling the cache (with the default byte
// budget) if it is not already on: a restarted daemon pointed at the
// same directory answers its first enumerations from disk instead of
// re-walking an unchanged network. Call before serving requests.
func (s *Server) SetCacheDir(dir string) error {
	store, err := memo.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		s.cache = memo.New(0)
		if s.model != nil {
			s.sess = core.NewSession(s.model, s.coreOptions())
		}
	}
	s.cache.SetStore(store)
	return nil
}

// CacheStats returns the memo-cache counters (zero when caching is
// disabled).
func (s *Server) CacheStats() memo.Stats { return s.cache.Stats() }

// Close flushes and closes the cache's on-disk store, if any, so every
// family enumerated so far survives to warm the next process. The
// server keeps answering requests afterwards; only the spill stops.
func (s *Server) Close() error {
	s.mu.Lock()
	cache := s.cache
	s.mu.Unlock()
	return cache.Close()
}

// Handler returns the HTTP handler for the API. With observability
// configured (SetMetrics/SetLogger/SetSlowQuery) the mux is wrapped by
// the instrumentation middleware; otherwise it is returned as-is.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/network", s.handleNetwork)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/flows", s.handleFlows)
	mux.HandleFunc("/v1/flows/", s.handleFlowByID)
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/fairshare", s.handleFairshare)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return s.instrument(mux)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client;
	// they surface as a truncated body.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// networkRequest installs a topology.
type networkRequest struct {
	Nodes         []netjson.NodeSpec `json:"nodes"`
	CSRangeFactor float64            `json:"csRangeFactor,omitempty"`
}

type networkSummary struct {
	Nodes     int  `json:"nodes"`
	Links     int  `json:"links"`
	Flows     int  `json:"flows"`
	Installed bool `json:"installed"`
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPut:
		var req networkRequest
		if err := s.decode(w, r, &req); err != nil {
			return
		}
		if len(req.Nodes) == 0 {
			writeError(w, http.StatusBadRequest, "network needs at least one node")
			return
		}
		pts := make([]geom.Point, 0, len(req.Nodes))
		for _, n := range req.Nodes {
			pts = append(pts, geom.Point{X: n.X, Y: n.Y})
		}
		var opts []radio.Option
		if req.CSRangeFactor > 0 {
			opts = append(opts, radio.WithCSRangeFactor(req.CSRangeFactor))
		}
		net, err := topology.New(radio.NewProfile80211a(opts...), pts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "building network: %v", err)
			return
		}
		s.mu.Lock()
		s.net = net
		s.model = conflict.NewPhysical(net)
		s.flows = nil
		s.gen++
		if s.cache != nil {
			// Fresh session: the old network's warm LPs are useless and
			// its set families age out of the (shared) cache by LRU.
			s.sess = core.NewSession(s.model, s.coreOptions())
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, networkSummary{
			Nodes: net.NumNodes(), Links: net.NumLinks(), Installed: true,
		})
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.net == nil {
			writeJSON(w, http.StatusOK, networkSummary{})
			return
		}
		writeJSON(w, http.StatusOK, networkSummary{
			Nodes: s.net.NumNodes(), Links: s.net.NumLinks(), Flows: len(s.flows), Installed: true,
		})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// queryRequest asks about availability without changing state.
type queryRequest struct {
	Path   []int   `json:"path,omitempty"`
	Src    *int    `json:"src,omitempty"`
	Dst    *int    `json:"dst,omitempty"`
	Metric string  `json:"metric,omitempty"`
	Demand float64 `json:"demandMbps,omitempty"`
	// Trace asks for the per-stage trace block in the response.
	Trace bool `json:"trace,omitempty"`
}

type queryResponse struct {
	Feasible  bool               `json:"feasible"`
	Bandwidth float64            `json:"bandwidthMbps"`
	Admit     *bool              `json:"wouldAdmit,omitempty"`
	PathNodes []int              `json:"pathNodes"`
	Estimates map[string]float64 `json:"estimates"`
	// Trace is present only when the request asked for it; its absence
	// keeps untraced responses byte-identical to the pre-obs wire form.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req queryRequest
	if err := s.decode(w, r, &req); err != nil {
		return
	}
	snap, ok := s.snapshot()
	if !ok {
		writeError(w, http.StatusConflict, "no network installed")
		return
	}
	ctx, cancelCtx := s.queryContext(r)
	defer cancelCtx()
	span := s.querySpan(obs.RequestIDFrom(r.Context()), req.Trace)
	ctx = obs.WithSpan(ctx, span)
	// Everything below runs unlocked: queries never block state access.
	bg := &background{snap: snap}
	path, err := resolvePath(ctx, bg, req.Path, req.Src, req.Dst, req.Metric)
	if err != nil {
		s.finishQuerySpan(span, false)
		if errors.Is(err, cancel.ErrCanceled) {
			writeComputeError(w, err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.availability(ctx, bg, path)
	if err == nil {
		resp.Estimates, err = bg.estimates(ctx, path)
	}
	if err != nil {
		s.finishQuerySpan(span, false)
		writeComputeError(w, err)
		return
	}
	if req.Demand > 0 {
		admit := resp.Feasible && resp.Bandwidth+1e-9 >= req.Demand
		resp.Admit = &admit
	}
	resp.Trace = s.finishQuerySpan(span, req.Trace)
	writeJSON(w, http.StatusOK, resp)
}

// flowRequest admits a flow.
type flowRequest struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Demand float64 `json:"demandMbps"`
	Metric string  `json:"metric,omitempty"`
}

type flowResponse struct {
	Admitted  bool        `json:"admitted"`
	Reason    string      `json:"reason,omitempty"`
	Available float64     `json:"availableMbps"`
	Flow      *flowRecord `json:"flow,omitempty"`
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		writeJSON(w, http.StatusOK, append([]*flowRecord{}, s.flows...))
	case http.MethodPost:
		var req flowRequest
		if err := s.decode(w, r, &req); err != nil {
			return
		}
		if req.Demand <= 0 {
			writeError(w, http.StatusBadRequest, "demandMbps must be positive")
			return
		}
		// Admissions serialize on admitMu — not the state mutex — so the
		// expensive solve below never blocks queries or flow listings.
		// Snapshot → compute → commit; the commit re-checks the network
		// generation, and flow additions can't race (they all hold
		// admitMu). A concurrent DELETE only frees capacity, so deciding
		// against the snapshot's (super)set of flows stays sound.
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		snap, ok := s.snapshot()
		if !ok {
			writeError(w, http.StatusConflict, "no network installed")
			return
		}
		ctx, cancelCtx := s.queryContext(r)
		defer cancelCtx()
		span := s.querySpan(obs.RequestIDFrom(r.Context()), false)
		ctx = obs.WithSpan(ctx, span)
		defer func() { s.finishQuerySpan(span, false) }()
		// Admission reads only the Eq. 6 verdict, so the background is
		// solved for routing's idle ratios and, without a session, as
		// the family Eq. 6 grows; no estimate runs.
		bg := &background{snap: snap}
		path, err := resolvePath(ctx, bg, nil, &req.Src, &req.Dst, req.Metric)
		if err != nil {
			if errors.Is(err, cancel.ErrCanceled) {
				writeComputeError(w, err)
				return
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		avail, err := s.availability(ctx, bg, path)
		if err != nil {
			writeComputeError(w, err)
			return
		}
		resp := flowResponse{Available: avail.Bandwidth}
		if !avail.Feasible {
			resp.Reason = "existing flows are not schedulable with this path's constraints"
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if avail.Bandwidth+1e-9 < req.Demand {
			resp.Reason = fmt.Sprintf("available %.3f Mbps < demand %.3f Mbps", avail.Bandwidth, req.Demand)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		s.mu.Lock()
		if s.gen != snap.gen {
			s.mu.Unlock()
			writeError(w, http.StatusConflict, "network replaced during admission")
			return
		}
		rec := &flowRecord{
			ID: s.nextID, Src: req.Src, Dst: req.Dst, Demand: req.Demand,
			Nodes: avail.PathNodes, path: path,
		}
		s.nextID++
		s.flows = append(s.flows, rec) // IDs only grow: still ascending
		s.mu.Unlock()
		resp.Admitted = true
		resp.Flow = rec
		writeJSON(w, http.StatusCreated, resp)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleFlowByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/flows/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "invalid flow id %q", idStr)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := slices.BinarySearchFunc(s.flows, id, func(f *flowRecord, id int) int { return cmp.Compare(f.ID, id) })
	if !ok {
		writeError(w, http.StatusNotFound, "flow %d not found", id)
		return
	}
	rec := s.flows[i]
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rec)
	case http.MethodDelete:
		s.flows = slices.Delete(s.flows, i, i+1)
		writeJSON(w, http.StatusOK, rec)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// handleSchedule returns the minimal-airtime schedule delivering the
// admitted flows — what the network's TDMA layer should execute.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	snap, ok := s.snapshot()
	if !ok {
		writeError(w, http.StatusConflict, "no network installed")
		return
	}
	ctx, cancelCtx := s.queryContext(r)
	defer cancelCtx()
	sched, err := (&background{snap: snap}).schedule(ctx)
	if err != nil {
		writeComputeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		TotalShare float64           `json:"totalShare"`
		Schedule   schedule.Schedule `json:"schedule"`
	}{TotalShare: sched.TotalShare(), Schedule: sched})
}

type fairShareEntry struct {
	Flow      int     `json:"flow"`
	FairShare float64 `json:"fairShareMbps"`
	Demand    float64 `json:"demandMbps"`
}

// handleFairshare computes each admitted flow's max-min fair share with
// demands lifted — how much every flow could get if the schedulable
// capacity were divided fairly instead of first-come.
func (s *Server) handleFairshare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	if s.net == nil {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "no network installed")
		return
	}
	model := s.model
	opts := s.coreOptions()
	var flows []core.Flow
	var ids []int
	var demands []float64
	for _, f := range s.flows {
		flows = append(flows, core.Flow{Path: f.path}) // uncapped
		ids = append(ids, f.ID)
		demands = append(demands, f.Demand)
	}
	s.mu.Unlock()
	if len(flows) == 0 {
		writeJSON(w, http.StatusOK, []fairShareEntry{})
		return
	}
	// The max-min LP cascade runs unlocked like every other computation.
	ctx, cancelCtx := s.queryContext(r)
	defer cancelCtx()
	alloc, _, err := core.MaxMinFairContext(ctx, model, flows, opts)
	if err != nil {
		writeComputeError(w, err)
		return
	}
	out := make([]fairShareEntry, 0, len(alloc))
	for i, a := range alloc {
		out = append(out, fairShareEntry{Flow: ids[i], FairShare: a, Demand: demands[i]})
	}
	writeJSON(w, http.StatusOK, out)
}

// resolvePath turns a query into a concrete path: either explicit node
// IDs or a routed src/dst pair under the request's background. Runs
// without the state mutex.
func resolvePath(ctx context.Context, bg *background, nodeIDs []int, src, dst *int, metricName string) (topology.Path, error) {
	snap := bg.snap
	if len(nodeIDs) > 0 {
		nodes := make([]topology.NodeID, 0, len(nodeIDs))
		for _, id := range nodeIDs {
			nodes = append(nodes, topology.NodeID(id))
		}
		return snap.net.PathFromNodes(nodes)
	}
	if src == nil || dst == nil {
		return nil, fmt.Errorf("need either path or src+dst")
	}
	metric := routing.MetricAvgE2ED
	if metricName != "" {
		found := false
		for _, m := range routing.AllMetrics() {
			if m.String() == metricName {
				metric = m
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown metric %q", metricName)
		}
	}
	idle, err := bg.idle(ctx)
	if err != nil {
		return nil, err
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageRoute)
	defer tm.End()
	return routing.FindPath(snap.net, snap.model, metric, idle, topology.NodeID(*src), topology.NodeID(*dst))
}

// background is one request's view of the snapshot's admitted flows.
// Their minimal-airtime schedule induces the node idle ratios that
// both routing (Eq. 14) and the Fig. 4 estimators' path state read, so
// a request solves it and derives the ratios at most once each, on
// first use, and every later reader shares them.
// Without a session that solve also keeps the background's set family,
// which the request's Eq. 6 grows by its path's new links instead of
// walking the whole universe again. With a session every answer comes
// from its memo instead. A background lives for one request: nothing
// carries over to the next.
type background struct {
	snap     *snapshot
	cold     *core.Background // the cold solve, once made
	sched    schedule.Schedule
	solved   bool
	nodeIdle []float64 // the node idle ratios, once derived
}

// idle returns the per-node idle ratios the background induces, through
// the session's memo when one is active, deriving them on the first
// call and returning them on every later one.
func (b *background) idle(ctx context.Context) ([]float64, error) {
	if b.nodeIdle != nil {
		return b.nodeIdle, nil
	}
	var err error
	if b.snap.sess != nil {
		b.nodeIdle, err = b.snap.sess.IdleRatiosContext(ctx, b.snap.net, b.snap.background)
		return b.nodeIdle, err
	}
	sched, err := b.schedule(ctx)
	if err != nil {
		return nil, err
	}
	b.nodeIdle = estimate.NodeIdleRatios(b.snap.net, sched)
	return b.nodeIdle, nil
}

// solveCold returns the cold background solve, making it on the first
// call and returning that solve on every later one.
func (b *background) solveCold(ctx context.Context) (*core.Background, error) {
	if b.cold != nil {
		return b.cold, nil
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageSchedule)
	defer tm.End()
	cold, err := routing.SolveBackgroundContext(ctx, b.snap.model, b.snap.background, b.snap.opts)
	if err != nil {
		return nil, err
	}
	b.cold = cold
	return cold, nil
}

// schedule returns the background's minimal-airtime schedule, solving
// it on the first call (memoized through the session when one is
// active) and returning that solve on every later one.
func (b *background) schedule(ctx context.Context) (schedule.Schedule, error) {
	if b.snap.sess == nil {
		cold, err := b.solveCold(ctx)
		if err != nil {
			return schedule.Schedule{}, err
		}
		return cold.Schedule, nil
	}
	if b.solved {
		return b.sched, nil
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageSchedule)
	defer tm.End()
	snap := b.snap
	var sched schedule.Schedule
	var err error
	if len(snap.background) > 0 {
		var ok bool
		ok, sched, err = snap.sess.FeasibleDemandsContext(ctx, snap.background)
		if err != nil {
			err = fmt.Errorf("background schedule: %w", err)
		} else if !ok {
			err = fmt.Errorf("background not schedulable")
		}
	}
	if err != nil {
		return schedule.Schedule{}, err
	}
	b.sched, b.solved = sched, true
	return sched, nil
}

// availability computes the path's exact available bandwidth (Eq. 6)
// against the request's background — all an admission decision reads.
// Runs without the state mutex, so slow solves never block other
// requests.
func (s *Server) availability(ctx context.Context, bg *background, path topology.Path) (*queryResponse, error) {
	if s.computeHook != nil {
		s.computeHook(ctx)
	}
	snap := bg.snap
	nodes, err := snap.net.PathNodes(path)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{PathNodes: make([]int, 0, len(nodes))}
	for _, n := range nodes {
		resp.PathNodes = append(resp.PathNodes, int(n))
	}
	var res *core.Result
	if snap.sess != nil {
		res, err = snap.sess.AvailableBandwidthContext(ctx, snap.background, path)
	} else {
		var cold *core.Background
		if cold, err = bg.solveCold(ctx); err == nil {
			res, err = cold.AvailableBandwidthContext(ctx, path)
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Status == lp.Optimal {
		resp.Feasible = true
		resp.Bandwidth = res.Bandwidth
	}
	return resp, nil
}

// estimates returns the five Fig. 4 estimates of path, read off the
// background schedule through the node idle ratios routing derived
// (derived here when the request named its path).
func (b *background) estimates(ctx context.Context, path topology.Path) (map[string]float64, error) {
	// The schedule read also fails an unschedulable background on the
	// session path, and records its stage there.
	if _, err := b.schedule(ctx); err != nil {
		return nil, err
	}
	idle, err := b.idle(ctx)
	if err != nil {
		return nil, err
	}
	et := obs.SpanFrom(ctx).StartStage(obs.StageEstimate)
	defer et.End()
	ps, err := estimate.PathStateFromIdle(b.snap.net, b.snap.model, idle, path)
	if err != nil {
		return nil, err
	}
	ests, err := estimate.EstimateAll(b.snap.model, ps)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(ests))
	for m, v := range ests {
		out[m.String()] = v
	}
	return out, nil
}

// handleStats serves the memo-cache and warm-start counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	cache := s.cache
	s.mu.Unlock()
	// Metrics is nil when observability is off, and the omitempty keeps
	// the stats body byte-identical to the pre-obs wire form then.
	writeJSON(w, http.StatusOK, struct {
		CacheEnabled bool          `json:"cacheEnabled"`
		Cache        memo.Stats    `json:"cache"`
		Metrics      *obs.Snapshot `json:"metrics,omitempty"`
	}{CacheEnabled: cache != nil, Cache: cache.Stats(), Metrics: s.metrics.Snapshot()})
}

func (s *Server) backgroundLocked() []core.Flow {
	out := make([]core.Flow, 0, len(s.flows))
	for _, f := range s.flows {
		out = append(out, core.Flow{Path: f.path, Demand: f.Demand})
	}
	return out
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return err
	}
	return nil
}
