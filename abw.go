// Package abw is the public API of the multirate available-bandwidth
// library — a from-scratch reproduction of "Available Bandwidth in
// Multirate and Multihop Wireless Sensor Networks" (Chen, Zhai, Fang;
// ICDCS 2009).
//
// The library answers one central question: given a multirate wireless
// network carrying background traffic, how much more throughput can a
// path support? It does so three ways, matching the paper:
//
//   - exactly, with a linear program over rate-coupled maximal
//     independent sets assuming globally optimal scheduling (Eq. 6);
//   - with bounds — the rate-coupled clique LP upper bound (Eq. 9),
//     classical fixed-rate clique bounds (Eq. 7, shown invalid under
//     link adaptation), and independent-set lower bounds (Sec. 3.3);
//   - distributedly, with the carrier-sensing estimators a real node
//     could compute (Eqs. 10-13, 15), among which the paper's
//     "conservative clique constraint" performs best.
//
// A System bundles a geometric network with the physical (SINR)
// interference model. Entry points:
//
//	sys, _ := abw.NewSystem(abw.Grid(9, 3, 50))
//	path, _ := sys.Route(abw.RouteAvgE2ED, src, dst, background)
//	res, _ := sys.AvailableBandwidth(background, path)
//
// Lower-level control (custom conflict models, table scenarios, the LP
// solver) lives in the internal packages; everything the paper's
// evaluation needs is reachable from here.
package abw

import (
	"context"
	"fmt"
	"math/rand"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/dv"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/schedule"
	"abw/internal/sim"
	"abw/internal/topology"
)

// Re-exported identity types. They alias the internal representations,
// so values flow freely between the facade and advanced internal use.
type (
	// NodeID identifies a node of a System's network.
	NodeID = topology.NodeID
	// LinkID identifies a directed link.
	LinkID = topology.LinkID
	// Path is a chain of links.
	Path = topology.Path
	// Rate is a channel rate in Mbps.
	Rate = radio.Rate
	// Flow is a routed demand in Mbps.
	Flow = core.Flow
	// Schedule is a collection of concurrent transmission sets with
	// time shares.
	Schedule = schedule.Schedule
	// Point is a node position in meters.
	Point = geom.Point
)

// RouteMetric selects a QoS routing metric (paper Sec. 4).
type RouteMetric = routing.Metric

// Routing metrics compared in the paper's Fig. 3.
const (
	RouteHopCount = routing.MetricHopCount
	RouteE2ETD    = routing.MetricE2ETD
	RouteAvgE2ED  = routing.MetricAvgE2ED
)

// EstimateMetric selects a distributed bandwidth estimator (Fig. 4).
type EstimateMetric = estimate.Metric

// The five estimators of the paper's Fig. 4.
const (
	EstimateCliqueConstraint   = estimate.MetricCliqueConstraint
	EstimateBottleneckNode     = estimate.MetricBottleneckNode
	EstimateMinOfBoth          = estimate.MetricMinOfBoth
	EstimateConservativeClique = estimate.MetricConservativeClique
	EstimateECTT               = estimate.MetricExpectedCliqueTime
)

// Layout produces node positions for NewSystem.
type Layout func() ([]Point, error)

// Positions uses explicit coordinates.
func Positions(pts ...Point) Layout {
	return func() ([]Point, error) {
		if len(pts) == 0 {
			return nil, fmt.Errorf("abw: no positions")
		}
		out := make([]Point, len(pts))
		copy(out, pts)
		return out, nil
	}
}

// Random places n nodes uniformly in a w x h meter rectangle,
// deterministically from seed — the paper's Sec. 5.2 uses 30 nodes in
// 400 x 600.
func Random(n int, w, h float64, seed int64) Layout {
	return func() ([]Point, error) {
		if n <= 0 || w <= 0 || h <= 0 {
			return nil, fmt.Errorf("abw: invalid random layout (n=%d, %gx%g)", n, w, h)
		}
		rng := rand.New(rand.NewSource(seed))
		return geom.UniformPoints(rng, geom.Rect{W: w, H: h}, n), nil
	}
}

// Grid places n nodes on a grid with the given columns and spacing.
func Grid(n, cols int, spacing float64) Layout {
	return func() ([]Point, error) {
		if n <= 0 || spacing <= 0 {
			return nil, fmt.Errorf("abw: invalid grid layout")
		}
		return geom.GridPoints(n, cols, spacing), nil
	}
}

// Line places n nodes on a line with the given spacing — the chain
// topologies of the paper's Fig. 1.
func Line(n int, spacing float64) Layout {
	return func() ([]Point, error) {
		if n <= 0 || spacing <= 0 {
			return nil, fmt.Errorf("abw: invalid line layout")
		}
		return geom.LinePoints(n, spacing), nil
	}
}

// Option configures a System.
type Option func(*config)

type config struct {
	radioOpts  []radio.Option
	workers    int
	cacheOn    bool
	cacheBytes int64
	cacheDir   string
}

// WithCSRangeFactor sets the carrier-sense range as a multiple of the
// longest rate range (default 1.5).
func WithCSRangeFactor(f float64) Option {
	return func(c *config) { c.radioOpts = append(c.radioOpts, radio.WithCSRangeFactor(f)) }
}

// WithNoiseMarginDB gives every rate extra SINR headroom at its boundary
// distance (default 0 dB).
func WithNoiseMarginDB(db float64) Option {
	return func(c *config) { c.radioOpts = append(c.radioOpts, radio.WithNoiseMarginDB(db)) }
}

// WithCache enables the query-plan cache for this system: enumerated
// set families are memoized by content fingerprint, repeated-structure
// availability LPs are warm-started across Admit steps, and the
// counters are readable through CacheStats. maxBytes bounds the bytes
// retained for cached set families (0 picks a default budget). Cached
// answers are bit-for-bit identical to fresh computation — the cache
// only changes speed, never results.
func WithCache(maxBytes int64) Option {
	return func(c *config) { c.cacheOn = true; c.cacheBytes = maxBytes }
}

// WithCacheDir additionally spills cached set families to dir as
// crash-safe fingerprint-named files, so a restarted process warms up
// instantly on an unchanged network: cache misses consult the
// directory before enumerating, and complete families are written
// behind the query path. It implies WithCache. Any IO problem (corrupt
// file, full disk) silently degrades to fresh enumeration and is
// counted in CacheStats; call Close when done with the System to flush
// pending spills.
func WithCacheDir(dir string) Option {
	return func(c *config) { c.cacheOn = true; c.cacheDir = dir }
}

// WithWorkers sets the number of concurrent workers independent-set
// enumeration uses for this system's queries: 0 (the default) picks
// automatically from GOMAXPROCS and the problem size, 1 or negative
// forces sequential, larger values force that many workers. Results are
// identical at every setting.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// System is a multirate wireless network under the paper's physical
// (cumulative SINR) interference model with the four-rate 802.11a
// profile of Sec. 5.2.
type System struct {
	net     *topology.Network
	model   *conflict.Physical
	workers int
	cache   *memo.Cache
}

// coreOptions returns the core options every query of this system uses.
func (s *System) coreOptions() core.Options {
	return core.Options{Workers: s.workers, Cache: s.cache}
}

// NewSystem builds a System from a layout.
func NewSystem(layout Layout, opts ...Option) (*System, error) {
	if layout == nil {
		return nil, fmt.Errorf("abw: nil layout")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	pts, err := layout()
	if err != nil {
		return nil, err
	}
	net, err := topology.New(radio.NewProfile80211a(cfg.radioOpts...), pts)
	if err != nil {
		return nil, fmt.Errorf("abw: %w", err)
	}
	sys := &System{net: net, model: conflict.NewPhysical(net), workers: cfg.workers}
	if cfg.cacheOn {
		sys.cache = memo.New(cfg.cacheBytes)
		if cfg.cacheDir != "" {
			store, err := memo.OpenStore(cfg.cacheDir, 0)
			if err != nil {
				return nil, fmt.Errorf("abw: %w", err)
			}
			sys.cache.SetStore(store)
		}
	}
	return sys, nil
}

// Close flushes and releases the on-disk cache store when the system
// was built WithCacheDir; otherwise it is a no-op. The System remains
// usable for queries afterwards (families just stop spilling to disk).
func (s *System) Close() error { return s.cache.Close() }

// CacheStats returns the query-plan cache counters: set-family hits,
// misses and retained bytes, plus warm-start pivot accounting. All
// zeros unless the system was built WithCache.
func (s *System) CacheStats() CacheStats { return s.cache.Stats() }

// CacheStats is the counter snapshot the memo cache exposes.
type CacheStats = memo.Stats

// Span accumulates a per-stage trace of one query: wall time, sets
// enumerated, simplex pivots, cache outcomes and worker counts for
// every stage the computation passed through (routing, enumeration,
// memo lookup, LP solve/warm-resolve, scheduling, estimation). Attach
// one with WithTrace; read it back with Span.Trace after the query.
type Span = obs.Span

// TraceData is a finished span's snapshot — the same structure the
// daemon returns as a query's "trace" block.
type TraceData = obs.TraceData

// WithTrace attaches a fresh trace span to ctx and returns both. Every
// *Context entry point called with the returned context records its
// stages into the span; the computed results are byte-identical to an
// untraced run (tracing only observes). Read the trace with
// span.Trace() once the call returns:
//
//	ctx, span := abw.WithTrace(context.Background())
//	res, _ := sys.AvailableBandwidthContext(ctx, background, path)
//	td := span.Trace() // stage-by-stage wall time, sets, pivots
func WithTrace(ctx context.Context) (context.Context, *Span) {
	span := obs.NewSpan("")
	return obs.WithSpan(ctx, span), span
}

// ErrCanceled reports a computation stopped by context cancellation or
// deadline expiry. Errors from the *Context entry points satisfy
// errors.Is(err, ErrCanceled) when the context fired, and additionally
// errors.Is(err, context.DeadlineExceeded) when a deadline caused it.
// Canceled computations never store partial results in the cache or on
// disk; an uncancelled run returns byte-identical results with or
// without a context.
var ErrCanceled = cancel.ErrCanceled

// Network returns the underlying topology for advanced use.
func (s *System) Network() *topology.Network { return s.net }

// Model returns the underlying physical conflict model for advanced use.
func (s *System) Model() *conflict.Physical { return s.model }

// NumNodes returns the node count.
func (s *System) NumNodes() int { return s.net.NumNodes() }

// NumLinks returns the directed link count.
func (s *System) NumLinks() int { return s.net.NumLinks() }

// PathBetween returns the link path along the given node sequence,
// verifying every hop exists.
func (s *System) PathBetween(nodes ...NodeID) (Path, error) {
	return s.net.PathFromNodes(nodes)
}

// Result reports an availability computation.
type Result struct {
	// Feasible is false when the background demands alone cannot be
	// scheduled.
	Feasible bool
	// Bandwidth is the exact available bandwidth of the queried path in
	// Mbps (Eq. 6).
	Bandwidth float64
	// Schedule delivers the background plus Bandwidth on the path.
	Schedule Schedule
}

// AvailableBandwidth computes the exact available bandwidth of path
// given background flows, assuming globally optimal link scheduling
// (the paper's Eq. 6 model).
func (s *System) AvailableBandwidth(background []Flow, path Path) (*Result, error) {
	return s.AvailableBandwidthContext(context.Background(), background, path)
}

// AvailableBandwidthContext is AvailableBandwidth under a context:
// enumeration workers and LP pivots poll ctx, so cancellation (or a
// deadline) stops the computation promptly with an error satisfying
// errors.Is(err, ErrCanceled).
func (s *System) AvailableBandwidthContext(ctx context.Context, background []Flow, path Path) (*Result, error) {
	res, err := core.AvailableBandwidthContext(ctx, s.model, background, path, s.coreOptions())
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return &Result{}, nil
	}
	return &Result{Feasible: true, Bandwidth: res.Bandwidth, Schedule: res.Schedule}, nil
}

// PathCapacity is AvailableBandwidth with no background traffic — the
// baseline problem of the authors' earlier work [1].
func (s *System) PathCapacity(path Path) (*Result, error) {
	return s.AvailableBandwidth(nil, path)
}

// UpperBound computes the rate-coupled clique upper bound of Eq. 9.
func (s *System) UpperBound(background []Flow, path Path) (float64, error) {
	res, err := core.UpperBoundLP(s.model, background, path, s.coreOptions())
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, nil
	}
	return res.Bandwidth, nil
}

// idleness is the carrier-sensed per-node idleness the background
// induces, shared by the routing entry points.
func (s *System) idleness(background []Flow) ([]float64, error) {
	return routing.BackgroundIdlenessContext(context.Background(), s.net, s.model, background, s.coreOptions())
}

// backgroundSchedule is the background's minimal-airtime schedule,
// shared by the estimation entry points.
func (s *System) backgroundSchedule(background []Flow) (Schedule, error) {
	return routing.BackgroundScheduleContext(context.Background(), s.model, background, s.coreOptions())
}

// Route finds a path from src to dst under the given metric. The
// background flows induce the carrier-sensed idleness average-e2eD
// needs; pass nil for an idle network.
func (s *System) Route(metric RouteMetric, src, dst NodeID, background []Flow) (Path, error) {
	idle, err := s.idleness(background)
	if err != nil {
		return nil, err
	}
	return routing.FindPath(s.net, s.model, metric, idle, src, dst)
}

// Request is an admission request; Decision its outcome.
type (
	Request  = routing.Request
	Decision = routing.Decision
)

// Admit runs the paper's sequential admission (Sec. 5.2): flows join
// one by one, each routed by metric and admitted iff its path's exact
// available bandwidth covers the demand. With stopAtFirstFailure the
// run ends at the first rejection, as in the paper.
func (s *System) Admit(metric RouteMetric, requests []Request, stopAtFirstFailure bool) ([]Decision, error) {
	return s.AdmitContext(context.Background(), metric, requests, stopAtFirstFailure)
}

// AdmitContext is Admit under a context: ctx is checked between
// admission steps and inside each step's enumeration and LPs, so a
// canceled run stops promptly, returning the decisions completed so far
// alongside an error satisfying errors.Is(err, ErrCanceled).
func (s *System) AdmitContext(ctx context.Context, metric RouteMetric, requests []Request, stopAtFirstFailure bool) ([]Decision, error) {
	return routing.SequentialAdmissionContext(ctx, s.net, s.model, metric, requests,
		routing.AdmissionOptions{StopAtFirstFailure: stopAtFirstFailure, Core: s.coreOptions()})
}

// DistributedRoute computes a route by pure message passing: a
// synchronous distance-vector protocol (internal/dv) runs to
// convergence under the metric's link weights, then next-hop pointers
// are followed. The result matches Route (same weights) but needs no
// global topology knowledge; the returned stats report the protocol
// cost.
func (s *System) DistributedRoute(metric RouteMetric, src, dst NodeID, background []Flow) (Path, DVStats, error) {
	idle, err := s.idleness(background)
	if err != nil {
		return nil, DVStats{}, err
	}
	w, err := routing.Weight(s.model, metric, idle)
	if err != nil {
		return nil, DVStats{}, err
	}
	engine, err := dv.New(s.net, w)
	if err != nil {
		return nil, DVStats{}, err
	}
	rounds, err := engine.RunToConvergence(0)
	if err != nil {
		return nil, DVStats{}, err
	}
	path, err := engine.Route(src, dst)
	if err != nil {
		return nil, DVStats{}, err
	}
	return path, DVStats{Rounds: rounds, Messages: engine.Messages()}, nil
}

// DVStats reports the cost of a distance-vector route computation.
type DVStats struct {
	// Rounds is the number of synchronous exchanges until convergence.
	Rounds int
	// Messages is the total number of neighbor advertisements sent.
	Messages int
}

// RouteByEstimate implements the paper's Sec. 4 distributed routing
// proposal: find the src-to-dst path with the largest estimated
// available bandwidth, where every intermediate node scores the prefix
// reaching it with the given estimator from carrier-sensed idleness.
// It returns the path and its estimate.
func (s *System) RouteByEstimate(metric EstimateMetric, src, dst NodeID, background []Flow) (Path, float64, error) {
	idle, err := s.idleness(background)
	if err != nil {
		return nil, 0, err
	}
	router, err := routing.NewDistributedRouter(s.net, s.model, metric, idle)
	if err != nil {
		return nil, 0, err
	}
	return router.Route(src, dst)
}

// Estimate computes a distributed estimate of path's available
// bandwidth against the background, using carrier-sensed idleness
// (paper Sec. 4).
func (s *System) Estimate(metric EstimateMetric, background []Flow, path Path) (float64, error) {
	sched, err := s.backgroundSchedule(background)
	if err != nil {
		return 0, err
	}
	ps, err := estimate.PathStateFromSchedule(s.net, s.model, sched, path)
	if err != nil {
		return 0, err
	}
	return estimate.Estimate(metric, s.model, ps)
}

// Explanation reports an estimate together with its binding constraint.
type Explanation = estimate.Explanation

// Explain computes an estimate and identifies WHERE the bandwidth is
// lost: the binding local clique (clique-based estimators) or the
// binding hop (bottleneck estimator).
func (s *System) Explain(metric EstimateMetric, background []Flow, path Path) (Explanation, error) {
	sched, err := s.backgroundSchedule(background)
	if err != nil {
		return Explanation{}, err
	}
	ps, err := estimate.PathStateFromSchedule(s.net, s.model, sched, path)
	if err != nil {
		return Explanation{}, err
	}
	return estimate.Explain(metric, s.model, ps)
}

// EstimateAll computes all five estimators at once.
func (s *System) EstimateAll(background []Flow, path Path) (map[EstimateMetric]float64, error) {
	sched, err := s.backgroundSchedule(background)
	if err != nil {
		return nil, err
	}
	ps, err := estimate.PathStateFromSchedule(s.net, s.model, sched, path)
	if err != nil {
		return nil, err
	}
	return estimate.EstimateAll(s.model, ps)
}

// Simulate executes a schedule in the TDMA frame simulator, forwarding
// the flows' packets hop by hop, and returns their measured end-to-end
// goodput in Mbps.
func (s *System) Simulate(sched Schedule, flows []Flow, periods int) ([]float64, error) {
	rep, err := sim.RunFlows(s.model, sched, flows, sim.TDMAConfig{Periods: periods})
	if err != nil {
		return nil, err
	}
	return rep.FlowDelivered, nil
}

// GreedySchedule builds a schedule for the flows with the greedy
// neediest-first packer instead of the LP — the practical baseline of
// experiment E14. It reports whether every demand was met; when not,
// the schedule still carries best-effort traffic.
func (s *System) GreedySchedule(flows []Flow) (Schedule, bool, error) {
	demand := make(map[LinkID]float64)
	for i, f := range flows {
		if len(f.Path) == 0 || f.Demand <= 0 {
			return Schedule{}, false, fmt.Errorf("abw: flow %d needs a path and positive demand", i)
		}
		for _, l := range f.Path {
			demand[l] += f.Demand
		}
	}
	return schedule.Greedy(s.model, demand)
}

// FixedRateCliqueBound computes the classical Eq. 7 clique bound for
// the path pinned to each hop's alone maximum rate — the baseline the
// paper proves invalid under link adaptation (it can fall below the
// true multirate capacity).
func (s *System) FixedRateCliqueBound(path Path) (float64, error) {
	rates := make([]Rate, 0, len(path))
	for _, l := range path {
		r := conflict.AloneMaxRate(s.model, l)
		if r <= 0 {
			return 0, fmt.Errorf("abw: link %d supports no rate", l)
		}
		rates = append(rates, r)
	}
	return core.FixedRateCliqueBound(s.model, path, rates)
}

// FeasibleDemands reports whether the flows can all be delivered
// simultaneously, returning a delivering schedule when they can.
func (s *System) FeasibleDemands(flows []Flow) (bool, Schedule, error) {
	return core.FeasibleDemandsContext(context.Background(), s.model, flows, s.coreOptions())
}

// MaxMinFair allocates end-to-end throughput max-min fairly across the
// flows over the exact feasibility region: allocations rise together
// and freeze at each flow's true bottleneck (or at its Demand when
// positive; Demand 0 means uncapped). Returns per-flow allocations in
// input order and a delivering schedule.
func (s *System) MaxMinFair(flows []Flow) ([]float64, Schedule, error) {
	return core.MaxMinFairContext(context.Background(), s.model, flows, s.coreOptions())
}

// MaxDemandScale returns the largest factor theta such that every new
// flow fits at theta times its demand alongside the background;
// theta >= 1 means jointly admissible (the paper's multi-flow
// extension).
func (s *System) MaxDemandScale(background, newFlows []Flow) (float64, error) {
	theta, _, err := s.maxDemandScale(background, newFlows)
	return theta, err
}

// maxDemandScale delegates MaxDemandScale to core, schedule included.
func (s *System) maxDemandScale(background, newFlows []Flow) (float64, Schedule, error) {
	return core.MaxDemandScaleContext(context.Background(), s.model, background, newFlows, s.coreOptions())
}
