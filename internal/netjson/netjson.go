// Package netjson serializes networks, flows and availability queries
// as JSON for the command-line tools: cmd/abwlp consumes a Spec and
// emits an Answer, so the whole model is scriptable without writing Go.
package netjson

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/topology"
)

// NodeSpec is one node position in meters.
type NodeSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// FlowSpec is a background flow: a node path and its demand in Mbps.
type FlowSpec struct {
	Path   []int   `json:"path"`
	Demand float64 `json:"demand"`
}

// QuerySpec asks for the available bandwidth of a path, given either
// explicitly (node IDs) or as endpoints plus a routing metric.
type QuerySpec struct {
	Path   []int  `json:"path,omitempty"`
	Src    *int   `json:"src,omitempty"`
	Dst    *int   `json:"dst,omitempty"`
	Metric string `json:"metric,omitempty"` // "hop count", "e2eTD", "average-e2eD"
}

// Spec is the abwlp input document.
type Spec struct {
	Nodes []NodeSpec `json:"nodes"`
	// CSRangeFactor optionally overrides the carrier-sense range factor.
	CSRangeFactor float64    `json:"csRangeFactor,omitempty"`
	Background    []FlowSpec `json:"background,omitempty"`
	Query         QuerySpec  `json:"query"`
	// Cache enables the memo cache for the solve: set families
	// enumerated for the availability LP are reused by the background
	// schedule and estimates, and the answer reports the counters. The
	// numbers are identical either way.
	Cache bool `json:"cache,omitempty"`
	// CacheBytes bounds the bytes retained for cached set families
	// (0 = memo.DefaultMaxBytes). Setting it implies Cache.
	CacheBytes int64 `json:"cacheBytes,omitempty"`
	// CacheDir, when set, spills enumerated families to this directory
	// (crash-safe fingerprint-named files) and consults it before
	// enumerating, so repeated solves of the same network skip the
	// walk entirely across processes. Implies Cache.
	CacheDir string `json:"cacheDir,omitempty"`
	// QueryTimeoutMs bounds the whole solve in milliseconds (0 =
	// unbounded): the enumeration walk and LP pivots poll the deadline,
	// and an expired solve fails with an error satisfying
	// errors.Is(err, context.DeadlineExceeded). The answer of a solve
	// that finishes in time is identical with or without a timeout.
	QueryTimeoutMs int64 `json:"queryTimeoutMs,omitempty"`
	// Trace records a per-stage trace of the solve (routing,
	// enumeration, memo lookups, LP pivots) into the answer's trace
	// block. The numeric answer is byte-identical either way; tracing
	// only observes the computation.
	Trace bool `json:"trace,omitempty"`

	// cache is the per-solve memo instance when Cache is set.
	cache *memo.Cache
}

func (s *Spec) coreOptions() core.Options {
	return core.Options{Cache: s.cache}
}

// SlotAnswer is one schedule slot of the answer.
type SlotAnswer struct {
	Share   float64           `json:"share"`
	Couples map[string]string `json:"couples"` // "L3" -> "54Mbps"
}

// Answer is the abwlp output document.
type Answer struct {
	Feasible  bool               `json:"feasible"`
	Bandwidth float64            `json:"bandwidthMbps"`
	PathNodes []int              `json:"pathNodes"`
	PathLinks []int              `json:"pathLinks"`
	Schedule  []SlotAnswer       `json:"schedule,omitempty"`
	Estimates map[string]float64 `json:"estimates,omitempty"`
	// CacheStats reports the memo-cache counters when the spec enabled
	// caching.
	CacheStats *memo.Stats `json:"cacheStats,omitempty"`
	// Trace is the per-stage trace when the spec asked for one.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// ParseSpec decodes a Spec from JSON.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("netjson: decoding spec: %w", err)
	}
	return &s, nil
}

// BuildNetwork materializes the spec's topology under the 802.11a
// profile.
func (s *Spec) BuildNetwork() (*topology.Network, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("netjson: spec has no nodes")
	}
	pts := make([]geom.Point, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		pts = append(pts, geom.Point{X: n.X, Y: n.Y})
	}
	var opts []radio.Option
	if s.CSRangeFactor > 0 {
		opts = append(opts, radio.WithCSRangeFactor(s.CSRangeFactor))
	}
	net, err := topology.New(radio.NewProfile80211a(opts...), pts)
	if err != nil {
		return nil, fmt.Errorf("netjson: %w", err)
	}
	return net, nil
}

func (s *Spec) backgroundFlows(net *topology.Network) ([]core.Flow, error) {
	flows := make([]core.Flow, 0, len(s.Background))
	for i, f := range s.Background {
		path, err := nodePath(net, f.Path)
		if err != nil {
			return nil, fmt.Errorf("netjson: background flow %d: %w", i, err)
		}
		if f.Demand <= 0 {
			return nil, fmt.Errorf("netjson: background flow %d has demand %g", i, f.Demand)
		}
		flows = append(flows, core.Flow{Path: path, Demand: f.Demand})
	}
	return flows, nil
}

func parseMetric(name string) (routing.Metric, error) {
	for _, m := range routing.AllMetrics() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("netjson: unknown routing metric %q (want one of: hop count, e2eTD, average-e2eD)", name)
}

// queryPath checks the query's own input, then solves the background
// once and resolves the query to a concrete link path, routing when
// only endpoints are given: the background's node idle ratios are what
// routing and the estimates read, and its set family grows into the
// path's Eq. 6 family. A routed query needs a schedulable background;
// an explicit path gets its Eq. 6 answer (infeasible) either way.
func (s *Spec) queryPath(ctx context.Context, net *topology.Network, m conflict.Model, background []core.Flow) (topology.Path, *core.Background, error) {
	var path topology.Path
	metric := routing.MetricAvgE2ED
	var err error
	switch {
	case len(s.Query.Path) > 0:
		if path, err = nodePath(net, s.Query.Path); err != nil {
			return nil, nil, err
		}
	case s.Query.Src == nil || s.Query.Dst == nil:
		return nil, nil, fmt.Errorf("netjson: query needs either a path or src+dst")
	case s.Query.Metric != "":
		if metric, err = parseMetric(s.Query.Metric); err != nil {
			return nil, nil, err
		}
	}
	bg, err := core.SolveBackgroundContext(ctx, m, background, s.coreOptions())
	if err != nil {
		return nil, nil, err
	}
	if path != nil {
		return path, bg, nil
	}
	if !bg.Feasible {
		return nil, nil, fmt.Errorf("netjson: background not schedulable")
	}
	path, err = routing.FindPath(net, m, metric, bg.IdleRatios(net), topology.NodeID(*s.Query.Src), topology.NodeID(*s.Query.Dst))
	return path, bg, err
}

// SolveContext answers the spec: exact available bandwidth (Eq. 6), the
// delivering schedule, and all five distributed estimates. ctx
// (tightened by the spec's QueryTimeoutMs, if set) is threaded through routing, enumeration and
// every LP, so cancellation stops the solve promptly. Canceled solves
// never store or spill partial results.
func SolveContext(ctx context.Context, s *Spec) (*Answer, error) {
	if s.QueryTimeoutMs < 0 {
		return nil, fmt.Errorf("netjson: queryTimeoutMs must be non-negative, got %d", s.QueryTimeoutMs)
	}
	if s.QueryTimeoutMs > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, time.Duration(s.QueryTimeoutMs)*time.Millisecond)
		defer cancelCtx()
	}
	var span *obs.Span
	if s.Trace {
		span = obs.NewSpan("")
		ctx = obs.WithSpan(ctx, span)
	}
	if s.CacheBytes != 0 || s.CacheDir != "" {
		s.Cache = true
	}
	if s.Cache && s.cache == nil {
		s.cache = memo.New(s.CacheBytes)
		if s.CacheDir != "" {
			store, err := memo.OpenStore(s.CacheDir, 0)
			if err != nil {
				return nil, fmt.Errorf("netjson: %w", err)
			}
			s.cache.SetStore(store)
		}
	}
	net, err := s.BuildNetwork()
	if err != nil {
		return nil, err
	}
	m := conflict.NewPhysical(net)
	background, err := s.backgroundFlows(net)
	if err != nil {
		return nil, err
	}
	path, bg, err := s.queryPath(ctx, net, m, background)
	if err != nil {
		return nil, err
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		return nil, err
	}
	ans := &Answer{
		PathNodes: nodeInts(nodes),
		PathLinks: linkInts(path),
	}
	res, err := bg.AvailableBandwidthContext(ctx, path)
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		// Infeasible background: Feasible stays false.
		ans.CacheStats = s.cacheStats()
		ans.Trace = span.Trace()
		return ans, nil
	}
	ans.Feasible = true
	ans.Bandwidth = res.Bandwidth
	for _, slot := range res.Schedule.Slots {
		sa := SlotAnswer{Share: slot.Share, Couples: make(map[string]string, slot.Set.Len())}
		for _, cp := range slot.Set.Couples {
			sa.Couples[fmt.Sprintf("L%d", cp.Link)] = cp.Rate.String()
		}
		ans.Schedule = append(ans.Schedule, sa)
	}

	if !bg.Feasible {
		// Unreachable up to LP tolerance: a feasible Eq. 6 delivers the
		// background.
		return nil, fmt.Errorf("netjson: background not schedulable")
	}
	ps, err := estimate.PathStateFromIdle(net, m, bg.IdleRatios(net), path)
	if err != nil {
		return nil, err
	}
	ests, err := estimate.EstimateAll(m, ps)
	if err != nil {
		return nil, err
	}
	ans.Estimates = make(map[string]float64, len(ests))
	for metric, v := range ests {
		ans.Estimates[metric.String()] = v
	}
	ans.CacheStats = s.cacheStats()
	ans.Trace = span.Trace()
	return ans, nil
}

// cacheStats flushes pending disk spills (so a one-shot process exits
// with its families durably written and the counters reflect them) and
// snapshots the counters; nil when the solve ran uncached.
func (s *Spec) cacheStats() *memo.Stats {
	if s.cache == nil {
		return nil
	}
	s.cache.FlushStore()
	st := s.cache.Stats()
	return &st
}

// WriteAnswer encodes the answer as indented JSON.
func WriteAnswer(w io.Writer, a *Answer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("netjson: encoding answer: %w", err)
	}
	return nil
}

func nodePath(net *topology.Network, ids []int) (topology.Path, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("path needs at least two nodes, got %d", len(ids))
	}
	nodes := make([]topology.NodeID, 0, len(ids))
	for _, id := range ids {
		nodes = append(nodes, topology.NodeID(id))
	}
	return net.PathFromNodes(nodes)
}

func nodeInts(nodes []topology.NodeID) []int {
	out := make([]int, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, int(n))
	}
	return out
}

func linkInts(path topology.Path) []int {
	out := make([]int, 0, len(path))
	for _, l := range path {
		out = append(out, int(l))
	}
	return out
}
