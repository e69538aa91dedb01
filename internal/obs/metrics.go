// Package obs is the observability layer of the query path: a
// stdlib-only metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms) with Prometheus text exposition, per-query stage
// tracing carried through context.Context, and structured-logging
// helpers (log/slog) with request-id threading.
//
// The whole package follows the cancel.Checker nil-receiver pattern:
// a nil *Registry hands out nil instruments, a nil *Span hands out
// inert timers, and every method of a nil instrument is a no-op — so
// uninstrumented runs pay one nil check per instrumentation point and
// produce byte-identical results (DESIGN.md Sec. 14). Instrumentation
// only ever records what a computation did; it never changes what the
// computation does.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// L is one metric label. Instruments are identified by metric name plus
// the full label set; the same (name, labels) always returns the same
// instrument.
type L struct {
	K, V string
}

// DefaultLatencyBuckets are the histogram bounds every latency series
// uses, in seconds: 100µs to 10s, roughly logarithmic. Fixed buckets
// keep recording allocation-free and exposition deterministic.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops reading zero).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative n is ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are safe on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts:
// recording is lock-free (one atomic add per bucket, count, and sum),
// so concurrent Observe calls from concurrent requests never contend on
// a mutex. Bounds are upper-inclusive (Prometheus `le` semantics) and
// an implicit +Inf bucket catches overflow. All methods are safe on a
// nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, no +Inf
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bound >= v is the le-bucket; past the end is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (zero on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the covering bucket — the usual fixed-bucket
// approximation. Observations in the +Inf bucket clamp to the highest
// finite bound. Returns 0 with no observations or on a nil receiver.
// The snapshot is not atomic across buckets; concurrent recording can
// skew a quantile by at most the in-flight observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one registered instrument under a family: exactly one of
// c/g/h is set, matching the family kind.
type series struct {
	labels string // rendered {k="v",...}, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every label combination of one metric name, so
// exposition emits HELP/TYPE once per name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64          // histogram families only
	series  map[string]*series // guarded by Registry.mu
}

// Registry is a set of named instruments. Create with NewRegistry; a
// nil *Registry is the disabled fast path — it hands out nil
// instruments whose methods no-op, so instrumented code runs unchanged
// (and unmeasured) without one.
//
// Instrument lookup takes the registry mutex; recording on the returned
// instrument is mutex-free. Hot paths should look instruments up once
// and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), creating it on first
// use. Returns nil on a nil registry. Panics when name is already
// registered as a different kind — a programming error, not an
// operational condition.
func (r *Registry) Counter(name, help string, labels ...L) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, counterKind, nil, labels)
	return s.c
}

// Gauge returns the gauge for (name, labels); see Counter.
func (r *Registry) Gauge(name, help string, labels ...L) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, gaugeKind, nil, labels)
	return s.g
}

// Histogram returns the histogram for (name, labels); see Counter. All
// label combinations of one name share the first registration's
// buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...L) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	s := r.lookup(name, help, histogramKind, buckets, labels)
	return s.h
}

func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []L) *series {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch k {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		case histogramKind:
			s.h = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// labelKey renders labels sorted by key as `{k="v",...}` — the series
// identity and the exposition form.
func labelKey(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]L, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// mergeLabels splices an extra label (e.g. le for histogram buckets)
// into a rendered label key.
func mergeLabels(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every instrument in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label key, histograms as cumulative _bucket/_sum/_count series. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	// Snapshot each family's series under the lock; values are read
	// atomically afterwards so a slow writer never blocks recording.
	type snapSeries struct {
		labels string
		s      *series
	}
	snap := make([][]snapSeries, len(fams))
	for i, f := range fams {
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			snap[i] = append(snap[i], snapSeries{labels: k, s: f.series[k]})
		}
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, ss := range snap[i] {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ss.labels, ss.s.c.Value())
			case gaugeKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ss.labels, ss.s.g.Value())
			case histogramKind:
				h := ss.s.h
				cum := int64(0)
				for bi, bound := range h.bounds {
					cum += h.counts[bi].Load()
					le := mergeLabels(ss.labels, `le="`+formatFloat(bound)+`"`)
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				le := mergeLabels(ss.labels, `le="+Inf"`)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ss.labels, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ss.labels, h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistSummary is the JSON-facing digest of one histogram series.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time JSON-ready view of a registry, merged
// into GET /v1/stats next to the memo-cache counters. Map keys are the
// full series names including labels; encoding/json sorts them, so the
// encoded form is deterministic for fixed counter values.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. A nil registry
// returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	out := &Snapshot{}
	r.mu.Lock()
	type item struct {
		name string
		s    *series
		kind kind
	}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var items []item
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			items = append(items, item{name: name + k, s: f.series[k], kind: f.kind})
		}
	}
	r.mu.Unlock()
	for _, it := range items {
		switch it.kind {
		case counterKind:
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[it.name] = it.s.c.Value()
		case gaugeKind:
			if out.Gauges == nil {
				out.Gauges = make(map[string]int64)
			}
			out.Gauges[it.name] = it.s.g.Value()
		case histogramKind:
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistSummary)
			}
			h := it.s.h
			out.Histograms[it.name] = HistSummary{
				Count: h.Count(),
				Sum:   h.Sum(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			}
		}
	}
	return out
}
