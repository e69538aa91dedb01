// Package memo is the query-plan cache of the admission pipeline: it
// amortizes the combinatorial work a long-lived controller repeats
// while answering a stream of admit/teardown/availability queries over
// a slowly-changing network.
//
// Its centerpiece is the set-family cache: enumerated rate-coupled
// maximal independent-set families keyed by a canonical fingerprint of
// (conflict-model identity, link universe, enumeration limit). Complete
// families are deterministic — byte-identical from run to run
// (DESIGN.md Sec. 8) — so a cached family is bit-for-bit the family a
// fresh enumeration would produce, and the cache is invisible to every
// result. Three mechanisms keep it cheap and bounded:
//
//   - LRU eviction by retained-set bytes: every entry is charged its
//     approximate retained size and the least recently used families
//     are dropped once the configured budget is exceeded;
//   - singleflight deduplication: concurrent enumerations of the same
//     key collapse into one walk, with the waiters counted as merges;
//   - plain sync/atomic counters (hits, misses, evictions, merges,
//     pivots saved by LP warm-starting, cached bytes) exposed through
//     Stats for the abwd GET /stats surface and the -cachestats flags.
//
// Lookups come in two forms over one path. GrowContext looks up a
// named base's universe grown by some links, and on a miss grows the
// base's family by one delta walk (indepset.EnumerateDelta) instead of
// walking the grown universe: Eq. 6 over U_bg ∪ P grows the
// background's family of U_bg. The caller names the base, holding its
// family or leaving it to the cache's memory. EnumerateContext names
// none; its miss grows from the universe the previous lookup grew from
// or looked up, when that is a retained proper subset, and walks from
// scratch otherwise. The cache never searches its entries for a base.
//
// The cache also carries the warm-start counters of the sequential
// admission session (internal/core.Session): the session reports cold
// and warm simplex pivot counts here so one stats surface covers the
// whole amortization layer. Truncated (partial) enumerations are never
// stored: their content depends on scheduling, so caching them would
// break the byte-identity contract.
package memo

import (
	"container/list"
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/obs"
	"abw/internal/topology"
)

// DefaultMaxBytes is the retained-set budget used when New is given a
// non-positive size: 64 MiB, a few thousand mid-size families.
const DefaultMaxBytes = 64 << 20

// Cache is the set-family cache. Create with New; a nil *Cache is valid
// and bypasses caching entirely (every call enumerates fresh), so
// callers can thread an optional cache without branching.
type Cache struct {
	maxBytes int64

	// store, when non-nil, is the on-disk spill (store.go): misses
	// consult it before enumerating, complete families are written
	// behind the query path. Attach with SetStore before first use; a
	// store must back exactly one cache or the disk counters stop
	// reconciling.
	store *Store

	mu       sync.Mutex
	entries  map[string]*list.Element //guards: mu — key -> *entry element
	ll       *list.List               //guards: mu — front = most recently used
	bytes    int64                    //guards: mu — retained bytes
	inflight map[string]*flight       //guards: mu
	// recent is the universe the latest keyed lookup grew from, or
	// looked up when it grew from none: the base a lookup that names
	// none grows from (baseLocked).
	recent recentLookup //guards: mu

	// Counters. Every access goes through sync/atomic (the
	// abw/atomicfield lint rule enforces it): Stats() must be callable
	// concurrently with enumerations without taking mu. Exception:
	// evictions only changes under mu (insertLocked), so Stats loads it
	// inside the same critical section as entries/bytes — the three
	// describe one shape and must tear together or not at all.
	lookups       int64
	hits          int64
	misses        int64
	deltaHits     int64
	bypasses      int64
	evictions     int64
	merges        int64
	cancellations int64
	coldPivots    int64
	warmPivots    int64
	warmResolves  int64
	pivotsSaved   int64
}

// enumerateFn is the full walk a lookup's leader runs on a miss, and
// deltaFn the walk that grows a named base (GrowContext). Tests swap
// them to inject errors and to hold flights open deterministically;
// production always points at the real walks.
var (
	enumerateFn = indepset.EnumeratePartialCountedContext
	deltaFn     = indepset.EnumerateDelta
)

type entry struct {
	key      string
	sets     []indepset.Set
	explored int64 // exact exploration count (indepset.DeltaBase.Explored)
	size     int64
}

// recentLookup names a universe's family without holding it: tag is
// the key's model-and-limit part, the key up to its universe.
type recentLookup struct {
	tag      string
	universe []topology.LinkID
}

// flight is one in-progress enumeration other goroutines may join.
type flight struct {
	done      chan struct{}
	sets      []indepset.Set
	truncated bool
	explored  int64
	err       error
}

// New returns a cache with the given retained-bytes budget; sizes <= 0
// use DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		ll:       list.New(),
		inflight: make(map[string]*flight),
	}
}

// SetStore attaches the on-disk spill: misses consult it before
// enumerating and complete families are written behind the query path.
// Attach before the cache is shared between goroutines; a store must
// back exactly one cache. Nil-safe on both sides.
func (c *Cache) SetStore(s *Store) {
	if c == nil {
		return
	}
	c.store = s
}

// DiskStore returns the attached on-disk spill, or nil.
func (c *Cache) DiskStore() *Store {
	if c == nil {
		return nil
	}
	return c.store
}

// FlushStore blocks until every family enqueued for spilling so far is
// on disk (or dropped). No-op without a store; nil-safe.
func (c *Cache) FlushStore() {
	if c == nil {
		return
	}
	c.store.Flush()
}

// Close flushes and releases the attached on-disk store; the in-memory
// cache keeps working (further spills are dropped and counted).
// Nil-safe and idempotent.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.store.Close()
}

// Key derives the canonical cache key for an enumeration of links under
// m with the given options, and reports whether the model supports
// keying at all. The key is insensitive to the order (and duplication)
// of links and embeds the effective enumeration limit. The second
// return is false when m does not implement
// conflict.Fingerprinter — such enumerations bypass the cache.
func Key(m conflict.Model, links []topology.LinkID, opts indepset.Options) (string, bool) {
	key, _, ok := universeKey(m, links, opts)
	return key, ok
}

// universeKey is Key, also returning the canonical universe it names.
func universeKey(m conflict.Model, links []topology.LinkID, opts indepset.Options) (string, []topology.LinkID, bool) {
	fp := conflict.FallbackFingerprint(m)
	if fp == "" {
		return "", nil, false
	}
	universe := canonicalUniverse(links)
	var b strings.Builder
	b.Grow(len(fp) + 16 + 8*len(universe))
	b.WriteString(fp)
	b.WriteString("|l")
	b.WriteString(strconv.Itoa(opts.EffectiveLimit()))
	writeUniverse(&b, universe)
	return b.String(), universe, true
}

// writeUniverse writes a key's universe part: "|u", then ":id" for
// each link. The part holds no other "|", so a key's last "|u" ends
// its tag.
func writeUniverse(b *strings.Builder, universe []topology.LinkID) {
	b.WriteString("|u")
	for _, l := range universe {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(l)))
	}
}

// canonicalUniverse sorts and deduplicates links, matching the
// canonicalization enumeration itself performs.
func canonicalUniverse(links []topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, len(links))
	copy(out, links)
	for i := 1; i < len(out); i++ { // insertion sort: universes are small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	w := 0
	for i, l := range out {
		if i == 0 || l != out[w-1] {
			out[w] = l
			w++
		}
	}
	return out[:w]
}

// EnumerateContext is indepset.EnumerateContext through the cache: a
// complete family previously enumerated for the same key is returned
// without walking, and a miss grows the family of the universe the
// previous lookup grew from or looked up, when that is a retained
// proper subset (so a caller looking up U_bg, or growing from it, then
// U_bg ∪ P by universe alone grows as GrowContext would), and walks
// from scratch otherwise. The returned slice is a fresh header over
// shared Set values; callers must treat the sets as read-only (they
// already must — core hands the same backing to every Result).
// Cancelled enumerations return an error satisfying
// errors.Is(err, cancel.ErrCanceled) and are never stored — not in
// memory, not on disk. A waiter merged into another goroutine's flight
// honors its own context: its cancellation detaches only that waiter,
// the leader's walk (and the cached result) is unaffected.
func (c *Cache) EnumerateContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, error) {
	sets, _, err := c.GrowContext(ctx, m, indepset.DeltaBase{}, links, opts)
	return sets, err
}

// EnumeratePartialContext is indepset.EnumeratePartialContext through
// the cache. Complete cached families satisfy partial lookups too; a
// miss walks from scratch; truncated results are handed back but never
// stored (their content depends on scheduling). See EnumerateContext
// for the cancellation contract.
func (c *Cache) EnumeratePartialContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, error) {
	sets, truncated, _, err := c.enumerate(ctx, m, indepset.DeltaBase{}, links, opts, true)
	return sets, truncated, err
}

// GrowContext returns the complete family over base.Universe ∪ links
// and its exact exploration count, through the cache: the lookup is
// EnumerateContext's over the grown universe, and only a miss differs.
// From a non-empty base the leader grows the base's family by one
// indepset.EnumerateDelta walk (a delta hit, recorded as the delta
// stage) instead of walking the grown universe. base.Universe must be
// canonical, and the cache may keep it, so it must not change. A base
// that carries its family (Sets non-nil) must be a complete family of
// the same model and options (one this cache or a full walk returned);
// a base named by its universe alone takes the family this cache
// retains in memory, and without one the miss walks the grown universe
// (a miss). The empty base is EnumerateContext. A grown universe past
// the enumeration limit is indepset.ErrLimit, the full walk's exact
// verdict, and is not stored. A nil cache runs the same walk (a base
// without its family walked whole) and keeps nothing.
func (c *Cache) GrowContext(ctx context.Context, m conflict.Model, base indepset.DeltaBase, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, int64, error) {
	sets, truncated, explored, err := c.enumerate(ctx, m, base, links, opts, false)
	if err != nil {
		return nil, 0, err
	}
	if truncated {
		return nil, 0, indepset.ErrLimit
	}
	return sets, explored, nil
}

// enumerate is the one lookup path, over base.Universe ∪ links; partial
// lookups accept a truncated family and never grow from a base they do
// not name. Counter identity, asserted by the tests on every path
// including errors and truncation:
//
//	Lookups == Hits + DiskHits + DeltaHits + Misses + Bypasses + SingleflightMerges
//
// Every lookup on a non-nil cache increments Lookups exactly once and
// exactly one of the right-hand counters: a memory hit, a disk hit
// (the leader found the family spilled on disk), a delta hit (the
// leader grew a base's family by one delta walk), a miss (the leader
// walked from scratch, or its delta walk failed: cancelled or past the
// limit), a bypass (unkeyable model), or a merge (joined another
// goroutine's flight, whatever its outcome). Cancellations is
// orthogonal to the identity: it counts every lookup that returned a
// cancel.ErrCanceled error, whichever path it took.
func (c *Cache) enumerate(ctx context.Context, m conflict.Model, base indepset.DeltaBase, links []topology.LinkID, opts indepset.Options, partial bool) ([]indepset.Set, bool, int64, error) {
	if c == nil {
		return walk(ctx, m, base, links, opts)
	}
	// The memo timer measures the lookup itself and tags its outcome;
	// on a full-walk miss the leader's walk shows up separately under
	// the enumerate stage, so trace wall times stay attributable. (A
	// delta walk stays inside the memo timer, additionally recorded
	// under the delta stage.)
	tm := obs.SpanFrom(ctx).StartStage(obs.StageMemo)
	defer tm.End()
	atomic.AddInt64(&c.lookups, 1)
	target := links
	if len(base.Universe) > 0 {
		target = append(slices.Clip(base.Universe), links...)
	}
	key, universe, ok := universeKey(m, target, opts)
	if !ok {
		atomic.AddInt64(&c.bypasses, 1)
		tm.SetOutcome("bypass")
		tm.End() // before the walk: bypass time is the keying attempt, not the DFS
		return c.countCanceled(walk(ctx, m, base, links, opts))
	}
	tag := key[:strings.LastIndex(key, "|u")]

	c.mu.Lock()
	prev := c.recent
	c.recent = recentLookup{tag: tag, universe: universe}
	if len(base.Universe) > 0 {
		c.recent.universe = base.Universe
	}
	if el, hit := c.entries[key]; hit {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		atomic.AddInt64(&c.hits, 1)
		tm.SetOutcome("hit")
		tm.AddSets(int64(len(e.sets)))
		return copyFamily(e.sets), false, e.explored, nil
	}
	if fl, joined := c.inflight[key]; joined {
		c.mu.Unlock()
		atomic.AddInt64(&c.merges, 1)
		tm.SetOutcome("merge")
		// Honor the waiter's own context: cancellation detaches this
		// waiter without touching the leader's walk or its result. The
		// nil Done channel of an uncancellable context blocks that case
		// forever, leaving the plain fl.done wait.
		select {
		case <-fl.done:
		case <-ctx.Done():
			atomic.AddInt64(&c.cancellations, 1)
			return nil, false, 0, cancel.Cause(ctx)
		}
		if partial && errors.Is(fl.err, indepset.ErrLimit) {
			// A growing leader's verdict carries no truncated family
			// for a partial lookup to share: walk for it.
			return c.countCanceled(enumerateFn(ctx, m, links, opts))
		}
		return c.countCanceled(copyFlight(fl))
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	add := links
	if len(base.Universe) == 0 {
		add = universe
	}
	if base = c.baseLocked(base, prev, tag, universe, partial); held(base) {
		c.recent.universe = base.Universe
	}
	c.mu.Unlock()

	// Leader: consult the disk spill before paying for a walk. load is
	// nil-safe and never errors — a bad file degrades to a fresh
	// enumeration with DiskErrors counted (store.go).
	if sets, explored, ok := c.store.load(key); ok {
		fl.sets, fl.explored = sets, explored
		c.mu.Lock()
		delete(c.inflight, key)
		c.insertLocked(key, sets, explored)
		c.mu.Unlock()
		close(fl.done)
		tm.SetOutcome("diskHit")
		tm.AddSets(int64(len(sets)))
		return copyFamily(sets), false, explored, nil
	}

	grow := held(base)
	if !grow {
		atomic.AddInt64(&c.misses, 1)
		tm.SetOutcome("miss")
		tm.End() // before the walk: the DFS accounts under the enumerate stage
	}
	fl.sets, fl.truncated, fl.explored, fl.err = walk(ctx, m, base, add, opts)
	complete := fl.err == nil && !fl.truncated
	if grow && complete {
		atomic.AddInt64(&c.deltaHits, 1)
		tm.SetOutcome("delta")
		tm.AddSets(int64(len(fl.sets)))
	} else if grow {
		atomic.AddInt64(&c.misses, 1)
		tm.SetOutcome("miss")
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if complete {
		c.insertLocked(key, fl.sets, fl.explored)
	}
	c.mu.Unlock()
	close(fl.done)

	if complete {
		// Write-behind: spill the family off the query path. Only
		// complete families reach disk, mirroring the memory rule —
		// and in particular a cancelled walk (fl.err != nil) never
		// reaches memory or disk.
		c.store.enqueue(key, fl.sets, fl.explored)
	}

	return c.countCanceled(copyFlight(fl))
}

// baseLocked resolves the base a leader's miss over universe grows
// from. A base that carries its family is used as given. A base named
// by its universe alone takes the family retained in memory for it. A
// complete lookup that names no base takes the family of prev, the
// universe the previous lookup grew from or looked up, when that is a
// proper subset of universe under the same tag and is retained. Without
// a family the miss walks universe whole. Caller holds mu.
func (c *Cache) baseLocked(base indepset.DeltaBase, prev recentLookup, tag string, universe []topology.LinkID, partial bool) indepset.DeltaBase {
	if base.Sets != nil {
		return base
	}
	u := base.Universe
	if len(u) == 0 {
		if partial || prev.tag != tag || len(prev.universe) >= len(universe) || !isSubset(prev.universe, universe) {
			return base
		}
		u = prev.universe
	}
	var b strings.Builder
	b.Grow(len(tag) + 8*len(u) + 2)
	b.WriteString(tag)
	writeUniverse(&b, u)
	if el, ok := c.entries[b.String()]; ok {
		e := el.Value.(*entry)
		return indepset.DeltaBase{Universe: u, Sets: e.sets, Explored: e.explored}
	}
	return base
}

// isSubset reports whether every link of sub is in of; both ascend.
func isSubset(sub, of []topology.LinkID) bool {
	j := 0
	for _, l := range sub {
		for j < len(of) && of[j] < l {
			j++
		}
		if j == len(of) || of[j] != l {
			return false
		}
	}
	return true
}

// held reports whether base carries a family to grow.
func held(base indepset.DeltaBase) bool {
	return len(base.Universe) > 0 && base.Sets != nil
}

// walk is a lookup's work on a miss: from a base that carries its
// family one delta walk adding links, recorded as the delta stage;
// otherwise the full walk of base.Universe ∪ links.
func walk(ctx context.Context, m conflict.Model, base indepset.DeltaBase, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, int64, error) {
	if !held(base) {
		if len(base.Universe) > 0 {
			links = append(slices.Clip(base.Universe), links...)
		}
		return enumerateFn(ctx, m, links, opts)
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageDelta)
	defer tm.End()
	sets, explored, err := deltaFn(ctx, m, base, links, opts)
	tm.AddSets(int64(len(sets)))
	return sets, false, explored, err
}

// copyFlight extracts a finished flight's outcome, copying the family
// header like every other return path.
func copyFlight(fl *flight) ([]indepset.Set, bool, int64, error) {
	if fl.err != nil {
		return nil, false, 0, fl.err
	}
	return copyFamily(fl.sets), fl.truncated, fl.explored, nil
}

// countCanceled bumps the cancellations counter when the outcome it
// passes through is a cancellation.
func (c *Cache) countCanceled(sets []indepset.Set, truncated bool, explored int64, err error) ([]indepset.Set, bool, int64, error) {
	if err != nil && errors.Is(err, cancel.ErrCanceled) {
		atomic.AddInt64(&c.cancellations, 1)
	}
	return sets, truncated, explored, err
}

// insertLocked stores a complete family under key and evicts LRU
// entries until the byte budget holds again. An entry larger than the
// whole budget is inserted and immediately evicted, so it never
// displaces useful state for long. A key already present is only
// refreshed. Caller holds mu.
func (c *Cache) insertLocked(key string, sets []indepset.Set, explored int64) {
	if el, dup := c.entries[key]; dup {
		c.ll.MoveToFront(el)
		return
	}
	e := &entry{key: key, sets: sets, explored: explored, size: familyBytes(key, sets)}
	c.entries[key] = c.ll.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= ev.size
		atomic.AddInt64(&c.evictions, 1)
	}
}

// familyBytes approximates the retained size of a cached family: the
// key, each set's couples, and fixed per-set overhead for the Set
// header and bookkeeping.
func familyBytes(key string, sets []indepset.Set) int64 {
	const (
		coupleBytes   = 16 // LinkID + Rate
		setOverhead   = 48 // Set header + slice header + bookkeeping
		entryOverhead = 96 // entry struct + list element + map slot
	)
	n := int64(entryOverhead + len(key))
	for i := range sets {
		n += setOverhead + int64(len(sets[i].Couples))*coupleBytes
	}
	return n
}

// copyFamily returns a fresh slice header over the shared Set values,
// so callers appending to or re-sorting the family cannot corrupt the
// cached copy.
func copyFamily(sets []indepset.Set) []indepset.Set {
	out := make([]indepset.Set, len(sets))
	copy(out, sets)
	return out
}

// AddSolvePivots accounts one LP solve of the warm-start layer: a cold
// (from-scratch) solve contributes its pivot count to ColdPivots; a
// warm re-solve contributes to WarmPivots and WarmResolves, plus the
// estimated pivots it saved versus the last cold solve of the same
// problem shape. A nil cache ignores the report.
func (c *Cache) AddSolvePivots(warm bool, pivots, saved int) {
	if c == nil {
		return
	}
	if warm {
		atomic.AddInt64(&c.warmPivots, int64(pivots))
		atomic.AddInt64(&c.warmResolves, 1)
		if saved > 0 {
			atomic.AddInt64(&c.pivotsSaved, int64(saved))
		}
	} else {
		atomic.AddInt64(&c.coldPivots, int64(pivots))
	}
}

// Stats is a point-in-time snapshot of the cache counters, shaped for
// the abwd GET /stats endpoint and the -cachestats CLI flags.
type Stats struct {
	// Lookups counts every cache lookup. The counters below reconcile
	// exactly on every path, including errors and truncation:
	// Lookups == Hits + DiskHits + DeltaHits + Misses + Bypasses + SingleflightMerges.
	Lookups int64 `json:"lookups"`
	// Hits counts lookups answered from a family retained in memory.
	Hits int64 `json:"hits"`
	// Misses counts enumerations this cache had to run.
	Misses int64 `json:"misses"`
	// DeltaHits counts grows (GrowContext) answered by delta
	// enumeration: the caller's base family was grown by one
	// indepset.EnumerateDelta walk into the requested one,
	// byte-identical to a full walk.
	DeltaHits int64 `json:"deltaHits"`
	// Bypasses counts enumerations of models with no fingerprint.
	Bypasses int64 `json:"bypasses"`
	// Evictions counts families dropped by the LRU byte budget.
	Evictions int64 `json:"evictions"`
	// SingleflightMerges counts concurrent duplicate enumerations that
	// joined another goroutine's walk instead of running their own.
	SingleflightMerges int64 `json:"singleflightMerges"`
	// Cancellations counts lookups abandoned by context cancellation —
	// a cancelled leader walk, a cancelled waiter detaching from a
	// flight, or a cancelled bypass enumeration. Orthogonal to the
	// Lookups identity above (a cancelled lookup still counted as a
	// miss, merge, or bypass); cancelled results are never stored.
	Cancellations int64 `json:"cancellations"`
	// Entries and Bytes describe the currently retained families.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes is the configured retention budget.
	MaxBytes int64 `json:"maxBytes"`
	// DiskHits/DiskMisses count lookups the on-disk store answered or
	// could not answer; DiskErrors counts store IO failures of every
	// kind (corrupt/stale/alien files, failed or dropped writes) — all
	// degraded to fresh enumeration, none surfaced to a query.
	// DiskBytes is the bytes currently spilled. All zero without a
	// store.
	DiskHits   int64 `json:"diskHits"`
	DiskMisses int64 `json:"diskMisses"`
	DiskErrors int64 `json:"diskErrors"`
	DiskBytes  int64 `json:"diskBytes"`
	// ColdPivots and WarmPivots count simplex pivots spent by cold
	// solves and warm re-solves in the LP warm-start layer;
	// WarmResolves counts the re-solves. PivotsSaved estimates pivots
	// avoided: for each warm re-solve, the last cold solve's pivot
	// count for the same problem shape minus the warm pivot count.
	ColdPivots   int64 `json:"coldPivots"`
	WarmPivots   int64 `json:"warmPivots"`
	WarmResolves int64 `json:"warmResolves"`
	PivotsSaved  int64 `json:"pivotsSaved"`
}

// Stats returns a snapshot of the counters. Safe to call concurrently
// with enumerations; a nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	// All cache-shape fields — entries, their bytes, and the evictions
	// that shaped them (evictions only changes under mu) — are read in
	// ONE critical section: a poll racing an insert must never see the
	// new entry counted without its bytes, or an eviction without its
	// byte decrement.
	c.mu.Lock()
	entries := len(c.entries)
	bytes := c.bytes
	evictions := atomic.LoadInt64(&c.evictions)
	c.mu.Unlock()
	diskHits, diskMisses, diskErrors, diskBytes := c.store.statsSnapshot()
	return Stats{
		Lookups:            atomic.LoadInt64(&c.lookups),
		Hits:               atomic.LoadInt64(&c.hits),
		Misses:             atomic.LoadInt64(&c.misses),
		DeltaHits:          atomic.LoadInt64(&c.deltaHits),
		Bypasses:           atomic.LoadInt64(&c.bypasses),
		Evictions:          evictions,
		SingleflightMerges: atomic.LoadInt64(&c.merges),
		Cancellations:      atomic.LoadInt64(&c.cancellations),
		Entries:            entries,
		Bytes:              bytes,
		MaxBytes:           c.maxBytes,
		DiskHits:           diskHits,
		DiskMisses:         diskMisses,
		DiskErrors:         diskErrors,
		DiskBytes:          diskBytes,
		ColdPivots:         atomic.LoadInt64(&c.coldPivots),
		WarmPivots:         atomic.LoadInt64(&c.warmPivots),
		WarmResolves:       atomic.LoadInt64(&c.warmResolves),
		PivotsSaved:        atomic.LoadInt64(&c.pivotsSaved),
	}
}
