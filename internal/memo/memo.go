// Package memo is the query-plan cache of the admission pipeline: it
// amortizes the combinatorial work a long-lived controller repeats
// while answering a stream of admit/teardown/availability queries over
// a slowly-changing network.
//
// Its centerpiece is the set-family cache: enumerated rate-coupled
// maximal independent-set families keyed by a canonical fingerprint of
// (conflict-model identity, link universe, enumeration limit). Complete
// families are deterministic — byte-identical across worker counts
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
	// groups is findDeltaBase's index over the entries of ll: one group
	// per key prefix (model fingerprint and limit), kept by insertLocked
	// and eviction, so a group holds exactly its prefix's live entries.
	groups map[string]*deltaGroup //guards: mu

	// Counters. Every access goes through sync/atomic (the
	// abw/atomicfield lint rule enforces it): Stats() must be callable
	// concurrently with enumerations without taking mu. Exception:
	// evictions only changes under mu (insertLocked), so Stats loads it
	// inside the same critical section as entries/bytes — the three
	// describe one shape and must tear together or not at all.
	lookups        int64
	hits           int64
	misses         int64
	deltaHits      int64
	deltaFallbacks int64
	bypasses       int64
	evictions      int64
	merges         int64
	cancellations  int64
	deltaOff       int32
	coldPivots     int64
	warmPivots     int64
	warmResolves   int64
	pivotsSaved    int64
}

// enumerateFn is the enumeration the cache falls back to on a miss, and
// deltaFn the warm-start walk the delta path tries first. Tests swap
// them to inject errors and to hold flights open deterministically;
// production always points at the real walks.
var (
	enumerateFn = indepset.EnumeratePartialCountedContext
	deltaFn     = indepset.EnumerateDelta
)

// maxDeltaLinks bounds how many links a delta chain may add to a cached
// base family: each added link is one warm-start walk, and past a
// handful of links a fresh enumeration is usually no slower than the
// chain (the l-containing slice of the lattice stops being small).
const maxDeltaLinks = 8

type entry struct {
	key      string
	universe []topology.LinkID // canonical universe the family was enumerated over
	sets     []indepset.Set
	explored int64 // exact exploration count (indepset.DeltaBase.Explored)
	size     int64
	// Delta-base index: the entry's prefix group, its universe's link
	// mask (linkMask) and its slot in the group's bucket for
	// len(universe).
	group *deltaGroup
	mask  uint64
	slot  int
}

// deltaGroup indexes one key prefix's entries by universe size:
// bySize[s] holds, in no particular order, the entries whose universe
// has s links. A base is a strict subset of its target, so its diff is
// the size difference and findDeltaBase reads one bucket per diff.
type deltaGroup struct {
	prefix  string
	bySize  [][]*entry
	entries int
}

// flight is one in-progress enumeration other goroutines may join.
type flight struct {
	done      chan struct{}
	sets      []indepset.Set
	truncated bool
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
		groups:   make(map[string]*deltaGroup),
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
// of links, embeds the effective enumeration limit, and deliberately
// excludes Workers: complete families are byte-identical at every
// worker count. The second return is false when m does not implement
// conflict.Fingerprinter — such enumerations bypass the cache.
func Key(m conflict.Model, links []topology.LinkID, opts indepset.Options) (string, bool) {
	key, _, _, ok := keyParts(m, links, opts)
	return key, ok
}

// keyParts derives the cache key plus the pieces the delta path indexes
// by: the key's universe-independent prefix (fingerprint and limit — two
// keys share it exactly when they differ only in universe) and the
// canonical universe itself. The prefix ends with the "|u" terminator,
// so a prefix match can never straddle the limit digits.
func keyParts(m conflict.Model, links []topology.LinkID, opts indepset.Options) (key, prefix string, universe []topology.LinkID, ok bool) {
	fp := conflict.FallbackFingerprint(m)
	if fp == "" {
		return "", "", nil, false
	}
	universe = canonicalUniverse(links)
	var b strings.Builder
	b.Grow(len(fp) + 16 + 8*len(universe))
	b.WriteString(fp)
	b.WriteString("|l")
	b.WriteString(strconv.Itoa(opts.EffectiveLimit()))
	b.WriteString("|u")
	prefix = b.String()
	return prefix + universeSuffix(universe), prefix, universe, true
}

// universeSuffix renders the canonical universe as the key's trailing
// ":<link>" segments.
func universeSuffix(universe []topology.LinkID) string {
	var b strings.Builder
	b.Grow(8 * len(universe))
	for _, l := range universe {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(l)))
	}
	return b.String()
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
// without walking. The returned slice is a fresh header over shared Set
// values; callers must treat the sets as read-only (they already must —
// core hands the same backing to every Result). Cancelled enumerations
// return an error satisfying errors.Is(err, cancel.ErrCanceled) and are
// never stored — not in memory, not on disk. A waiter merged into
// another goroutine's flight honors its own context: its cancellation
// detaches only that waiter, the leader's walk (and the cached result)
// is unaffected.
func (c *Cache) EnumerateContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, error) {
	sets, truncated, err := c.enumerate(ctx, m, links, opts)
	if err != nil {
		return nil, err
	}
	if truncated {
		return nil, indepset.ErrLimit
	}
	return sets, nil
}

// EnumeratePartialContext is indepset.EnumeratePartialContext through
// the cache. Complete cached families satisfy partial lookups too;
// truncated results are handed back but never stored (their content
// depends on scheduling). See EnumerateContext for the cancellation
// contract.
func (c *Cache) EnumeratePartialContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, error) {
	return c.enumerate(ctx, m, links, opts)
}

// enumerate is the one lookup path. Counter identity, asserted by the
// tests on every path including errors and truncation:
//
//	Lookups == Hits + DiskHits + DeltaHits + Misses + Bypasses + SingleflightMerges
//
// Every lookup on a non-nil cache increments Lookups exactly once and
// exactly one of the right-hand counters: a memory hit, a disk hit
// (the leader found the family spilled on disk), a delta hit (the
// leader grew a smaller cached family by warm-start walks instead of
// enumerating from scratch), a miss (the leader really walked —
// successfully or not; this includes delta chains that fell back or
// were cancelled mid-chain), a bypass (unkeyable model), or a merge
// (joined another goroutine's flight, whatever its outcome).
// Cancellations is orthogonal to the identity: it counts every lookup
// that returned a cancel.ErrCanceled error, whichever path it took.
// DeltaFallbacks is likewise a sub-count of Misses: lookups that found
// a delta base but had to fall back to the full walk.
func (c *Cache) enumerate(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, error) {
	if c == nil {
		sets, truncated, _, err := enumerateFn(ctx, m, links, opts)
		return sets, truncated, err
	}
	// The memo timer measures the lookup itself and tags its outcome;
	// on a miss the leader's walk shows up separately under the
	// enumerate stage, so trace wall times stay attributable. (A delta
	// chain stays inside the memo timer, with its walks additionally
	// recorded under the delta stage.)
	tm := obs.SpanFrom(ctx).StartStage(obs.StageMemo)
	defer tm.End()
	atomic.AddInt64(&c.lookups, 1)
	key, prefix, universe, ok := keyParts(m, links, opts)
	if !ok {
		atomic.AddInt64(&c.bypasses, 1)
		tm.SetOutcome("bypass")
		tm.End() // before the walk: bypass time is the keying attempt, not the DFS
		sets, truncated, _, err := enumerateFn(ctx, m, links, opts)
		return c.countCanceled(sets, truncated, err)
	}

	c.mu.Lock()
	if el, hit := c.entries[key]; hit {
		c.ll.MoveToFront(el)
		sets := el.Value.(*entry).sets
		c.mu.Unlock()
		atomic.AddInt64(&c.hits, 1)
		tm.SetOutcome("hit")
		tm.AddSets(int64(len(sets)))
		return copyFamily(sets), false, nil
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
			return nil, false, cancel.Cause(ctx)
		}
		return c.countCanceled(copyFlight(fl))
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	// Leader: consult the disk spill before paying for a walk. load is
	// nil-safe and never errors — a bad file degrades to a fresh
	// enumeration with DiskErrors counted (store.go).
	if sets, explored, ok := c.store.load(key); ok {
		fl.sets = sets
		c.mu.Lock()
		delete(c.inflight, key)
		c.insertLocked(key, prefix, universe, sets, explored)
		c.mu.Unlock()
		close(fl.done)
		tm.SetOutcome("diskHit")
		tm.AddSets(int64(len(sets)))
		return copyFamily(sets), false, nil
	}

	// Delta path: grow a smaller cached family of the same model and
	// limit link by link instead of enumerating from scratch. Every
	// cached entry is a complete family with an exact exploration count
	// (truncated and cancelled walks are never stored), so any entry is
	// a sound base and the result is byte-identical to a full walk.
	if c.deltaEnabled() {
		sets, explored, derr := c.tryDelta(ctx, m, prefix, universe, opts)
		switch {
		case derr == nil:
			fl.sets = sets
			c.mu.Lock()
			delete(c.inflight, key)
			c.insertLocked(key, prefix, universe, sets, explored)
			c.mu.Unlock()
			close(fl.done)
			atomic.AddInt64(&c.deltaHits, 1)
			tm.SetOutcome("delta")
			tm.AddSets(int64(len(sets)))
			c.store.enqueue(key, sets, explored)
			return copyFamily(sets), false, nil
		case errors.Is(derr, cancel.ErrCanceled):
			// Cancelled mid-chain: the lookup ends here, as a cancelled
			// miss — running the full walk against a dead context would
			// only fail the same way.
			atomic.AddInt64(&c.misses, 1)
			tm.SetOutcome("miss")
			fl.err = derr
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			close(fl.done)
			return c.countCanceled(nil, false, derr)
		case errors.Is(derr, errNoDeltaBase):
			// Nothing to warm-start from: a plain miss, not a fallback.
		default:
			// A base existed but the chain could not serve it (the
			// grown universe trips the limit, where the full walk's
			// truncated family is the answer): fall back to the full
			// walk.
			atomic.AddInt64(&c.deltaFallbacks, 1)
		}
	}

	atomic.AddInt64(&c.misses, 1)
	tm.SetOutcome("miss")
	tm.End() // before the walk: the DFS accounts under the enumerate stage
	var explored int64
	fl.sets, fl.truncated, explored, fl.err = enumerateFn(ctx, m, links, opts)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && !fl.truncated {
		c.insertLocked(key, prefix, universe, fl.sets, explored)
	}
	c.mu.Unlock()
	close(fl.done)

	if fl.err == nil && !fl.truncated {
		// Write-behind: spill the family off the query path. Only
		// complete families reach disk, mirroring the memory rule —
		// and in particular a cancelled walk (fl.err != nil) never
		// reaches memory or disk.
		c.store.enqueue(key, fl.sets, explored)
	}

	return c.countCanceled(copyFlight(fl))
}

// errNoDeltaBase reports that the delta path found no cached family to
// warm-start from; the lookup proceeds as a plain miss.
var errNoDeltaBase = errors.New("memo: no delta base cached")

// tryDelta builds the requested family by chaining per-link delta
// enumerations from the closest smaller cached family. nil error means
// the returned family is complete and byte-identical to a full walk,
// with its exact exploration count. Intermediate families grown along
// the chain are inserted memory-only — they are complete families in
// their own right and make likely future growth steps one-link deltas.
func (c *Cache) tryDelta(ctx context.Context, m conflict.Model, prefix string, universe []topology.LinkID, opts indepset.Options) ([]indepset.Set, int64, error) {
	base, found := c.findDeltaBase(prefix, universe)
	if !found {
		return nil, 0, errNoDeltaBase
	}
	dtm := obs.SpanFrom(ctx).StartStage(obs.StageDelta)
	defer dtm.End()
	missing := linksNotIn(universe, base.Universe)
	for i, l := range missing {
		sets, explored, err := deltaFn(ctx, m, base, []topology.LinkID{l}, opts)
		if err != nil {
			return nil, 0, err
		}
		grown := insertLink(base.Universe, l)
		base = indepset.DeltaBase{Universe: grown, Sets: sets, Explored: explored}
		if i < len(missing)-1 {
			c.mu.Lock()
			c.insertLocked(prefix+universeSuffix(grown), prefix, grown, sets, explored)
			c.mu.Unlock()
		}
	}
	dtm.AddSets(int64(len(base.Sets)))
	return base.Sets, base.Explored, nil
}

// findDeltaBase picks the cached family to warm-start from: same key
// prefix (model fingerprint and limit), universe a strict subset of the
// target missing at most maxDeltaLinks links. Among candidates the
// smallest diff wins (fewest chain steps), ties broken by key so the
// choice is deterministic whatever the LRU order. A subset's diff is
// the size difference, so the prefix group's size buckets are visited
// from len(universe)-1 down, stopping at the first that holds a subset;
// the link mask rejects most non-subsets with one AND before the exact
// check. Under mu this costs one bucket, not one pass over the cache,
// which a long admission stream fills with thousands of families.
func (c *Cache) findDeltaBase(prefix string, universe []topology.LinkID) (indepset.DeltaBase, bool) {
	uMask := linkMask(universe)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[prefix]
	if g == nil {
		return indepset.DeltaBase{}, false
	}
	for diff := 1; diff <= maxDeltaLinks && diff <= len(universe); diff++ {
		size := len(universe) - diff
		if size >= len(g.bySize) {
			continue
		}
		var best *entry
		for _, e := range g.bySize[size] {
			if e.mask&^uMask != 0 {
				continue
			}
			if _, sub := universeDiff(e.universe, universe); !sub {
				continue
			}
			if best == nil || e.key < best.key {
				best = e
			}
		}
		if best != nil {
			// The entry's universe and sets are immutable once cached,
			// so they are safe to use after mu is released.
			return indepset.DeltaBase{Universe: best.universe, Sets: best.sets, Explored: best.explored}, true
		}
	}
	return indepset.DeltaBase{}, false
}

// linkMask folds a universe into 64 bits, link l setting bit l mod 64:
// a subset's mask is a subset of its superset's mask.
func linkMask(universe []topology.LinkID) uint64 {
	var m uint64
	for _, l := range universe {
		m |= 1 << (uint64(l) & 63)
	}
	return m
}

// universeDiff reports how many links of target are missing from base,
// and whether base is a subset of target. Both must be canonical
// (sorted, deduplicated).
func universeDiff(base, target []topology.LinkID) (int, bool) {
	i, diff := 0, 0
	for _, l := range target {
		if i < len(base) && base[i] == l {
			i++
		} else {
			diff++
		}
	}
	if i != len(base) {
		return 0, false
	}
	return diff, true
}

// linksNotIn returns the links of target missing from base, ascending.
func linksNotIn(target, base []topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(target)-len(base))
	i := 0
	for _, l := range target {
		if i < len(base) && base[i] == l {
			i++
		} else {
			out = append(out, l)
		}
	}
	return out
}

// insertLink returns a new canonical universe with l inserted.
func insertLink(universe []topology.LinkID, l topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(universe)+1)
	placed := false
	for _, u := range universe {
		if !placed && l < u {
			out = append(out, l)
			placed = true
		}
		out = append(out, u)
	}
	if !placed {
		out = append(out, l)
	}
	return out
}

// SetDeltaEnabled toggles the delta path (on by default). Off, every
// lookup that misses memory and disk runs a full enumeration — the
// behavior is identical either way (delta results are byte-identical);
// the knob exists for benchmarks and diagnostics that need the two
// regimes separately.
func (c *Cache) SetDeltaEnabled(on bool) {
	if c == nil {
		return
	}
	var v int32
	if !on {
		v = 1
	}
	atomic.StoreInt32(&c.deltaOff, v)
}

func (c *Cache) deltaEnabled() bool {
	return atomic.LoadInt32(&c.deltaOff) == 0
}

// copyFlight extracts a finished flight's outcome, copying the family
// header like every other return path.
func copyFlight(fl *flight) ([]indepset.Set, bool, error) {
	if fl.err != nil {
		return nil, false, fl.err
	}
	return copyFamily(fl.sets), fl.truncated, nil
}

// countCanceled bumps the cancellations counter when the outcome it
// passes through is a cancellation.
func (c *Cache) countCanceled(sets []indepset.Set, truncated bool, err error) ([]indepset.Set, bool, error) {
	if err != nil && errors.Is(err, cancel.ErrCanceled) {
		atomic.AddInt64(&c.cancellations, 1)
	}
	return sets, truncated, err
}

// insertLocked stores a complete family under key, whose prefix is
// prefix (keyParts), and evicts LRU entries until the byte budget holds
// again. An entry larger than the whole budget is inserted and
// immediately evicted, so it never displaces useful state for long. A
// key already present is only refreshed (delta chains can insert an
// intermediate universe another lookup cached concurrently). Caller
// holds mu.
func (c *Cache) insertLocked(key, prefix string, universe []topology.LinkID, sets []indepset.Set, explored int64) {
	if el, dup := c.entries[key]; dup {
		c.ll.MoveToFront(el)
		return
	}
	e := &entry{
		key:      key,
		universe: universe,
		sets:     sets,
		explored: explored,
		size:     familyBytes(key, sets) + int64(8*len(universe)),
	}
	c.entries[key] = c.ll.PushFront(e)
	c.bytes += e.size
	c.indexLocked(e, prefix)
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= ev.size
		c.unindexLocked(ev)
		atomic.AddInt64(&c.evictions, 1)
	}
}

// indexLocked adds e to its prefix group's bucket for its universe
// size. Caller holds mu.
func (c *Cache) indexLocked(e *entry, prefix string) {
	g := c.groups[prefix]
	if g == nil {
		g = &deltaGroup{prefix: prefix}
		c.groups[prefix] = g
	}
	n := len(e.universe)
	for len(g.bySize) <= n {
		g.bySize = append(g.bySize, nil)
	}
	e.group, e.mask, e.slot = g, linkMask(e.universe), len(g.bySize[n])
	g.bySize[n] = append(g.bySize[n], e)
	g.entries++
}

// unindexLocked removes an evicted entry from its bucket by moving the
// bucket's last entry into its slot, and drops the group with its last
// entry. Caller holds mu.
func (c *Cache) unindexLocked(e *entry) {
	g := e.group
	b := g.bySize[len(e.universe)]
	last := b[len(b)-1]
	b[e.slot], last.slot = last, e.slot
	b[len(b)-1] = nil
	g.bySize[len(e.universe)] = b[:len(b)-1]
	g.entries--
	if g.entries == 0 {
		delete(c.groups, g.prefix)
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
	// DeltaHits counts lookups answered by delta enumeration: a smaller
	// cached family of the same model and limit was grown link by link
	// (indepset.EnumerateDelta) into the requested one, byte-identical
	// to a full walk.
	DeltaHits int64 `json:"deltaHits"`
	// DeltaFallbacks counts lookups that found a delta base but had to
	// fall back to the full walk (a limit the grown universe trips). A
	// sub-count of Misses, outside the identity.
	DeltaFallbacks int64 `json:"deltaFallbacks"`
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
		DeltaFallbacks:     atomic.LoadInt64(&c.deltaFallbacks),
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
