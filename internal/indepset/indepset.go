// Package indepset enumerates the paper's rate-coupled independent sets
// (Sec. 2.4): sets of (link, rate) couples that can all transmit
// concurrently, together with the *maximal* ones that suffice for the
// feasibility condition (Propositions 1-3). A maximal independent set
// satisfies two conditions beyond feasibility:
//
//  1. rate-maximality — no single link's rate can be raised while the
//     rest of the set keeps its rates; and
//  2. link-maximality — no further link can be inserted at any positive
//     rate without lowering some member's rate.
//
// Unlike single-rate networks, a maximal set's link set may be a strict
// subset of another independent set's; the enumeration below preserves
// those (the paper's Scenario II depends on them).
//
// Maximality is decided during the DFS itself: the single-link and
// single-rate extensions that could disqualify a subset are exactly the
// kind of children the walk visits anyway, so each explored feasible set
// is tested in place against incrementally maintained state instead of
// being materialized and re-verified from scratch afterwards. The
// physical model keeps running per-receiver interference sums
// (conflict.SetTracker); pairwise models (conflict.PairwiseModel) keep
// per-link bitmasks of the rates still clearing every member, so a push
// only checks the newly added couple against the current members. A
// model that is neither has no walk (ErrUnsupportedModel).
//
// Each model has one walk, rooted at a link: it pushes that link and
// branches over a list of other positions. EnumerateDelta grows a
// complete family by new links with one such walk per added link,
// without re-walking the old universe; the full enumeration is the
// same thing grown from the empty universe, one walk per link over the
// positions after it. One walker runs every walk of an enumeration in
// order; see walkFamily for the walk plan, and DESIGN.md Sec. 8 for the
// walk-plan, budget and family-order invariants.
package indepset

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/topology"
)

// Set is an independent set: couples sorted by link ID. Families are
// kept in conflict.CompareCouples order.
type Set struct {
	Couples []conflict.Couple
}

// NewSet builds a Set from couples, sorting them by link ID.
func NewSet(couples ...conflict.Couple) Set {
	cs := make([]conflict.Couple, len(couples))
	copy(cs, couples)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Link < cs[j].Link })
	return Set{Couples: cs}
}

// Rate returns the rate of the given link in the set, or 0 if the link
// is not a member. It binary-searches the (sorted) couples.
func (s Set) Rate(link topology.LinkID) radio.Rate {
	cs := s.Couples
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cs[mid].Link < link {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cs) && cs[lo].Link == link {
		return cs[lo].Rate
	}
	return 0
}

// Links returns the member link IDs in ascending order.
func (s Set) Links() []topology.LinkID {
	out := make([]topology.LinkID, 0, len(s.Couples))
	for _, c := range s.Couples {
		out = append(out, c.Link)
	}
	return out
}

// Contains reports whether link is a member.
func (s Set) Contains(link topology.LinkID) bool { return s.Rate(link) > 0 }

// Len returns the number of couples.
func (s Set) Len() int { return len(s.Couples) }

// Key returns a canonical string identity, for printing and
// deduplication: "link@rate" fragments joined by '|'. Families are
// ordered by conflict.CompareCouples, not by Key.
func (s Set) Key() string {
	b := make([]byte, 0, 8*len(s.Couples))
	for i, c := range s.Couples {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(c.Link), 10)
		b = append(b, '@')
		b = strconv.AppendFloat(b, float64(c.Rate), 'g', -1, 64)
	}
	return string(b)
}

// String implements fmt.Stringer.
func (s Set) String() string {
	parts := make([]string, 0, len(s.Couples))
	for _, c := range s.Couples {
		parts = append(parts, c.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ErrLimit is returned when enumeration exceeds the configured set
// limit; callers may treat partial enumerations as lower bounds
// (paper Sec. 3.3) but EnumerateContext refuses to return silently
// truncated results.
var ErrLimit = fmt.Errorf("indepset: enumeration limit exceeded")

// ErrUnsupportedModel reports a model that no walk serves: enumeration
// needs a *conflict.Physical (the cumulative-interference walk) or a
// conflict.PairwiseModel (the couple-assignment walk).
var ErrUnsupportedModel = errors.New("indepset: model is neither *conflict.Physical nor conflict.PairwiseModel")

// ErrCanceled reports that an enumeration was abandoned because its
// context was cancelled. Unlike ErrLimit, a cancelled walk's partial
// family is NOT returned — cancellation yields no result at all, and
// callers (the memo cache in particular) must never store one.
var ErrCanceled = cancel.ErrCanceled

// Options configure enumeration.
type Options struct {
	// Limit bounds the number of feasible sets explored; 0 means the
	// default of 1<<20. The bound is exact: at most Limit sets are
	// explored, the walk stops before exploring set Limit+1, and a
	// truncated EnumeratePartialContext hands back at most Limit sets —
	// the same ones on every run.
	Limit int
}

func (o Options) limit() int {
	if o.Limit <= 0 {
		return 1 << 20
	}
	return o.Limit
}

// EffectiveLimit returns the exploration bound enumeration will actually
// enforce: Limit, or the package default when Limit is unset. Cache keys
// (internal/memo) embed it so families enumerated under different
// bounds never share an entry.
func (o Options) EffectiveLimit() int { return o.limit() }

// EnumerateContext returns every maximal independent set (with maximum
// supported rate vectors) over the given links, in deterministic order.
// The empty set is never returned; if no link can transmit at all the
// result is empty. The walk polls ctx.Done() periodically (a countdown
// check in the DFS hot loops, so uncancellable contexts cost nothing)
// and returns an error satisfying errors.Is(err, ErrCanceled) promptly
// once ctx is cancelled. A run whose context is never cancelled returns
// the byte-identical family of a run under context.Background(). The
// model must be safe for concurrent read-only use when several
// enumerations share it (concurrent requests do); every model in
// internal/conflict is immutable after construction and qualifies.
func EnumerateContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts Options) ([]Set, error) {
	sets, truncated, _, err := enumerate(ctx, m, links, opts)
	if err != nil {
		return nil, err
	}
	if truncated {
		return nil, ErrLimit
	}
	return sets, nil
}

// EnumeratePartialContext is EnumerateContext with graceful
// degradation: when the exploration limit trips, it returns the maximal
// sets found so far and truncated = true instead of failing. A
// truncated result is still a sound basis for the paper's Sec. 3.3
// LOWER bounds (every returned set is genuinely feasible and maximal);
// it must not be used where completeness matters (exact Eq. 6 optima,
// upper bounds). Cancellation wins over truncation: a cancelled walk
// returns ErrCanceled and no family, never a truncated partial one.
func EnumeratePartialContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts Options) ([]Set, bool, error) {
	sets, truncated, _, err := enumerate(ctx, m, links, opts)
	return sets, truncated, err
}

// EnumeratePartialCountedContext is EnumeratePartialContext reporting,
// alongside the family, how many feasible sets (physical walk) or
// feasible complete couple assignments (pairwise walk) the enumeration
// charged against Options.Limit. For a complete (untruncated) family
// the count is exact and deterministic — byte-identical runs charge
// identically — and it is the accounting seed the delta path
// (EnumerateDelta) needs to reproduce ErrLimit verdicts without
// re-walking the base universe. The count of a truncated run is
// unspecified.
func EnumeratePartialCountedContext(ctx context.Context, m conflict.Model, links []topology.LinkID, opts Options) ([]Set, bool, int64, error) {
	return enumerate(ctx, m, links, opts)
}

func enumerate(ctx context.Context, m conflict.Model, links []topology.LinkID, opts Options) ([]Set, bool, int64, error) {
	universe := dedupSorted(links)
	tm := obs.SpanFrom(ctx).StartStage(obs.StageEnumerate)
	defer tm.End()
	b := &budget{limit: int64(opts.limit())}
	out, err := walkFamily(ctx, m, universe, nil, b)
	truncated := errors.Is(err, ErrLimit)
	if err != nil && !truncated {
		return nil, false, 0, err
	}
	sortFamily(out)
	tm.AddSets(int64(len(out)))
	return out, truncated, b.n, nil
}

// budget is one enumeration's exploration budget: take charges one
// explored feasible set and reports whether it was within the limit,
// so exactly `limit` takes succeed. n starts at the charges already
// made: the delta walk (delta.go) seeds it with the base universe's
// exploration count, so the combined count — and therefore the
// ErrLimit verdict — is identical to a full walk over the grown
// universe. n is exact for a complete walk; after a tripped limit it
// is one past the limit, and truncated walks never report it.
type budget struct {
	n, limit int64
}

func (b *budget) take() bool {
	b.n++
	return b.n <= b.limit
}

// walk is the walk for one link: its universe position and the
// positions it branches over.
type walk struct {
	lpos  int
	order []int
}

// walker is one model's enumeration state: the universe's
// precomputation, the mutable DFS state and the sets found so far.
type walker interface {
	// hasRate reports whether the link at position p has a positive
	// declared rate; a link without one never appears in a set and
	// has nothing to walk.
	hasRate(p int) bool
	// threatOrder is the delta walk's branch order for the link at p:
	// every position except p and the skipped ones, strongest
	// conflictors of p first.
	threatOrder(p int, skip []bool) []int
	// runWalk runs wk whole: every set made of wk's link and positions
	// of its order.
	runWalk(wk walk) error
	// family returns the sets found so far, unsorted.
	family() []Set
}

// walkFamily runs the model's walks over universe in order and returns
// their sets, unsorted; after an ErrLimit stop it still returns the
// maximal sets found. apos lists the added positions (ascending) of a
// delta walk, each walked in threat order with the earlier ones
// skipped; nil walks the full universe, every position branching in
// ascending order over the ones after it — the same walks from an
// empty base, whose pre-order is the plain subset (or assignment)
// walk's.
func walkFamily(ctx context.Context, m conflict.Model, universe []topology.LinkID, apos []int, b *budget) ([]Set, error) {
	var w walker
	switch mm := m.(type) {
	case *conflict.Physical:
		w = newPhysicalWalker(ctx, mm, universe, b)
	case conflict.PairwiseModel:
		w = newPairwiseWalker(ctx, mm, universe, b)
	default:
		return nil, ErrUnsupportedModel
	}
	if apos == nil {
		asc := make([]int, len(universe))
		for p := range asc {
			asc[p] = p
		}
		for p := range asc {
			if !w.hasRate(p) {
				continue
			}
			if err := w.runWalk(walk{lpos: p, order: asc[p+1:]}); err != nil {
				return w.family(), err
			}
		}
		return w.family(), nil
	}
	skip := make([]bool, len(universe))
	for _, p := range apos {
		if w.hasRate(p) {
			if err := w.runWalk(walk{lpos: p, order: w.threatOrder(p, skip)}); err != nil {
				return w.family(), err
			}
		}
		skip[p] = true
	}
	return w.family(), nil
}

// sortFamily puts a walk's output into family order
// (conflict.CompareCouples). A full physical walk already emits it,
// which pdqsort checks in linear time; pairwise walks do not.
func sortFamily(sets []Set) {
	slices.SortFunc(sets, func(a, b Set) int { return conflict.CompareCouples(a.Couples, b.Couples) })
}

// IsMaximal reports whether s is a maximal independent set over the
// given link universe: feasible, rate-maximal and link-maximal. It is
// the from-scratch reference predicate; the enumeration walks reach the
// same verdict from incremental state (see the equivalence property
// test).
func IsMaximal(m conflict.Model, s Set, universe []topology.LinkID) bool {
	if s.Len() == 0 || !conflict.Feasible(m, s.Couples) {
		return false
	}
	// Rate-maximality: raising any member's rate one step must break
	// feasibility.
	for i, c := range s.Couples {
		for _, r := range m.Rates(c.Link) { // descending
			if r <= c.Rate {
				break
			}
			cand := make([]conflict.Couple, len(s.Couples))
			copy(cand, s.Couples)
			cand[i] = conflict.Couple{Link: c.Link, Rate: r}
			if conflict.Feasible(m, cand) {
				return false
			}
		}
	}
	// Link-maximality: no outside link can join at any positive rate
	// with every member keeping its current rate.
	member := make(map[topology.LinkID]bool, s.Len())
	for _, c := range s.Couples {
		member[c.Link] = true
	}
	for _, l := range universe {
		if member[l] {
			continue
		}
		for _, r := range m.Rates(l) {
			cand := make([]conflict.Couple, 0, s.Len()+1)
			cand = append(cand, s.Couples...)
			cand = append(cand, conflict.Couple{Link: l, Rate: r})
			if conflict.Feasible(m, cand) {
				return false
			}
		}
	}
	return true
}

func dedupSorted(links []topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, len(links))
	copy(out, links)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, l := range out {
		if i == 0 || l != out[w-1] {
			out[w] = l
			w++
		}
	}
	return out[:w]
}
