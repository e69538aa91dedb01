// Delta enumeration: compute the maximal-set family of a universe grown
// by a set of links L from the complete family of the base universe U,
// without re-walking the base lattice. The grown family decomposes
// exactly:
//
//	family(U ∪ L) = survivors(family(U)) ∪ {maximal sets containing some l ∈ L}
//
// A set without any link of L is maximal over U ∪ L iff it was maximal
// over U and no link of L can join it with every member keeping its
// rate: rate-maximality involves only the members (universe-independent),
// and link-maximality over the old links is untouched by growth — only
// the L-clauses are new.
//
// The new part runs first, partitioned by each set's first added link:
// with L = l_1 < … < l_k in ascending position, the walk for l_i pushes
// l_i from the root and branches over the remaining links except
// l_1 … l_{i-1}, so every new set is walked exactly once. The skipped
// earlier links stay in the universe, so the maximality checks still
// test them. With an empty base these are the full walk's walks (see
// parallel.go), except that each delta walk branches in
// descending-conflict order so l_i's interference prunes subtrees at
// their shallowest node (feasibility, the budget and maximality are
// all branch-order independent; see the threatOrder methods). The
// survivors then need no model replay at all — a base set is displaced
// exactly when some walked set minus its L couples equals it, bytes for
// bytes (the rule proved at stripSurvivors) — so survival is one
// couple-hash lookup per base set against the freshly walked family.
//
// Exploration accounting carries over too: both walk families charge
// their budget once per feasible leaf, and a leaf over U ∪ L either
// contains some link of L (charged by exactly one of the walks, the one
// for its first added link) or is a leaf over U (charged by the base
// enumeration). Seeding the budget with the base count therefore
// reproduces the full walk's ErrLimit verdict exactly; see
// EnumeratePartialCountedContext for where the seed comes from.
//
// Workers: a one-link delta always walks sequentially; a delta adding
// several links follows the full walk's rule (Options.workerCount over
// the grown universe) and the full walk's task partition. The split
// follows the input, not a knob: one-link steps are the memo cache's
// per-link chain, where a parallel walk measured about 20% fewer
// admit-churn operations per second and 10% more allocation per
// operation (the sequential walk is at parity with the full walk's
// cost there), while multi-link deltas are the cold path's whole
// new-path growth, where a sequential walk lost to the 2-worker full
// walk on 116 of 870 Fig. 2 query pairs (all long paths adding 7-9
// links) and the parallel one on 1 of 870.
package indepset

import (
	"context"
	"math"
	"sort"

	"abw/internal/conflict"
	"abw/internal/topology"
)

// DeltaBase is a complete enumeration result to warm-start from: the
// canonical (sorted, deduplicated) universe it was enumerated over, its
// full maximal-set family in family order, and the exact exploration
// count the walk charged (EnumeratePartialCountedContext). Truncated
// families must never be used as bases — their set list and count are
// both partial.
type DeltaBase struct {
	Universe []topology.LinkID
	Sets     []Set
	Explored int64
}

// EnumerateDelta returns the maximal-set family over base.Universe plus
// links, byte-identical to EnumerateContext over the grown universe
// under the same Options, along with the grown universe's exploration
// count (a valid DeltaBase.Explored for chaining). Links already in the
// base universe and repeated links are ignored. The model must be the
// one the base was enumerated under. Errors: ErrUnsupportedModel (a
// model no walk serves, exactly when EnumerateContext refuses it too),
// ErrLimit (the grown universe would trip Options.Limit — a full walk
// would too), or ErrCanceled.
func EnumerateDelta(ctx context.Context, m conflict.Model, base DeltaBase, links []topology.LinkID, opts Options) ([]Set, int64, error) {
	universe := dedupSorted(append(append([]topology.LinkID(nil), base.Universe...), links...))
	if len(universe) == len(base.Universe) {
		// Every link already present: the family is unchanged.
		return append([]Set(nil), base.Sets...), base.Explored, nil
	}
	// added lists the new links and apos their universe positions, both
	// ascending.
	added := make([]topology.LinkID, 0, len(universe)-len(base.Universe))
	apos := make([]int, 0, cap(added))
	for p, j := 0, 0; p < len(universe); p++ {
		if j < len(base.Universe) && base.Universe[j] == universe[p] {
			j++
			continue
		}
		added = append(added, universe[p])
		apos = append(apos, p)
	}
	workers := 1
	if len(added) > 1 {
		workers = opts.workerCount(len(universe))
	}
	b := newBudget(opts.limit(), workers, base.Explored)
	grown, err := walkFamily(ctx, m, universe, apos, b, workers)
	if err != nil {
		return nil, 0, err
	}
	sortFamily(grown)
	return mergeFamilies(stripSurvivors(base.Sets, grown, added), grown), b.count(), nil
}

// threatOrder returns the branch order of the delta walk for the link
// at lpos: every position except lpos and the skipped ones,
// strongest conflictors of the grown link first (node sharers above all
// — they block it outright — then by mutual interference power, ties by
// position). Branch order is free to choose: feasibility is monotone
// and member-order-independent, so the walk visits the same feasible
// subsets in any order, and the final sort restores canonical emission.
// Fronting l's conflictors makes the subtrees that would die of l's
// interference die at the root instead of one level above the leaves.
func (e *physicalEnum) threatOrder(lpos int, skip []bool) []int {
	m, universe := e.m, e.universe
	net := m.Network()
	l := universe[lpos]
	ll, lerr := net.Link(l)
	threat := make([]float64, len(universe))
	order := make([]int, 0, len(universe)-1)
	for p, id := range universe {
		if p == lpos || skip[p] {
			continue
		}
		threat[p] = m.InterferencePower(id, l) + m.InterferencePower(l, id)
		if lerr == nil {
			if pl, err := net.Link(id); err == nil && conflict.SharesNode(ll, pl) {
				threat[p] = math.Inf(1)
			}
		}
		order = append(order, p)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if threat[a] > threat[b] {
			return true
		}
		if threat[a] < threat[b] {
			return false
		}
		return a < b
	})
	return order
}

// stripSurvivors returns the base sets that stay maximal once the added
// links (ascending) join the universe: a base set S is displaced
// exactly when some walked set, minus its couples on added links,
// equals S bytes for bytes — rates included.
//
// If some walked set G strips to S, then S plus one of G's added
// couples is a subset of G, hence feasible, and S's members keep their
// rates (they cannot drop below their rates in G, which are S's, nor
// rise above their maximum in S alone): that link joins S, so S is no
// longer maximal. Conversely, if some added link joins S with every
// member keeping its rate, grow S greedily — join added links at their
// best rate and raise added members while every current member keeps
// its rate — until nothing changes. The result T is maximal over the
// grown universe and strips to S: no added link can join or be raised
// (the growth stopped), no S member can be raised (that raise would
// hold in S too, under fewer constraints), and no old link can join
// (that join would hold in S too). T contains an added link, so the
// walks emitted it. A join that lowers any member's rate yields a
// different byte pattern and coexists with S.
//
// One couple-hash lookup per base set decides survival (hash hits are
// verified structurally, so a collision can never mislabel a set); no
// model replay, no key-string materialization.
func stripSurvivors(base, grown []Set, added []topology.LinkID) []Set {
	// head/next chain grown-set indices per stripped-couples hash.
	head := make(map[uint64]int32, len(grown))
	next := make([]int32, len(grown))
	for gi, g := range grown {
		h := fnvOffset
		j := 0
		for _, c := range g.Couples {
			if isAdded(added, &j, c.Link) {
				continue
			}
			h = hashCouple(h, c)
		}
		if prev, ok := head[h]; ok {
			next[gi] = prev
		} else {
			next[gi] = -1
		}
		head[h] = int32(gi)
	}
	out := make([]Set, 0, len(base))
	for _, s := range base {
		h := fnvOffset
		for _, c := range s.Couples {
			h = hashCouple(h, c)
		}
		displaced := false
		if gi, ok := head[h]; ok {
			for ; gi >= 0; gi = next[gi] {
				if strippedEqual(grown[gi].Couples, s.Couples, added) {
					displaced = true
					break
				}
			}
		}
		if !displaced {
			out = append(out, s)
		}
	}
	return out
}

// isAdded reports whether link is one of the ascending added links,
// advancing *j past the added links below it: called with ascending
// links (a set's couples), the scan over added is linear per set.
func isAdded(added []topology.LinkID, j *int, link topology.LinkID) bool {
	for *j < len(added) && added[*j] < link {
		*j++
	}
	return *j < len(added) && added[*j] == link
}

// FNV-1a constants for hashing couple sequences.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashCouple folds one couple into an FNV-1a state: the link and the
// rate's exact bit pattern, so two couple lists hash equal only when
// links and rates match bit for bit (modulo 64-bit collisions, which
// strippedEqual screens out).
func hashCouple(h uint64, c conflict.Couple) uint64 {
	h ^= uint64(c.Link)
	h *= fnvPrime
	h ^= math.Float64bits(float64(c.Rate))
	h *= fnvPrime
	return h
}

// strippedEqual reports whether the grown set's couples minus those on
// added links equal the base set's couples exactly — same links, same
// rates, in the same canonical ascending-link order both sides store —
// with at least one added couple stripped.
func strippedEqual(g, s []conflict.Couple, added []topology.LinkID) bool {
	return len(g) > len(s) && restrictedEqual(g, s, added)
}

// MatchRestricted locates sets of a smaller universe U in a family of
// U ∪ added (added ascending): for each target's couples (ascending by
// link, as a Set stores them) it returns the index of the first family
// set whose couples on links outside added equal the target's exactly,
// rates included, or -1 when none does. For a target from a complete
// family of U and a complete family of U ∪ added, that is the target
// itself when it survives the growth, and otherwise a grown set that
// strips to it (stripSurvivors' rule guarantees one). Like
// stripSurvivors it compares couple hashes and verifies each hit
// structurally; the targets are few (a basis' worth), so each family
// set's hash is checked against theirs in a scan, in one pass over the
// family that stops once every target is found.
func MatchRestricted(family []Set, added []topology.LinkID, targets [][]conflict.Couple) []int {
	out := make([]int, len(targets))
	hashes := make([]uint64, len(targets))
	for k, t := range targets {
		out[k] = -1
		hashes[k] = fnvOffset
		for _, c := range t {
			hashes[k] = hashCouple(hashes[k], c)
		}
	}
	left := len(targets)
	for i := 0; i < len(family) && left > 0; i++ {
		g := family[i].Couples
		h := fnvOffset
		j := 0
		for _, c := range g {
			if !isAdded(added, &j, c.Link) {
				h = hashCouple(h, c)
			}
		}
		for k, th := range hashes {
			if th == h && out[k] < 0 && restrictedEqual(g, targets[k], added) {
				out[k] = i
				left--
			}
		}
	}
	return out
}

// restrictedEqual reports whether g's couples minus those on added
// links equal s's couples exactly.
func restrictedEqual(g, s []conflict.Couple, added []topology.LinkID) bool {
	i, j := 0, 0
	for _, c := range g {
		if isAdded(added, &j, c.Link) {
			continue
		}
		if i == len(s) || c != s[i] {
			return false
		}
		i++
	}
	return i == len(s)
}

// threatOrder returns the branch order of the pairwise delta walk for
// the link at lpos: every position except lpos and the skipped ones,
// strongest conflictors of the grown link first, measured from the
// clear table — the number of couple rates the grown link cannot clear
// plus the number of its own rates the position denies it — with ties
// by position. See (*physicalEnum).threatOrder for why branch order is
// free to choose.
func (e *pairwiseEnum) threatOrder(lpos int, skip []bool) []int {
	threat := make([]int, e.n)
	order := make([]int, 0, e.n-1)
	for p := 0; p < e.n; p++ {
		if p == lpos || skip[p] {
			continue
		}
		for rp := range e.rates[p] {
			if e.rowEmpty(e.column(p, rp), lpos) {
				threat[p]++
			}
		}
		for rl := range e.rates[lpos] {
			if e.rowEmpty(e.column(lpos, rl), p) {
				threat[p]++
			}
		}
		order = append(order, p)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if threat[a] != threat[b] {
			return threat[a] > threat[b]
		}
		return a < b
	})
	return order
}

// rowEmpty reports whether no rate of link i clears the couple whose
// clear-table column starts at col.
func (e *pairwiseEnum) rowEmpty(col, i int) bool {
	for _, mask := range e.clear[col+i*e.w : col+(i+1)*e.w] {
		if mask != 0 {
			return false
		}
	}
	return true
}

// mergeFamilies merges two families sorted in family order
// (conflict.CompareCouples) into one. The survivors inherit the base
// family's order (a subsequence of a sorted list), so the delta result
// needs one linear merge instead of re-sorting the whole family. No set
// occurs in both inputs: every new set contains an added link, no
// survivor does.
func mergeFamilies(survivors, grown []Set) []Set {
	if len(grown) == 0 {
		return survivors
	}
	if len(survivors) == 0 {
		return grown
	}
	out := make([]Set, 0, len(survivors)+len(grown))
	i, j := 0, 0
	for i < len(survivors) && j < len(grown) {
		if conflict.CompareCouples(survivors[i].Couples, grown[j].Couples) < 0 {
			out = append(out, survivors[i])
			i++
		} else {
			out = append(out, grown[j])
			j++
		}
	}
	out = append(out, survivors[i:]...)
	return append(out, grown[j:]...)
}
