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
// test them. Each walk branches in descending-conflict order so l_i's
// interference prunes subtrees at their shallowest node (feasibility,
// the budget and maximality are all branch-order independent; see the
// order helpers). The survivors then need no model replay at all — a
// base set is displaced exactly when some walked set minus its L
// couples equals it, bytes for bytes (the rule proved at
// stripSurvivors) — so survival is one couple-hash lookup per base set
// against the freshly walked family.
//
// Exploration accounting carries over too: both walk families charge
// their budget once per feasible leaf, and a leaf over U ∪ L either
// contains some link of L (charged by exactly one of the walks, the one
// for its first added link) or is a leaf over U (charged by the base
// enumeration). Seeding the budget with the base count therefore
// reproduces the full walk's ErrLimit verdict exactly; see
// EnumeratePartialCounted for where the seed comes from.
//
// Workers: a one-link delta always walks sequentially; a delta adding
// several links follows the full walk's rule (Options.workerCount over
// the grown universe). The split follows the input, not a knob: one-link
// steps are the memo cache's per-link chain, where a parallel walk
// measured about 20% fewer admit-churn operations per second and 10%
// more allocation per operation (the sequential walk is at parity with
// the full walk's cost there), while multi-link deltas are the cold
// path's whole new-path growth, where a sequential walk lost to the
// 2-worker full walk on 116 of 870 Fig. 2 query pairs (all long paths
// adding 7-9 links) and the parallel one on 1 of 870.
package indepset

import (
	"context"
	"math"
	"sort"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// DeltaBase is a complete enumeration result to warm-start from: the
// canonical (sorted, deduplicated) universe it was enumerated over, its
// full maximal-set family in key order, and the exact exploration count
// the walk charged (EnumeratePartialCounted). Truncated families must
// never be used as bases — their set list and count are both partial.
type DeltaBase struct {
	Universe []topology.LinkID
	Sets     []Set
	Explored int64
}

// EnumerateDelta returns the maximal-set family over base.Universe plus
// links, byte-identical to Enumerate over the grown universe under the
// same Options, along with the grown universe's exploration count (a
// valid DeltaBase.Explored for chaining). Links already in the base
// universe and repeated links are ignored. The model must be the one
// the base was enumerated under. Errors: ErrUnsupportedModel (a model
// no walk serves, exactly when Enumerate refuses it too), ErrLimit (the
// grown universe would trip Options.Limit — a full walk would too), or
// ErrCanceled.
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
	var grown []Set
	var err error
	switch mm := m.(type) {
	case *conflict.Physical:
		grown, err = deltaPhysical(ctx, mm, universe, apos, b, workers)
	case conflict.PairwiseModel:
		grown, err = deltaPairwise(ctx, mm, universe, apos, b, workers)
	default:
		return nil, 0, ErrUnsupportedModel
	}
	if err != nil {
		return nil, 0, err
	}
	sortByKey(grown)
	return mergeByKey(stripSurvivors(base.Sets, grown, added), grown), b.count(), nil
}

// deltaWalk is the walk for one added link: the link's universe
// position and the positions it branches over (every position except
// itself and the added links before it).
type deltaWalk struct {
	lpos  int
	order []int
}

// deltaTask is one unit of a parallel delta walk: the leaf holding
// only walks[walk]'s link (branch < 0), or the subtree whose first
// branch under that link is order[branch].
type deltaTask struct {
	walk, branch int
}

// deltaTasks partitions the delta walks for parallel runs: per walk,
// its leaf plus one subtree per first branch.
func deltaTasks(walks []deltaWalk) []deltaTask {
	var tasks []deltaTask
	for wi, wk := range walks {
		tasks = append(tasks, deltaTask{walk: wi, branch: -1})
		for b := range wk.order {
			tasks = append(tasks, deltaTask{walk: wi, branch: b})
		}
	}
	return tasks
}

func deltaPhysical(ctx context.Context, m *conflict.Physical, universe []topology.LinkID, apos []int, b *budget, workers int) ([]Set, error) {
	n := len(universe)
	e := &physicalEnum{
		m:        m,
		ctx:      ctx,
		universe: universe,
		minRate:  make([]radio.Rate, n),
		n:        n,
		budget:   b,
	}
	for i, l := range universe {
		e.minRate[i] = m.MinPositiveRate(l)
	}
	skip := make([]bool, n)
	var walks []deltaWalk
	for _, p := range apos {
		// A link with no positive declared rate can neither join an old
		// set nor appear in a new one: it adds nothing to walk.
		//lint:ignore abw/floateq Rate 0 is the exact no-declared-rate sentinel, never a computed float
		if e.minRate[p] != 0 {
			walks = append(walks, deltaWalk{lpos: p, order: physicalDeltaOrder(m, universe, p, skip)})
		}
		skip[p] = true
	}
	if workers <= 1 {
		w := newPhysicalWorker(e)
		for _, wk := range walks {
			w.push(wk.lpos)
			err := w.recDelta(0, wk.order)
			w.pop()
			if err != nil {
				return nil, err
			}
		}
		return w.out, nil
	}
	tasks := deltaTasks(walks)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return parallelRun(workers, len(tasks), func() (func(int) error, func() []Set) {
		w := newPhysicalWorker(e)
		return func(t int) error { return w.runDeltaTask(walks[tasks[t].walk], tasks[t].branch) },
			func() []Set { return w.out }
	})
}

// physicalDeltaOrder returns the branch order of the delta walk for the
// link at lpos: every position except lpos and the skipped ones,
// strongest conflictors of the grown link first (node sharers above all
// — they block it outright — then by mutual interference power, ties by
// position). Branch order is free to choose: feasibility is monotone
// and member-order-independent, so the walk visits the same feasible
// subsets in any order, and the final sort restores canonical emission.
// Fronting l's conflictors makes the subtrees that would die of l's
// interference die at the root instead of one level above the leaves.
func physicalDeltaOrder(m *conflict.Physical, universe []topology.LinkID, lpos int, skip []bool) []int {
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

// recDelta walks every subset containing the grown link, which the
// caller has already pushed: it is the plain walk over the remaining
// positions in the given branch order. Visiting each node through
// visitDelta makes the grown link's interference prune natively — a
// branch dies the moment any member is silenced, exactly the plain
// walk's prune but conditioned on the grown link from the root — so
// the walk touches only that link's slice of the lattice, with no
// per-node join checks beyond what a fresh walk would pay.
func (w *physicalWorker) recDelta(start int, order []int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	ok, err := w.visitDelta()
	if !ok || err != nil {
		return err
	}
	for oi := start; oi < len(order); oi++ {
		w.push(order[oi])
		err := w.recDelta(oi+1, order)
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}

// runDeltaTask runs one deltaTask of wk: its leaf (branch < 0) or the
// subtree under wk's link whose first branch is wk.order[branch]. A
// subtree under an infeasible leaf prunes at its first visit, exactly
// like the sequential walk never descending past it.
func (w *physicalWorker) runDeltaTask(wk deltaWalk, branch int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	w.push(wk.lpos)
	var err error
	if branch < 0 {
		_, err = w.visitDelta()
	} else {
		w.push(wk.order[branch])
		err = w.recDelta(branch+1, wk.order)
		w.pop()
	}
	w.pop()
	return err
}

// visitDelta is visit for the delta walk, where members sit in branch
// order rather than ascending position: feasibility, budget and
// maximality are member-order-independent (tracker sums and the
// isMember table), only materialization must re-establish the
// canonical ascending-position couple order, by insertion-sorting the
// freshly appended couples (member counts are small; the sort is a
// handful of swaps).
func (w *physicalWorker) visitDelta() (ok bool, err error) {
	e := w.e
	for d, mi := range w.members {
		r := w.tr.MaxRate(mi)
		//lint:ignore abw/floateq Rate 0 is the exact silenced-link sentinel MaxRate returns, never a computed float
		if r == 0 {
			return false, nil
		}
		w.rateBuf[d] = r
	}
	if !e.budget.take() {
		return false, ErrLimit
	}
	if physicalMaximal(w.tr, w.members, w.isMember, w.rateBuf, e.minRate, e.n) {
		if cap(w.arena)-len(w.arena) < len(w.members) {
			w.arena = make([]conflict.Couple, 0, 16*e.n)
		}
		base := len(w.arena)
		for d, mi := range w.members {
			w.arena = append(w.arena, conflict.Couple{Link: e.universe[mi], Rate: w.rateBuf[d]})
			for k := len(w.arena) - 1; k > base && w.arena[k-1].Link > w.arena[k].Link; k-- {
				w.arena[k-1], w.arena[k] = w.arena[k], w.arena[k-1]
			}
		}
		couples := w.arena[base:len(w.arena):len(w.arena)]
		w.out = append(w.out, Set{Couples: couples})
	}
	return true, nil
}

func deltaPairwise(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, apos []int, b *budget, workers int) ([]Set, error) {
	e := newPairwiseEnum(ctx, m, universe, b)
	skip := make([]bool, e.n)
	var walks []deltaWalk
	for _, p := range apos {
		// No positive declared rate: the link can neither join an old
		// set nor appear in a new one.
		if len(e.rates[p]) > 0 {
			walks = append(walks, deltaWalk{lpos: p, order: pairwiseDeltaOrder(e, p, skip)})
		}
		skip[p] = true
	}
	if workers <= 1 {
		w := newPairwiseWorker(e)
		defer w.release()
		for _, wk := range walks {
			for ri := range e.rates[wk.lpos] {
				if !w.push(wk.lpos, ri) {
					continue
				}
				err := w.rec(0, wk.order)
				w.pop()
				if err != nil {
					return nil, err
				}
			}
		}
		return w.out, nil
	}
	tasks := deltaTasks(walks)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return parallelRun(workers, len(tasks), func() (func(int) error, func() []Set) {
		w := newPairwiseWorker(e)
		return func(t int) error { return w.runDeltaTask(walks[tasks[t].walk], tasks[t].branch) },
			func() []Set { w.release(); return w.out }
	})
}

// pairwiseDeltaOrder returns the branch order of the pairwise delta
// walk for the link at lpos: every position except lpos and the
// skipped ones, strongest conflictors of the grown link first, measured
// from the clear table — the number of couple rates the grown link
// cannot clear plus the number of its own rates the position denies it
// — with ties by position. See physicalDeltaOrder for why branch order
// is free to choose.
func pairwiseDeltaOrder(e *pairwiseEnum, lpos int, skip []bool) []int {
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

// mergeByKey merges two key-sorted families into canonical key order.
// The survivors inherit the base family's order (a subsequence of a
// sorted list), so the delta result needs one linear merge instead of
// re-sorting the whole family. Keys never collide across the two
// inputs: every new set contains an added link, no survivor does.
func mergeByKey(survivors, grown []Set) []Set {
	if len(grown) == 0 {
		return survivors
	}
	if len(survivors) == 0 {
		return grown
	}
	out := make([]Set, 0, len(survivors)+len(grown))
	i, j := 0, 0
	for i < len(survivors) && j < len(grown) {
		if Compare(survivors[i], grown[j]) < 0 {
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

// runDeltaTask runs one deltaTask of wk at every rate of wk's link: the
// leaf that excludes every branch position (branch < 0), or the
// assignments whose first included branch position is wk.order[branch],
// at each of its rates. Together the tasks cover rec(0, wk.order)'s
// leaves exactly once.
func (w *pairwiseWorker) runDeltaTask(wk deltaWalk, branch int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	for ri := range w.e.rates[wk.lpos] {
		if !w.push(wk.lpos, ri) {
			continue
		}
		var err error
		if branch < 0 {
			err = w.visitLeaf()
		} else {
			idx := wk.order[branch]
			for rj := range w.e.rates[idx] {
				if !w.push(idx, rj) {
					continue
				}
				err = w.rec(branch+1, wk.order)
				w.pop()
				if err != nil {
					break
				}
			}
		}
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}
