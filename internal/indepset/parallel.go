// Walk plan and worker scaffolding, shared by both models. Every
// enumeration, full or delta, is a list of walks: the walk for link l
// pushes l from the root and branches over its order, so it visits
// exactly the sets made of l and positions of that order. The full
// walk is the delta walk grown from the empty universe: one walk per
// link with a positive declared rate, each branching over the
// positions after it in ascending order. Sequentially one worker runs the walks whole, in
// order. In parallel the walks split into tasks — per walk its leaf
// {l} plus one subtree per first branch — and workers that each own
// their full mutable DFS state (a conflict.SetTracker for the physical
// walk, bitmask state for the pairwise walk) pull them from a shared
// counter, sharing the read-only per-universe precomputation. Three
// properties make the parallel walk indistinguishable from the
// sequential one:
//
//  1. Partitioning — tasks cover the walks exactly once, so the union
//     of per-worker families equals the sequential family.
//  2. Budget accounting — Options.Limit is charged through one shared
//     budget; exactly Limit explorations succeed across all workers, so
//     EnumerateContext trips ErrLimit in precisely the instances the
//     sequential walk does, and a truncated EnumeratePartialContext
//     returns at most Limit sets.
//  3. Merge determinism — no two sets of a family have the same
//     couples, and the merged family is sorted by
//     conflict.CompareCouples, a total order on distinct couple lists,
//     so the output is byte-identical to the sequential walk no matter
//     how the scheduler interleaves workers.
package indepset

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"abw/internal/conflict"
	"abw/internal/topology"
)

// minParallelLinks is the smallest universe the automatic mode
// (Options.Workers == 0) parallelizes. Below it the whole walk finishes
// in the time it takes to start workers; an explicit Workers > 1 still
// forces parallelism (property tests rely on that).
const minParallelLinks = 10

// workerCount resolves Options.Workers against the universe size.
func (o Options) workerCount(universeLinks int) int {
	switch {
	case o.Workers == 0:
		if universeLinks < minParallelLinks {
			return 1
		}
		return runtime.GOMAXPROCS(0)
	case o.Workers < 1:
		return 1
	default:
		return o.Workers
	}
}

// budget is the exploration budget shared by every worker of one
// enumeration. take charges one explored feasible set and reports
// whether it was within the limit; exactly `limit` takes succeed, so
// the explored-set count at truncation is deterministic even under
// parallelism. Sequential walks skip the atomic.
type budget struct {
	n     int64
	limit int64
	seq   bool
}

// newBudget returns the budget of one enumeration under the given
// worker count. spent seeds the counter with charges already made: the
// delta walk (delta.go) inherits the base universe's exploration count
// this way, so the combined count — and therefore the ErrLimit verdict
// — is identical to a full walk over the grown universe.
func newBudget(limit, workers int, spent int64) *budget {
	//lint:ignore abw/atomicfield the budget is not yet shared — no worker has started when it is built
	return &budget{n: spent, limit: int64(limit), seq: workers <= 1}
}

// count returns the number of successful charges so far. Exact for a
// complete walk (every take succeeded); after a tripped limit it may
// overshoot and must not be trusted — truncated walks never report
// their count anywhere.
func (b *budget) count() int64 {
	if b.seq {
		//lint:ignore abw/atomicfield seq means one worker owns the budget exclusively; no concurrent access exists
		return b.n
	}
	return atomic.LoadInt64(&b.n)
}

func (b *budget) take() bool {
	if b.seq {
		//lint:ignore abw/atomicfield seq means one worker owns the budget exclusively; no concurrent access exists
		b.n++
		//lint:ignore abw/atomicfield same single-owner sequential path as the increment above
		return b.n <= b.limit
	}
	return atomic.AddInt64(&b.n, 1) <= b.limit
}

// walk is the walk for one link: its universe position and the
// positions it branches over.
type walk struct {
	lpos  int
	order []int
}

// task is one unit of a parallel run: the leaf holding only
// walks[walk]'s link (branch < 0), or the subtree whose first branch
// under that link is order[branch].
type task struct {
	walk, branch int
}

// walkTasks partitions the walks for parallel runs: per walk, its leaf
// plus one subtree per first branch, in the sequential walk's order.
func walkTasks(walks []walk) []task {
	n := 0
	for _, wk := range walks {
		n += 1 + len(wk.order)
	}
	tasks := make([]task, 0, n)
	for wi, wk := range walks {
		tasks = append(tasks, task{walk: wi, branch: -1})
		for b := range wk.order {
			tasks = append(tasks, task{walk: wi, branch: b})
		}
	}
	return tasks
}

// walkSpace is one model's read-only per-enumeration state.
type walkSpace interface {
	// hasRate reports whether the link at position p has a positive
	// declared rate; a link without one never appears in a set and
	// has nothing to walk.
	hasRate(p int) bool
	// threatOrder is the delta walk's branch order for the link at p:
	// every position except p and the skipped ones, strongest
	// conflictors of p first.
	threatOrder(p int, skip []bool) []int
	newWalker() walker
}

// walker is one worker's mutable DFS state.
type walker interface {
	// runWalk runs wk whole: every set made of wk's link and positions
	// of its order.
	runWalk(wk walk) error
	// runTask runs one task of wk (see task).
	runTask(wk walk, branch int) error
	// family releases the worker's scratch and returns its sets.
	family() []Set
}

// walkFamily runs the model's walks over universe, unsorted. apos lists
// the added positions (ascending) of a delta walk, each walked in
// threat order with the earlier ones skipped; nil walks the full
// universe, every position branching in ascending order over the ones
// after it — the same walks from an empty base, whose sequential
// pre-order is the plain subset (or assignment) walk's.
func walkFamily(ctx context.Context, m conflict.Model, universe []topology.LinkID, apos []int, b *budget, workers int) ([]Set, error) {
	var s walkSpace
	switch mm := m.(type) {
	case *conflict.Physical:
		s = newPhysicalEnum(ctx, mm, universe, b)
	case conflict.PairwiseModel:
		s = newPairwiseEnum(ctx, mm, universe, b)
	default:
		return nil, ErrUnsupportedModel
	}
	var walks []walk
	if apos == nil {
		asc := make([]int, len(universe))
		walks = make([]walk, 0, len(asc))
		for p := range asc {
			asc[p] = p
		}
		for p := range asc {
			if s.hasRate(p) {
				walks = append(walks, walk{lpos: p, order: asc[p+1:]})
			}
		}
	} else {
		skip := make([]bool, len(universe))
		walks = make([]walk, 0, len(apos))
		for _, p := range apos {
			if s.hasRate(p) {
				walks = append(walks, walk{lpos: p, order: s.threatOrder(p, skip)})
			}
			skip[p] = true
		}
	}
	return runWalks(s, walks, workers)
}

// runWalks runs the walks: sequentially on one walker, each walk whole
// and in order, or as walkTasks pulled from a shared counter by
// workers that each build their own walker from s. A worker's family is
// collected even after an ErrLimit stop (truncated walks still hand
// back the maximal sets found). The merged family is unsorted; the
// dispatcher sorts it into family order.
func runWalks(s walkSpace, walks []walk, workers int) ([]Set, error) {
	if len(walks) == 0 {
		return nil, nil
	}
	if workers <= 1 {
		w := s.newWalker()
		for _, wk := range walks {
			if err := w.runWalk(wk); err != nil {
				return w.family(), err
			}
		}
		return w.family(), nil
	}
	tasks := walkTasks(walks)
	workers = min(workers, len(tasks))
	var next atomic.Int64
	outs := make([][]Set, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := s.newWalker()
			defer func() { outs[k] = w.family() }()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(tasks) {
					return
				}
				if err := w.runTask(walks[tasks[t].walk], tasks[t].branch); err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]Set, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrLimit) {
			return out, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}
