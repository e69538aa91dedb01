// Parallel enumeration scaffolding: the subset/assignment lattices the
// walks explore split cleanly at their first branching levels into
// independent subtrees, so enumeration distributes those subtrees over
// workers that each own their full mutable DFS state (a
// conflict.SetTracker for the physical walk, bitmask state for the
// pairwise walk) while sharing the read-only
// per-universe precomputation. Three properties make the parallel walk
// indistinguishable from the sequential one:
//
//  1. Partitioning — tasks cover the lattice exactly once, so the union
//     of per-worker families equals the sequential family.
//  2. Budget accounting — Options.Limit is charged through one shared
//     budget; exactly Limit explorations succeed across all workers, so
//     Enumerate trips ErrLimit in precisely the instances the
//     sequential walk does, and a truncated EnumeratePartial returns at
//     most Limit sets.
//  3. Merge determinism — set keys are unique within a family and the
//     merged family is sorted by key, so the output is byte-identical
//     to the sequential walk no matter how the scheduler interleaves
//     workers.
package indepset

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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
// delta walk
// (delta.go) inherits the base universe's exploration count this way,
// so the combined count — and therefore the ErrLimit verdict — is
// identical to a full walk over the grown universe.
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

// subtreeTask is one unit of the physical walk's two-level split: push
// the member prefix, then either visit just that set (leafOnly — the
// interior nodes of the split levels) or run the full DFS over
// positions >= start.
type subtreeTask struct {
	prefix   [2]int
	plen     int
	start    int
	leafOnly bool
}

// subtreeTasks partitions the subset lattice over n universe positions
// at its first two branching levels, in the sequential walk's
// pre-order: visit {i}, then one task per subtree rooted at {i, j}.
func subtreeTasks(n int) []subtreeTask {
	tasks := make([]subtreeTask, 0, n+n*(n-1)/2)
	for i := 0; i < n; i++ {
		tasks = append(tasks, subtreeTask{prefix: [2]int{i}, plen: 1, leafOnly: true})
		for j := i + 1; j < n; j++ {
			tasks = append(tasks, subtreeTask{prefix: [2]int{i, j}, plen: 2, start: j + 1})
		}
	}
	return tasks
}

// choiceTask fixes the first levels of the pairwise walk's couple
// assignments: choices[i] is -1 to exclude universe[i] or
// an index into its declared rates to include it. Tasks whose prefix is
// infeasible enumerate nothing, exactly like the sequential walk never
// descending past an infeasible branch.
type choiceTask struct {
	choices []int
}

// choiceTasks partitions a couple-assignment walk at its first levels.
// The split deepens (up to four levels) until the task count reaches
// about four per worker, so uneven subtree sizes still balance; order
// is the sequential branch order (exclude first, then declared rates).
func choiceTasks(n, workers int, numRates func(int) int) []choiceTask {
	depth, count := 0, 1
	for depth < n && depth < 4 && count < 4*workers {
		count *= 1 + numRates(depth)
		depth++
	}
	tasks := []choiceTask{{}}
	for lvl := 0; lvl < depth; lvl++ {
		next := make([]choiceTask, 0, len(tasks)*(1+numRates(lvl)))
		for _, t := range tasks {
			for c := -1; c < numRates(lvl); c++ {
				nc := make([]int, lvl+1)
				copy(nc, t.choices)
				nc[lvl] = c
				next = append(next, choiceTask{choices: nc})
			}
		}
		tasks = next
	}
	return tasks
}

// parallelRun drives an enumeration: workers pull task indices from a
// shared counter, each building its own DFS state via newWorker and
// collecting its partial family. collect runs even after an ErrLimit
// stop (truncated walks still hand back the maximal sets found). The
// merged family is unsorted; the dispatcher sorts by key.
func parallelRun(workers, numTasks int, newWorker func() (run func(task int) error, collect func() []Set)) ([]Set, error) {
	var next int64
	outs := make([][]Set, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run, collect := newWorker()
			defer func() { outs[w] = collect() }()
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= numTasks {
					return
				}
				if err := run(t); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
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
