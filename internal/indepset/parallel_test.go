package indepset

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// assertParallelMatchesSequential pins the parallel walk's headline
// guarantee: for every worker count the enumerated family is
// byte-identical (same Set.Key sequence) to the sequential walk's.
// Run under -race this also exercises the shared-state partitioning at
// >= 4 workers across every model kind.
func assertParallelMatchesSequential(t *testing.T, m conflict.Model, links []topology.LinkID, label string) {
	t.Helper()
	seq, err := EnumerateContext(context.Background(), m, links, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := EnumerateContext(context.Background(), m, links, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %d workers: %v", label, workers, err)
		}
		if !reflect.DeepEqual(keys(par), keys(seq)) {
			t.Fatalf("%s: %d workers diverge:\n par %v\n seq %v",
				label, workers, keys(par), keys(seq))
		}
		// Keys pin membership and rates; double-check the couples too.
		for i := range par {
			if !reflect.DeepEqual(par[i].Couples, seq[i].Couples) {
				t.Fatalf("%s: %d workers: set %d couples %v != %v",
					label, workers, i, par[i].Couples, seq[i].Couples)
			}
		}
	}
}

func TestParallelMatchesSequentialPhysical(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 8; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 400, H: 400}, 8, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		links := cappedLinks(net, 14)
		if len(links) == 0 {
			continue
		}
		assertParallelMatchesSequential(t, conflict.NewPhysical(net), links, "physical random")
	}
	for _, hops := range []int{4, 8} {
		net, path, err := topology.Chain(prof, hops, 100)
		if err != nil {
			t.Fatal(err)
		}
		assertParallelMatchesSequential(t, conflict.NewPhysical(net), path, "physical chain")
	}
	// A mesh big enough that the automatic mode (Workers: 0) also takes
	// the parallel path on multi-core machines.
	net, err := topology.New(prof, geom.GridPoints(9, 3, 80))
	if err != nil {
		t.Fatal(err)
	}
	var links []topology.LinkID
	for _, l := range net.Links() {
		links = append(links, l.ID)
	}
	m := conflict.NewPhysical(net)
	assertParallelMatchesSequential(t, m, links, "physical mesh")
	auto, err := EnumerateContext(context.Background(), m, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EnumerateContext(context.Background(), m, links, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(auto), keys(seq)) {
		t.Fatalf("automatic worker count diverges from sequential on the mesh")
	}
}

func TestParallelMatchesSequentialProtocol(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 8; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 400, H: 400}, 8, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		links := cappedLinks(net, 12)
		if len(links) == 0 {
			continue
		}
		assertParallelMatchesSequential(t, conflict.NewProtocol(net), links, "protocol random")
	}
}

func TestParallelMatchesSequentialTable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(6)
		tb := conflict.NewTable()
		var links []topology.LinkID
		for i := topology.LinkID(0); int(i) < n; i++ {
			tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
			links = append(links, i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, ri := range tb.Rates(topology.LinkID(i)) {
					for _, rj := range tb.Rates(topology.LinkID(j)) {
						if rng.Float64() < 0.45 {
							if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		assertParallelMatchesSequential(t, tb, links, "random table")
	}
}

// TestParallelMatchesSequentialPinned covers a model with rate pins.
func TestParallelMatchesSequentialPinned(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 6, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	pins := []conflict.Couple{
		{Link: links[0], Rate: 18}, {Link: links[2], Rate: 6}, {Link: links[4], Rate: 18},
	}
	assertParallelMatchesSequential(t, conflict.FixRates(conflict.NewProtocol(net), pins), links, "pinned protocol")
}

// TestParallelLimitExact pins the shared-budget limit semantics under
// parallelism (regression guard for the PR 1 off-by-one class): on a
// family where every explored feasible set is maximal, a Limit-bounded
// run returns exactly the sequential walk's family size — min(Limit,
// family) — and never Limit+1, at every worker count, on a table and
// on the same table behind rate pins.
func TestParallelLimitExact(t *testing.T) {
	const n = 6
	tb, links := allConflictTable(t, n)
	models := []struct {
		name string
		m    conflict.Model
	}{
		{"pairwise", tb},
		{"pinned", pinAll(tb, links, 54)},
	}
	for _, mm := range models {
		for limit := 1; limit <= n+1; limit++ {
			seq, seqTrunc, err := EnumeratePartialContext(context.Background(), mm.m, links, Options{Limit: limit, Workers: 1})
			if err != nil {
				t.Fatalf("%s limit %d: sequential: %v", mm.name, limit, err)
			}
			want := limit
			if limit >= n {
				want = n
			}
			if len(seq) != want {
				t.Fatalf("%s limit %d: sequential family %d, want %d", mm.name, limit, len(seq), want)
			}
			for _, workers := range []int{2, 4, 8} {
				par, parTrunc, err := EnumeratePartialContext(context.Background(), mm.m, links, Options{Limit: limit, Workers: workers})
				if err != nil {
					t.Fatalf("%s limit %d workers %d: %v", mm.name, limit, workers, err)
				}
				if len(par) != len(seq) {
					t.Errorf("%s limit %d workers %d: family %d != sequential %d",
						mm.name, limit, workers, len(par), len(seq))
				}
				if len(par) > limit {
					t.Errorf("%s limit %d workers %d: %d sets exceed the limit",
						mm.name, limit, workers, len(par))
				}
				if parTrunc != seqTrunc {
					t.Errorf("%s limit %d workers %d: truncated=%v, sequential %v",
						mm.name, limit, workers, parTrunc, seqTrunc)
				}
				// Enumerate must agree with the truncation flag.
				if _, err := EnumerateContext(context.Background(), mm.m, links, Options{Limit: limit, Workers: workers}); (err != nil) != parTrunc || (parTrunc && !errors.Is(err, ErrLimit)) {
					t.Errorf("%s limit %d workers %d: Enumerate err %v, truncated %v",
						mm.name, limit, workers, err, parTrunc)
				}
			}
		}
	}
}

// TestParallelTruncationSound checks a truncated parallel physical walk:
// at most Limit sets come back, every one is feasible and maximal, and
// every one belongs to the complete family.
func TestParallelTruncationSound(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	full, err := EnumerateContext(context.Background(), m, path, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[string]bool, len(full))
	for _, s := range full {
		inFull[s.Key()] = true
	}
	for _, limit := range []int{3, 7, 19} {
		for _, workers := range []int{2, 4, 8} {
			sets, truncated, err := EnumeratePartialContext(context.Background(), m, path, Options{Limit: limit, Workers: workers})
			if err != nil {
				t.Fatalf("limit %d workers %d: %v", limit, workers, err)
			}
			if !truncated {
				t.Fatalf("limit %d workers %d: expected truncation", limit, workers)
			}
			if len(sets) > limit {
				t.Errorf("limit %d workers %d: %d sets exceed the limit", limit, workers, len(sets))
			}
			for _, s := range sets {
				if !inFull[s.Key()] {
					t.Errorf("limit %d workers %d: %v not in the complete family", limit, workers, s)
				}
				if !IsMaximal(m, s, path) {
					t.Errorf("limit %d workers %d: %v not maximal", limit, workers, s)
				}
			}
		}
	}
}

func TestWorkerCount(t *testing.T) {
	small := make([]topology.LinkID, minParallelLinks-1)
	big := make([]topology.LinkID, minParallelLinks)
	cases := []struct {
		opts Options
		n    int
		want int
	}{
		{Options{}, len(small), 1},
		{Options{}, len(big), runtime.GOMAXPROCS(0)},
		// The largest full walk a cold Fig. 2 query serves.
		{Options{}, 28, 1},
		{Options{Workers: 1}, len(big), 1},
		{Options{Workers: -3}, len(big), 1},
		{Options{Workers: 5}, 2, 5},
	}
	for _, c := range cases {
		if got := c.opts.workerCount(c.n); got != c.want {
			t.Errorf("workerCount(Workers=%d, n=%d) = %d, want %d", c.opts.Workers, c.n, got, c.want)
		}
	}
}

// TestWalkTasksPartition checks the task generator: per walk, in walk
// order, one leaf task and one task per first branch, each exactly
// once, in a slice allocated at its final length.
func TestWalkTasksPartition(t *testing.T) {
	asc := []int{0, 1, 2, 3, 4}
	walks := []walk{
		{lpos: 0, order: asc[1:]},
		{lpos: 2, order: asc[3:]},
		{lpos: 4},
		{lpos: 1, order: []int{4, 0, 3}},
	}
	tasks := walkTasks(walks)
	want := []task{
		{0, -1}, {0, 0}, {0, 1}, {0, 2}, {0, 3},
		{1, -1}, {1, 0}, {1, 1},
		{2, -1},
		{3, -1}, {3, 0}, {3, 1}, {3, 2},
	}
	if !reflect.DeepEqual(tasks, want) {
		t.Fatalf("walkTasks = %v, want %v", tasks, want)
	}
	if cap(tasks) != len(want) {
		t.Fatalf("walkTasks capacity %d, want exactly %d", cap(tasks), len(want))
	}
}
