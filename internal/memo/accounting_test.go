package memo

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/topology"
)

// swapEnumerate installs fn as the cache's enumeration for the test.
func swapEnumerate(t *testing.T, fn func(context.Context, conflict.Model, []topology.LinkID, indepset.Options) ([]indepset.Set, bool, int64, error)) {
	t.Helper()
	orig := enumerateFn
	enumerateFn = fn
	t.Cleanup(func() { enumerateFn = orig })
}

// TestOversizedEntrySelfEvicts pins the insert-then-self-evict path of
// insertLocked: a family larger than the whole byte budget is inserted
// and immediately evicted, so it never displaces state, and the next
// identical lookup is a miss again.
func TestOversizedEntrySelfEvicts(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(1) // no real family fits in one byte
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry retained: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the entry itself)", st.Evictions)
	}
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("second lookup of a self-evicted family must miss: %+v", st)
	}
	assertIdentity(t, st, "oversized")
}

// TestEvictionOrderUnderInterleavedHits pins LRU ordering: a hit moves
// a family to the most-recent end, so a later insert past the budget
// evicts the family that was NOT recently hit, regardless of insert
// order.
func TestEvictionOrderUnderInterleavedHits(t *testing.T) {
	net := testNetwork(t, 7, 13)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	if len(links) < 4 {
		t.Skip("degenerate topology")
	}
	uniA, uniB, uniC := links, links[:len(links)-1], links[:len(links)-2]
	// This test pins which entry LRU eviction removes by observing the
	// re-lookup as a miss. With delta enumeration on, the evicted uniB
	// would instead be served as a delta growth of the cached uniC
	// (uniC ⊂ uniB), masking the very miss under observation — so the
	// caches here run with the warm-start path off.
	size := func(uni []topology.LinkID) int64 {
		probe := New(0)
		if _, err := probe.EnumerateContext(context.Background(), m, uni, indepset.Options{}); err != nil {
			t.Fatal(err)
		}
		return probe.Stats().Bytes
	}
	sA, sB, sC := size(uniA), size(uniB), size(uniC)
	if sC/2 > sB {
		t.Skip("family sizes too skewed for the budget arithmetic")
	}
	// A and B fit together; adding C must evict exactly one family.
	c := New(sA + sB + sC/2)
	c.SetDeltaEnabled(false)
	mustEnum := func(uni []topology.LinkID) {
		t.Helper()
		if _, err := c.EnumerateContext(context.Background(), m, uni, indepset.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	mustEnum(uniA) // miss
	mustEnum(uniB) // miss
	mustEnum(uniA) // hit: A becomes most recent, B is now LRU
	mustEnum(uniC) // miss; evicts B, not A

	base := c.Stats()
	if base.Evictions == 0 {
		t.Fatalf("expected an eviction, stats %+v", base)
	}
	mustEnum(uniA)
	if st := c.Stats(); st.Hits != base.Hits+1 {
		t.Fatalf("recently hit family A was evicted: %+v", st)
	}
	mustEnum(uniC)
	if st := c.Stats(); st.Hits != base.Hits+2 {
		t.Fatalf("most recent family C was evicted: %+v", st)
	}
	before := c.Stats()
	mustEnum(uniB)
	if st := c.Stats(); st.Misses != before.Misses+1 {
		t.Fatalf("least recently used family B should have been the victim: %+v", st)
	}
	assertIdentity(t, c.Stats(), "interleaved")
}

// TestLookupIdentityAcrossAllPaths drives every terminal counter —
// memory hit, miss, bypass, truncation, enumeration error — and
// requires the satellite identity
//
//	Lookups == Hits + DiskHits + DeltaHits + Misses + Bypasses + SingleflightMerges
//
// to hold after each step, error paths included. (No step here grows a
// cached universe, so DeltaHits stays zero; the delta terms are driven
// in delta_test.go.)
func TestLookupIdentityAcrossAllPaths(t *testing.T) {
	net := testNetwork(t, 8, 11)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)

	step := 0
	check := func(label string, wantLookups int64) {
		t.Helper()
		st := c.Stats()
		assertIdentity(t, st, label)
		if st.Lookups != wantLookups {
			t.Fatalf("%s: lookups = %d, want %d (stats %+v)", label, st.Lookups, wantLookups, st)
		}
	}

	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	step++
	check("miss", int64(step))
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	step++
	check("hit", int64(step))

	if _, err := c.EnumerateContext(context.Background(), unkeyedModel{conflict.NewProtocol(net)}, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	step++
	check("bypass", int64(step))

	// Truncated flight: counted as a miss, never stored.
	if _, truncated, err := c.EnumeratePartialContext(context.Background(), m, links, indepset.Options{Limit: 2}); err != nil {
		t.Fatal(err)
	} else if !truncated {
		t.Skip("limit did not trip on this topology")
	}
	step++
	check("truncation", int64(step))

	// Erroring flight: the walk itself fails; the error surfaces but
	// the totals still reconcile.
	boom := errors.New("injected enumeration failure")
	swapEnumerate(t, func(context.Context, conflict.Model, []topology.LinkID, indepset.Options) ([]indepset.Set, bool, int64, error) {
		return nil, false, 0, boom
	})
	if _, err := c.EnumerateContext(context.Background(), m, links[:1], indepset.Options{}); !errors.Is(err, boom) {
		t.Fatalf("injected error not surfaced: %v", err)
	}
	step++
	check("error", int64(step))

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Bypasses != 1 || st.SingleflightMerges != 0 {
		t.Fatalf("per-path counts wrong: %+v", st)
	}
}

// TestSingleflightMergeAccountingOnError joins waiters onto a flight
// that is then failed: every waiter is counted as a merge, every
// caller sees the error, and the counter identity still reconciles —
// the bug this pins had hits+misses+bypasses+merges drift from the
// lookup total on error paths.
func TestSingleflightMergeAccountingOnError(t *testing.T) {
	net := testNetwork(t, 6, 5)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)

	const waiters = 4
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("injected flight failure")
	swapEnumerate(t, func(context.Context, conflict.Model, []topology.LinkID, indepset.Options) ([]indepset.Set, bool, int64, error) {
		close(started)
		<-release
		return nil, false, 0, boom
	})

	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the leader
		defer wg.Done()
		_, errs[0] = c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	}()
	<-started // the flight is open; everyone below must join it
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.EnumerateContext(context.Background(), m, links, indepset.Options{})
		}(i)
	}
	// Wait until all waiters are accounted as merges, then fail the
	// flight.
	deadline := time.After(5 * time.Second)
	for c.Stats().SingleflightMerges < waiters {
		select {
		case <-deadline:
			t.Fatalf("waiters never joined: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: error = %v, want the flight failure", i, err)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleflightMerges != waiters || st.Hits != 0 {
		t.Fatalf("singleflight error accounting: %+v", st)
	}
	if st.Lookups != waiters+1 {
		t.Fatalf("lookups = %d, want %d", st.Lookups, waiters+1)
	}
	assertIdentity(t, st, "singleflight error")
	if st.Entries != 0 {
		t.Fatalf("failed flight must not be stored: %+v", st)
	}
}

// TestStatsShapeSnapshotConsistent hammers Stats while inserts and
// evictions churn the cache and requires every snapshot's shape fields
// — Entries, Bytes, Evictions, read under ONE lock acquisition — to be
// mutually consistent: bytes and entries are zero together, every
// entry carries at least its fixed overhead, and the budget is never
// exceeded. A torn snapshot (entries counted without their bytes, or
// an eviction without its byte decrement) violates one of these.
func TestStatsShapeSnapshotConsistent(t *testing.T) {
	net := testNetwork(t, 7, 13)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	if len(links) < 4 {
		t.Skip("degenerate topology")
	}
	probe := New(0)
	if _, err := probe.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	budget := probe.Stats().Bytes + probe.Stats().Bytes/2 // ~one family: constant churn
	c := New(budget)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		universes := [][]topology.LinkID{links, links[:len(links)-1], links[:len(links)-2]}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.EnumerateContext(context.Background(), m, universes[i%len(universes)], indepset.Options{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const (
		coupleBytes   = 16
		entryOverhead = 96
	)
	for i := 0; i < 2000; i++ {
		st := c.Stats()
		if (st.Entries == 0) != (st.Bytes == 0) {
			t.Fatalf("torn shape: entries=%d bytes=%d", st.Entries, st.Bytes)
		}
		if st.Bytes < int64(st.Entries)*entryOverhead {
			t.Fatalf("torn shape: %d entries but only %d bytes", st.Entries, st.Bytes)
		}
		if st.Bytes > budget {
			t.Fatalf("shape over budget: bytes=%d > %d", st.Bytes, budget)
		}
	}
	close(stop)
	wg.Wait()
	assertIdentity(t, c.Stats(), "shape hammer")
}
