package memo

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/topology"
)

// swapDelta installs fn as the cache's delta walk for the test.
func swapDelta(t *testing.T, fn func(context.Context, conflict.Model, indepset.DeltaBase, []topology.LinkID, indepset.Options) ([]indepset.Set, int64, error)) {
	t.Helper()
	orig := deltaFn
	deltaFn = fn
	t.Cleanup(func() { deltaFn = orig })
}

// deltaTopology returns a physical model and at least five links, the
// smallest universe the growth tests below need.
func deltaTopology(t *testing.T) (conflict.Model, []topology.LinkID) {
	t.Helper()
	net := testNetwork(t, 8, 3)
	links := allLinks(net)
	if len(links) < 5 {
		t.Skip("degenerate topology")
	}
	return conflict.NewPhysical(net), links
}

// fullWalk is the reference a grow must reproduce: the complete family
// of the universe and its exploration count, or ErrLimit.
func fullWalk(t *testing.T, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, int64, error) {
	t.Helper()
	sets, truncated, explored, err := indepset.EnumeratePartialCountedContext(context.Background(), m, links, opts)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		return nil, 0, indepset.ErrLimit
	}
	return sets, explored, nil
}

// baseOf walks links into a delta base.
func baseOf(t *testing.T, m conflict.Model, links []topology.LinkID, opts indepset.Options) indepset.DeltaBase {
	t.Helper()
	sets, explored, err := fullWalk(t, m, links, opts)
	if err != nil {
		t.Fatal(err)
	}
	return indepset.DeltaBase{Universe: canonicalUniverse(links), Sets: sets, Explored: explored}
}

// TestDeltaHitOnUniverseGrowth: growing a named base by one link is a
// delta hit, not a miss; the family and count are the full walk's; and
// the grown family is a first-class entry, so the same grow, or a plain
// lookup of the grown universe, is a memory hit.
func TestDeltaHitOnUniverseGrowth(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	want, wantExplored, _ := fullWalk(t, m, big, indepset.Options{})

	c := New(0)
	sets, explored, err := c.GrowContext(context.Background(), m, indepset.DeltaBase{}, small, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := indepset.DeltaBase{Universe: small, Sets: sets, Explored: explored}
	got, gotExplored, err := c.GrowContext(context.Background(), m, base, big[len(small):], indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, want, got, "delta growth")
	if gotExplored != wantExplored {
		t.Fatalf("grown count %d, full walk %d", gotExplored, wantExplored)
	}
	st := c.Stats()
	if st.DeltaHits != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("growth lookup not a delta hit: %+v", st)
	}
	assertIdentity(t, st, "delta growth")

	if _, _, err := c.GrowContext(context.Background(), m, base, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 2 || st.DeltaHits != 1 {
		t.Fatalf("grown family not retained for hits: %+v", st)
	}
}

// TestDeltaShrinkIsNotABase: a cached SUPERSET universe never serves a
// smaller lookup (dropping a link can unlock sets the bigger family
// suppressed), so shrinking is a plain miss.
func TestDeltaShrinkIsNotABase(t *testing.T) {
	m, links := deltaTopology(t)
	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _, _ := fullWalk(t, m, links[:len(links)-1], indepset.Options{})
	got, err := c.EnumerateContext(context.Background(), m, links[:len(links)-1], indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, want, got, "shrink")
	st := c.Stats()
	if st.DeltaHits != 0 || st.Misses != 2 {
		t.Fatalf("shrink lookup must be a plain miss: %+v", st)
	}
	assertIdentity(t, st, "shrink")
}

// TestDeltaNeverSeededFromTruncation: a walk past the limit yields no
// base to grow from — GrowContext from the empty base reports ErrLimit
// with no family or count, and stores nothing — and a grow whose grown
// universe trips the limit is the full walk's ErrLimit verdict, a miss
// that stores nothing.
func TestDeltaNeverSeededFromTruncation(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links

	c := New(0)
	sets, explored, err := c.GrowContext(context.Background(), m, indepset.DeltaBase{}, small, indepset.Options{Limit: 2})
	if !errors.Is(err, indepset.ErrLimit) {
		t.Skipf("limit did not trip on this topology: %v", err)
	}
	if sets != nil || explored != 0 {
		t.Fatalf("a truncated walk handed out a base: %d sets, count %d", len(sets), explored)
	}

	// A limit the small universe fits and the big one does not.
	base := baseOf(t, m, small, indepset.Options{})
	opts := indepset.Options{Limit: int(base.Explored)}
	if _, _, err := fullWalk(t, m, big, opts); !errors.Is(err, indepset.ErrLimit) {
		t.Skip("the grown universe explores no more than its base")
	}
	if _, _, err := c.GrowContext(context.Background(), m, base, big, opts); !errors.Is(err, indepset.ErrLimit) {
		t.Fatalf("grow past the limit: err = %v, want ErrLimit", err)
	}
	st := c.Stats()
	if st.DeltaHits != 0 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("limit verdicts must be stored-nothing misses: %+v", st)
	}
	assertIdentity(t, st, "truncated seed")
}

// TestDeltaCancelledMidChainCountsMiss: a cancelled grow surfaces
// ErrCanceled, counts as a miss plus a cancellation, and stores nothing
// in memory or on disk; a live retry is a delta hit.
func TestDeltaCancelledMidChainCountsMiss(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	dir := t.TempDir()
	base := baseOf(t, m, small, indepset.Options{})

	c := New(0)
	c.SetStore(openTestStore(t, dir, 0))
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	if _, _, err := c.GrowContext(ctx, m, base, big, indepset.Options{}); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("cancelled grow: err = %v, want ErrCanceled", err)
	}
	c.FlushStore()
	st := c.Stats()
	if st.Misses != 1 || st.Cancellations != 1 || st.DeltaHits != 0 {
		t.Fatalf("cancelled grow accounting: %+v", st)
	}
	if st.Entries != 0 || len(familyFiles(t, dir)) != 0 {
		t.Fatalf("cancelled grow stored a family: %+v, files %v", st, familyFiles(t, dir))
	}
	assertIdentity(t, st, "cancelled grow")

	// The cancel poisoned nothing: a live retry is served by delta.
	if _, _, err := c.GrowContext(context.Background(), m, base, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaHits != 1 {
		t.Fatalf("retry after cancel not a delta hit: %+v", st)
	}
}

// TestDeltaResultSpillsToDisk: a grown family is written behind the
// query like any other complete family, so a restarted process
// disk-hits it, count included, with zero walking.
func TestDeltaResultSpillsToDisk(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	dir := t.TempDir()
	want, wantExplored, _ := fullWalk(t, m, big, indepset.Options{})
	base := baseOf(t, m, small, indepset.Options{})

	c1 := New(0)
	c1.SetStore(openTestStore(t, dir, 0))
	if _, _, err := c1.GrowContext(context.Background(), m, base, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DeltaHits != 1 {
		t.Fatalf("grow not a delta hit: %+v", st)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	failEnumerate(t)
	swapDelta(t, func(context.Context, conflict.Model, indepset.DeltaBase, []topology.LinkID, indepset.Options) ([]indepset.Set, int64, error) {
		t.Error("delta walk ran where a disk hit was required")
		return nil, 0, errors.New("unreachable")
	})
	c2 := New(0)
	c2.SetStore(openTestStore(t, dir, 0))
	got, explored, err := c2.GrowContext(context.Background(), m, base, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, want, got, "delta spill restart")
	if explored != wantExplored {
		t.Fatalf("disk-hit count %d, full walk %d", explored, wantExplored)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("restart should disk-hit the grown family: %+v", st)
	}
	assertIdentity(t, st, "delta spill restart")
}

// TestGrowFromNamedUniverse: a base named by its universe alone grows
// the family the cache retains for it (a delta hit); once that family
// is evicted the grow walks the grown universe whole (a miss); and a
// nil cache walks it whole too. Every family is the full walk's.
func TestGrowFromNamedUniverse(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := canonicalUniverse(links[:len(links)-1]), links
	named := indepset.DeltaBase{Universe: small}
	want, wantExplored, _ := fullWalk(t, m, big, indepset.Options{})
	grow := func(c *Cache, label string) {
		t.Helper()
		got, explored, err := c.GrowContext(context.Background(), m, named, big, indepset.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertFamiliesEqual(t, want, got, label)
		if explored != wantExplored {
			t.Fatalf("%s: count %d, full walk %d", label, explored, wantExplored)
		}
	}

	c := New(0)
	if _, _, err := c.GrowContext(context.Background(), m, indepset.DeltaBase{}, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	grow(c, "retained base")
	st := c.Stats()
	if st.DeltaHits != 1 || st.Misses != 1 {
		t.Fatalf("grow of a retained base must be a delta hit: %+v", st)
	}
	assertIdentity(t, st, "retained base")

	// A budget of one byte keeps nothing: the base is gone by the grow.
	c = New(1)
	if _, _, err := c.GrowContext(context.Background(), m, indepset.DeltaBase{}, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	grow(c, "evicted base")
	st = c.Stats()
	if st.DeltaHits != 0 || st.Misses != 2 {
		t.Fatalf("grow of an evicted base must walk whole: %+v", st)
	}
	assertIdentity(t, st, "evicted base")

	grow(nil, "nil cache")
}

// TestLookupGrowsFromRecent: a lookup that names no base grows the
// family of the previous lookup's universe when that is a retained
// proper subset — the universe the previous lookup looked up, or the
// base it grew from — while a partial lookup walks from scratch.
func TestLookupGrowsFromRecent(t *testing.T) {
	m, links := deltaTopology(t)
	small, mid, big := links[:len(links)-2], links[:len(links)-1], links
	ctx := context.Background()

	c := New(0)
	if _, err := c.EnumerateContext(ctx, m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(ctx, m, mid, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := fullWalk(t, m, mid, indepset.Options{})
	assertFamiliesEqual(t, want, got, "grown from the looked-up subset")
	if st := c.Stats(); st.DeltaHits != 1 || st.Misses != 1 {
		t.Fatalf("lookup after its subset must be a delta hit: %+v", st)
	}

	// A grow from small leaves small as the recent base, so big, a
	// superset of both, grows from it too.
	base := indepset.DeltaBase{Universe: canonicalUniverse(small)}
	if _, _, err := c.GrowContext(ctx, m, base, mid, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	var grewFrom []topology.LinkID
	swapDelta(t, func(ctx context.Context, m conflict.Model, base indepset.DeltaBase, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, int64, error) {
		grewFrom = base.Universe
		return indepset.EnumerateDelta(ctx, m, base, links, opts)
	})
	got, err = c.EnumerateContext(ctx, m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(grewFrom, base.Universe) {
		t.Fatalf("grew from %v, want the named base %v", grewFrom, base.Universe)
	}
	want, _, _ = fullWalk(t, m, big, indepset.Options{})
	assertFamiliesEqual(t, want, got, "grown from the recent base")
	if st := c.Stats(); st.Hits != 1 || st.DeltaHits != 2 || st.Misses != 1 {
		t.Fatalf("lookup after a grow must grow from its base: %+v", st)
	}
	assertIdentity(t, c.Stats(), "recent base")

	c = New(0)
	if _, err := c.EnumerateContext(ctx, m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.EnumeratePartialContext(ctx, m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaHits != 0 || st.Misses != 2 {
		t.Fatalf("a partial lookup must not grow: %+v", st)
	}
}

// TestGrowBypassesUnkeyableModel: a FixRates model has no fingerprint,
// so its grow bypasses the cache — still the full walk's family, by a
// delta walk, with nothing stored.
func TestGrowBypassesUnkeyableModel(t *testing.T) {
	net := testNetwork(t, 8, 3)
	prot := conflict.NewProtocol(net)
	var pins []conflict.Couple
	for _, l := range net.Links() {
		if rs := prot.Rates(l.ID); len(rs) > 0 {
			pins = append(pins, conflict.Couple{Link: l.ID, Rate: rs[len(rs)-1]})
		}
	}
	m := conflict.FixRates(prot, pins)
	links := allLinks(net)
	if len(links) < 2 {
		t.Skip("degenerate topology")
	}
	want, _, _ := fullWalk(t, m, links, indepset.Options{})
	c := New(0)
	got, _, err := c.GrowContext(context.Background(), m, baseOf(t, m, links[:1], indepset.Options{}), links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, want, got, "bypassed grow")
	st := c.Stats()
	if st.Bypasses != 1 || st.Lookups != 1 || st.Entries != 0 {
		t.Fatalf("unkeyable grow must bypass: %+v", st)
	}
	assertIdentity(t, st, "bypassed grow")
}

// TestGrowSingleflight: concurrent grows of one universe share the
// leader's delta walk (one delta hit, one merge); and a partial lookup
// joining a grow whose verdict is ErrLimit walks for its own truncated
// family, as it would have alone.
func TestGrowSingleflight(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	base := baseOf(t, m, small, indepset.Options{})

	// joined runs a grow of big from base under opts with its delta walk
	// held open, lets second join the flight, then releases the walk.
	// It returns the grow's family and error.
	joined := func(c *Cache, opts indepset.Options, second func()) ([]indepset.Set, error) {
		t.Helper()
		started, release := make(chan struct{}), make(chan struct{})
		swapDelta(t, func(ctx context.Context, m conflict.Model, base indepset.DeltaBase, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, int64, error) {
			close(started)
			<-release
			return indepset.EnumerateDelta(ctx, m, base, links, opts)
		})
		var sets []indepset.Set
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			sets, _, err = c.GrowContext(context.Background(), m, base, big, opts)
		}()
		<-started
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			second()
		}()
		deadline := time.After(5 * time.Second)
		for c.Stats().SingleflightMerges < 1 {
			select {
			case <-deadline:
				t.Fatalf("the second lookup never joined: %+v", c.Stats())
			case <-time.After(time.Millisecond):
			}
		}
		close(release)
		wg.Wait()
		<-done
		return sets, err
	}

	want, _, _ := fullWalk(t, m, big, indepset.Options{})
	c := New(0)
	var waited []indepset.Set
	var waitErr error
	led, err := joined(c, indepset.Options{}, func() {
		waited, _, waitErr = c.GrowContext(context.Background(), m, base, big, indepset.Options{})
	})
	if err != nil || waitErr != nil {
		t.Fatalf("leader err %v, waiter err %v", err, waitErr)
	}
	assertFamiliesEqual(t, want, led, "grow leader")
	assertFamiliesEqual(t, want, waited, "grow waiter")
	st := c.Stats()
	if st.DeltaHits != 1 || st.SingleflightMerges != 1 || st.Lookups != 2 {
		t.Fatalf("merged grow accounting: %+v", st)
	}
	assertIdentity(t, st, "merged grow")

	opts := indepset.Options{Limit: int(base.Explored)}
	wantPartial, truncated, _, err := indepset.EnumeratePartialCountedContext(context.Background(), m, big, opts)
	if err != nil || !truncated {
		t.Skip("the grown universe explores no more than its base")
	}
	c = New(0)
	var partial []indepset.Set
	var partialTruncated bool
	_, err = joined(c, opts, func() {
		partial, partialTruncated, waitErr = c.EnumeratePartialContext(context.Background(), m, big, opts)
	})
	if !errors.Is(err, indepset.ErrLimit) || waitErr != nil || !partialTruncated {
		t.Fatalf("leader err %v (want ErrLimit), partial waiter err %v truncated %v", err, waitErr, partialTruncated)
	}
	assertFamiliesEqual(t, wantPartial, partial, "partial waiter")
	st = c.Stats()
	if st.Misses != 1 || st.SingleflightMerges != 1 || st.Entries != 0 {
		t.Fatalf("limit flight accounting: %+v", st)
	}
	assertIdentity(t, st, "limit flight")
}
