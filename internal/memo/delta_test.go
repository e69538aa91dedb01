package memo

import (
	"context"
	"errors"
	"testing"

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

// TestDeltaHitOnUniverseGrowth is the tentpole acceptance at the cache
// layer: looking up a universe one link larger than a cached one is
// answered by the delta path — counted as a DeltaHit, not a Miss — and
// the served family is byte-identical to a fresh full enumeration.
func TestDeltaHitOnUniverseGrowth(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links

	fresh, err := indepset.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}

	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "delta growth")

	st := c.Stats()
	if st.DeltaHits != 1 || st.Misses != 1 || st.Hits != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("growth lookup not a delta hit: %+v", st)
	}
	assertIdentity(t, st, "delta growth")

	// The grown family is now a first-class cached entry: the same
	// lookup again is a plain memory hit.
	if _, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.DeltaHits != 1 {
		t.Fatalf("delta result not retained for hits: %+v", st)
	}
}

// TestDeltaChainInsertsIntermediates grows by three links in one
// lookup: still one DeltaHit, and the intermediate universes along the
// chain are cached too (memory-only), so future growth steps are
// one-link deltas.
func TestDeltaChainInsertsIntermediates(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-3], links

	fresh, err := indepset.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}

	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "three-link chain")
	st := c.Stats()
	if st.DeltaHits != 1 || st.Misses != 1 {
		t.Fatalf("chain accounting: %+v", st)
	}
	// base + two intermediates + target.
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4 (base, two intermediates, target)", st.Entries)
	}
	// An intermediate universe is a complete cached family: looking it
	// up is a plain hit, no walk.
	failEnumerate(t)
	if _, err := c.EnumerateContext(context.Background(), m, links[:len(links)-2], indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("intermediate universe lookup not a hit: %+v", st)
	}
	assertIdentity(t, c.Stats(), "three-link chain")
}

// TestDeltaDisabledFallsBackToFullWalk pins the SetDeltaEnabled knob:
// with the path off, the same growth lookup is a plain miss with
// byte-identical results.
func TestDeltaDisabledFallsBackToFullWalk(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links

	fresh, err := indepset.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(0)
	c.SetDeltaEnabled(false)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "delta off")
	st := c.Stats()
	if st.DeltaHits != 0 || st.DeltaFallbacks != 0 || st.Misses != 2 {
		t.Fatalf("delta-off growth lookup: %+v", st)
	}
	assertIdentity(t, st, "delta off")
}

// TestDeltaShrinkIsNotABase pins the subset direction: a cached
// SUPERSET universe cannot serve a smaller lookup (dropping a link can
// unlock sets the bigger family suppressed), so shrinking is a plain
// miss, never a delta hit or fallback.
func TestDeltaShrinkIsNotABase(t *testing.T) {
	m, links := deltaTopology(t)
	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := indepset.EnumerateContext(context.Background(), m, links[:len(links)-1], indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, links[:len(links)-1], indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "shrink")
	st := c.Stats()
	if st.DeltaHits != 0 || st.DeltaFallbacks != 0 || st.Misses != 2 {
		t.Fatalf("shrink lookup must be a plain miss: %+v", st)
	}
	assertIdentity(t, st, "shrink")
}

// errDeltaRefused is a test-local delta failure: whatever the chain
// cannot serve, the lookup must fall back to the full walk.
var errDeltaRefused = errors.New("memo test: delta refused")

// TestDeltaFallbackCounted injects a delta failure: the lookup found a
// base but falls back to the full walk, counted as DeltaFallbacks + a
// Miss, with the result unharmed.
func TestDeltaFallbackCounted(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links

	fresh, err := indepset.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	swapDelta(t, func(context.Context, conflict.Model, indepset.DeltaBase, []topology.LinkID, indepset.Options) ([]indepset.Set, int64, error) {
		return nil, 0, errDeltaRefused
	})
	got, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "fallback")
	st := c.Stats()
	if st.DeltaFallbacks != 1 || st.DeltaHits != 0 || st.Misses != 2 {
		t.Fatalf("fallback accounting: %+v", st)
	}
	assertIdentity(t, st, "fallback")
}

// TestDeltaNeverSeededFromTruncation pins the never-on-truncated rule
// from the other side: truncated families are not stored, so a
// truncated walk of a smaller universe leaves nothing for the delta
// path to warm-start from — the grown lookup is a plain miss with zero
// delta counters.
func TestDeltaNeverSeededFromTruncation(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	opts := indepset.Options{Limit: 2, Workers: 1}

	c := New(0)
	if _, truncated, err := c.EnumeratePartialContext(context.Background(), m, small, opts); err != nil {
		t.Fatal(err)
	} else if !truncated {
		t.Skip("limit did not trip on this topology")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("truncated family stored: %+v", st)
	}
	if _, _, err := c.EnumeratePartialContext(context.Background(), m, big, opts); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DeltaHits != 0 || st.DeltaFallbacks != 0 || st.Misses != 2 {
		t.Fatalf("truncated base must not seed delta: %+v", st)
	}
	assertIdentity(t, st, "truncated seed")
}

// TestDeltaCancelledMidChainCountsMiss pins the cancellation contract
// of the delta path: a context that fires during the chain surfaces
// ErrCanceled, counts as a miss plus a cancellation (never a fallback),
// and stores nothing for the target universe.
func TestDeltaCancelledMidChainCountsMiss(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links

	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	entriesBefore := c.Stats().Entries
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	if _, err := c.EnumerateContext(ctx, m, big, indepset.Options{}); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("cancelled delta chain: err = %v, want ErrCanceled", err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Cancellations != 1 || st.DeltaFallbacks != 0 || st.DeltaHits != 0 {
		t.Fatalf("cancelled chain accounting: %+v", st)
	}
	if st.Entries != entriesBefore {
		t.Fatalf("cancelled chain stored an entry: %+v", st)
	}
	assertIdentity(t, st, "cancelled chain")

	// The cancel poisoned nothing: a live retry is served by delta.
	if _, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaHits != 1 {
		t.Fatalf("retry after cancel not a delta hit: %+v", st)
	}
}

// TestDeltaResultSpillsToDisk closes the loop with the store: a family
// served by delta is written behind the query like any other complete
// family, so a restarted process disk-hits it with zero enumeration.
func TestDeltaResultSpillsToDisk(t *testing.T) {
	m, links := deltaTopology(t)
	small, big := links[:len(links)-1], links
	dir := t.TempDir()

	fresh, err := indepset.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := New(0)
	c1.SetStore(openTestStore(t, dir, 0))
	if _, err := c1.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.EnumerateContext(context.Background(), m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DeltaHits != 1 {
		t.Fatalf("second lookup not a delta hit: %+v", st)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	failEnumerate(t)
	c2 := New(0)
	c2.SetStore(openTestStore(t, dir, 0))
	got, err := c2.EnumerateContext(context.Background(), m, big, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "delta spill restart")
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("restart should disk-hit the delta-served family: %+v", st)
	}
}

// TestDeltaBaseTooFarAway pins the maxDeltaLinks bound: a cached base
// missing more links than the chain budget is not a base at all, so the
// lookup is a plain miss (no fallback counted).
func TestDeltaBaseTooFarAway(t *testing.T) {
	m, links := deltaTopology(t)
	if len(links) < maxDeltaLinks+2 {
		t.Skipf("need %d links, have %d", maxDeltaLinks+2, len(links))
	}
	small, big := links[:1], links[:maxDeltaLinks+2]

	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, small, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnumerateContext(context.Background(), m, big, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DeltaHits != 0 || st.DeltaFallbacks != 0 || st.Misses != 2 {
		t.Fatalf("distant base must not warm-start: %+v", st)
	}
	assertIdentity(t, st, "distant base")
}
