package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/topology"
)

// TestCanceledEnumerationNotStoredOrSpilled pins the no-store-on-cancel
// rule end to end: a cancelled enumeration returns ErrCanceled, leaves
// no in-memory cache entry, writes no spill file, and is counted in
// Stats.Cancellations — while the next uncancelled lookup of the same
// family computes, stores and spills normally.
func TestCanceledEnumerationNotStoredOrSpilled(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0)
	c.SetStore(st)
	t.Cleanup(func() { c.Close() })

	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx() // the workers' first poll fires deterministically
	if _, err := c.EnumerateContext(ctx, m, links, indepset.Options{}); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("cancelled enumeration: err = %v, want ErrCanceled", err)
	}
	stats := c.Stats()
	if stats.Cancellations != 1 {
		t.Fatalf("cancellations = %d, want 1 (stats %+v)", stats.Cancellations, stats)
	}
	if stats.Entries != 0 || stats.Bytes != 0 {
		t.Fatalf("cancelled result was stored: %+v", stats)
	}
	c.FlushStore()
	if files := familyFiles(t, dir); len(files) != 0 {
		t.Fatalf("cancelled result was spilled: %v", files)
	}

	// The family is still computable: the cancel poisoned nothing.
	sets, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("no sets after uncancelled retry")
	}
	stats = c.Stats()
	if stats.Entries != 1 {
		t.Fatalf("uncancelled retry not stored: %+v", stats)
	}
	if stats.Hits != 0 {
		t.Fatalf("retry must be a miss, not a hit off cancelled state: %+v", stats)
	}
	c.FlushStore()
	if files := familyFiles(t, dir); len(files) != 1 {
		t.Fatalf("uncancelled retry not spilled: %v", files)
	}
}

// TestWaiterCancelDoesNotPoisonLeader pins the singleflight contract:
// a waiter whose context fires while merged onto an in-flight
// enumeration returns ErrCanceled immediately, but the leader — whose
// context is alive — finishes, stores its family, and serves hits.
func TestWaiterCancelDoesNotPoisonLeader(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	orig := enumerateFn
	swapEnumerate(t, func(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, int64, error) {
		once.Do(func() { close(leaderIn) })
		<-release
		return orig(ctx, m, links, opts)
	})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
		leaderDone <- err
	}()
	<-leaderIn

	// The waiter merges onto the held flight, then its context fires.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.EnumerateContext(waiterCtx, m, links, indepset.Options{})
		waiterDone <- err
	}()
	for c.Stats().SingleflightMerges == 0 {
		runtime.Gosched()
	}
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("cancelled waiter: err = %v, want ErrCanceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader poisoned by waiter cancel: %v", err)
	}
	stats := c.Stats()
	if stats.Entries != 1 {
		t.Fatalf("leader result not stored: %+v", stats)
	}
	if stats.Cancellations != 1 {
		t.Fatalf("cancellations = %d, want 1 (the waiter)", stats.Cancellations)
	}
	// The stored family now serves hits.
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("post-cancel lookup must hit the leader's entry: %+v", st)
	}
	assertIdentity(t, c.Stats(), "waiter-cancel")
}
