package indepset

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// meshFixture builds a mesh large enough that enumeration does real
// work.
func meshFixture(t *testing.T) (conflict.Model, []topology.LinkID) {
	t.Helper()
	net, err := topology.New(radio.NewProfile80211a(), geom.GridPoints(9, 3, 80))
	if err != nil {
		t.Fatal(err)
	}
	var links []topology.LinkID
	for _, l := range net.Links() {
		links = append(links, l.ID)
	}
	return conflict.NewPhysical(net), links
}

// TestContextRunByteIdentical pins the determinism invariant of the
// cancellation work: a run under a live context that never fires
// returns the byte-identical family of a run under
// context.Background(), which takes the nil-Checker path — the checker
// polls change nothing but responsiveness.
func TestContextRunByteIdentical(t *testing.T) {
	m, links := meshFixture(t)
	ref, err := EnumerateContext(context.Background(), m, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx() // live but never fired during the run
	got, err := EnumerateContext(ctx, m, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got), keys(ref)) {
		t.Fatalf("a run under a live context diverges from one under Background")
	}
}

// TestPreCanceledContextFailsFast pins the checker's first-poll-is-real
// contract: a context canceled before the walk starts yields
// ErrCanceled deterministically, and the partial variant reports it as
// an error, never as truncation.
func TestPreCanceledContextFailsFast(t *testing.T) {
	m, links := meshFixture(t)
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	if _, err := EnumerateContext(ctx, m, links, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	sets, truncated, err := EnumeratePartialContext(ctx, m, links, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("partial: err = %v, want ErrCanceled", err)
	}
	if truncated {
		t.Fatal("cancellation must not masquerade as truncation")
	}
	if sets != nil {
		t.Fatal("cancelled walk returned a partial family")
	}
}

// TestCanceledDistinctFromLimit pins the error taxonomy: hitting
// Options.Limit and being cancelled are different conditions and
// neither satisfies the other.
func TestCanceledDistinctFromLimit(t *testing.T) {
	if errors.Is(ErrCanceled, ErrLimit) || errors.Is(ErrLimit, ErrCanceled) {
		t.Fatal("ErrCanceled and ErrLimit must be distinct")
	}
	m, links := meshFixture(t)
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	_, err := EnumerateContext(ctx, m, links, Options{Limit: 1})
	if !errors.Is(err, ErrCanceled) || errors.Is(err, ErrLimit) {
		t.Fatalf("pre-canceled walk with a limit: err = %v, want pure ErrCanceled", err)
	}
}

// TestConcurrentCancelAllOrNothing pins the mid-enumeration contract
// under -race: with a cancel racing the walk, the result is either the
// complete (reference-identical) family or ErrCanceled — never a
// silently partial family, never a foreign error.
func TestConcurrentCancelAllOrNothing(t *testing.T) {
	m, links := meshFixture(t)
	ref, err := EnumerateContext(context.Background(), m, links, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		ctx, cancelCtx := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancelCtx()
		}()
		got, err := EnumerateContext(ctx, m, links, Options{})
		wg.Wait()
		switch {
		case err == nil:
			if !reflect.DeepEqual(keys(got), keys(ref)) {
				t.Fatalf("trial %d: uncancelled result diverges", trial)
			}
		case errors.Is(err, ErrCanceled):
			if got != nil {
				t.Fatalf("trial %d: cancelled walk returned sets", trial)
			}
		default:
			t.Fatalf("trial %d: foreign error %v", trial, err)
		}
	}
}
