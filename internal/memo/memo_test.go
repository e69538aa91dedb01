package memo

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

func testNetwork(t *testing.T, n int, seed int64) *topology.Network {
	t.Helper()
	net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 400, H: 400}, n, seed)
	if err != nil {
		t.Fatalf("building network: %v", err)
	}
	return net
}

func allLinks(net *topology.Network) []topology.LinkID {
	out := make([]topology.LinkID, 0, net.NumLinks())
	for _, l := range net.Links() {
		out = append(out, l.ID)
	}
	return out
}

func TestHitMissAndIdentity(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)

	fresh, err := indepset.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatalf("fresh enumerate: %v", err)
	}
	first, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatalf("cache enumerate (miss): %v", err)
	}
	second, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatalf("cache enumerate (hit): %v", err)
	}
	assertFamiliesEqual(t, fresh, first, "miss vs fresh")
	assertFamiliesEqual(t, fresh, second, "hit vs fresh")

	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("got hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("got entries=%d bytes=%d, want one charged entry", st.Entries, st.Bytes)
	}
}

func TestOrderInsensitiveKeyAndLookup(t *testing.T) {
	net := testNetwork(t, 6, 5)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	if len(links) < 2 {
		t.Skip("degenerate topology")
	}
	reversed := make([]topology.LinkID, len(links))
	for i, l := range links {
		reversed[len(links)-1-i] = l
	}
	duplicated := append(append([]topology.LinkID{}, links...), links[0], links[1])

	k1, ok1 := Key(m, links, indepset.Options{})
	k2, ok2 := Key(m, reversed, indepset.Options{})
	k3, ok3 := Key(m, duplicated, indepset.Options{})
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("physical model should be fingerprintable")
	}
	if k1 != k2 || k1 != k3 {
		t.Fatalf("key not canonical: %q vs %q vs %q", k1, k2, k3)
	}

	c := New(0)
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnumerateContext(context.Background(), m, reversed, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("reversed universe should hit: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestLimitInKey(t *testing.T) {
	net := testNetwork(t, 6, 7)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	kDefault, _ := Key(m, links, indepset.Options{})
	kSmall, _ := Key(m, links, indepset.Options{Limit: 8})
	if kDefault == kSmall {
		t.Fatal("different limits must not share a key")
	}
	kWorkers, _ := Key(m, links, indepset.Options{Workers: 4})
	if kDefault != kWorkers {
		t.Fatal("worker count must not affect the key (families are byte-identical)")
	}
}

func TestTruncatedNeverStored(t *testing.T) {
	net := testNetwork(t, 8, 11)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)
	opts := indepset.Options{Limit: 2, Workers: 1}
	_, truncated, err := c.EnumeratePartialContext(context.Background(), m, links, opts)
	if err != nil {
		t.Fatalf("partial: %v", err)
	}
	if !truncated {
		t.Skip("limit did not trip on this topology")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("truncated family was stored: %d entries", st.Entries)
	}
	if _, err := c.EnumerateContext(context.Background(), m, links, opts); err == nil {
		t.Fatal("Enumerate through cache should report the limit error")
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	net := testNetwork(t, 7, 13)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	if len(links) < 4 {
		t.Skip("degenerate topology")
	}
	// A budget only big enough for roughly one family forces eviction.
	probe := New(0)
	if _, err := probe.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	budget := probe.Stats().Bytes + probe.Stats().Bytes/2
	c := New(budget)
	if _, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnumerateContext(context.Background(), m, links[:len(links)-2], indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte budget, stats %+v", budget, st)
	}
	if st.Bytes > budget {
		t.Fatalf("retained %d bytes over the %d budget", st.Bytes, budget)
	}
	// The most recent family must have survived and hit.
	before := c.Stats().Hits
	if _, err := c.EnumerateContext(context.Background(), m, links[:len(links)-2], indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != before+1 {
		t.Fatal("most recently used family should have survived eviction")
	}
}

func TestSingleflightMerges(t *testing.T) {
	net := testNetwork(t, 9, 17)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	c := New(0)

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]indepset.Set, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = c.EnumerateContext(context.Background(), m, links, indepset.Options{Workers: 1})
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		assertFamiliesEqual(t, results[0], results[i], "concurrent result")
	}
	st := c.Stats()
	// Every goroutine either performed the walk, merged into it, or hit
	// the stored entry afterwards — but the walk ran at most... exactly
	// once for hits+merges+misses == goroutines.
	if st.Misses+st.Hits+st.SingleflightMerges != goroutines {
		t.Fatalf("accounting mismatch: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("expected exactly one real walk, got %d (stats %+v)", st.Misses, st)
	}
}

func TestNilCacheBypasses(t *testing.T) {
	net := testNetwork(t, 5, 19)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	var c *Cache
	fresh, err := indepset.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "nil cache")
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats should be zero, got %+v", st)
	}
	c.AddSolvePivots(true, 3, 2) // must not panic
}

// unkeyedModel wraps a pairwise model, hiding its Fingerprinter
// implementation.
type unkeyedModel struct{ conflict.PairwiseModel }

func TestUnfingerprintableModelBypasses(t *testing.T) {
	net := testNetwork(t, 5, 23)
	m := unkeyedModel{conflict.NewProtocol(net)}
	links := allLinks(net)
	c := New(0)
	fresh, err := indepset.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "bypass")
	st := c.Stats()
	if st.Bypasses != 1 || st.Entries != 0 {
		t.Fatalf("expected one bypass and no entries, got %+v", st)
	}
}

// TestPinnedModelsKeepOwnEntries enumerates a pinned model, the model
// it pins and a Physical over the same network through one cache,
// twice: every lookup returns its own model's family, never a shared
// entry. A FixRates wrapper has no fingerprint and bypasses.
func TestPinnedModelsKeepOwnEntries(t *testing.T) {
	net := testNetwork(t, 6, 5)
	links := allLinks(net)
	phys := conflict.NewPhysical(net)
	var pins []conflict.Couple
	for i, l := range links {
		if rs := phys.Rates(l); i%2 == 0 && len(rs) > 0 {
			pins = append(pins, conflict.Couple{Link: l, Rate: rs[len(rs)-1]})
		}
	}
	prot := conflict.NewProtocol(net)
	models := []conflict.Model{phys, prot, conflict.FixRates(prot, pins)}
	fresh := make([][]indepset.Set, len(models))
	for i, m := range models {
		var err error
		if fresh[i], err = indepset.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(fresh[1]) == len(fresh[2]) && fresh[1][0].Key() == fresh[2][0].Key() {
		t.Fatalf("degenerate pins: the pinned protocol family looks like the unpinned one")
	}
	c := New(0)
	for round := 0; round < 2; round++ {
		for i, m := range models {
			got, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertFamiliesEqual(t, fresh[i], got, fmt.Sprintf("round %d model %d", round, i))
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Bypasses != 2 || st.Entries != 2 {
		t.Fatalf("want 2 entries served as 2 hits and 2 bypasses, got %+v", st)
	}
}

func TestSolvePivotCounters(t *testing.T) {
	c := New(0)
	c.AddSolvePivots(false, 10, 0)
	c.AddSolvePivots(true, 2, 8)
	c.AddSolvePivots(true, 3, -1) // negative savings are clamped out
	st := c.Stats()
	if st.ColdPivots != 10 || st.WarmPivots != 5 || st.WarmResolves != 2 || st.PivotsSaved != 8 {
		t.Fatalf("pivot counters wrong: %+v", st)
	}
}

// assertFamiliesEqual requires byte-for-byte identical families: same
// length, same order, same couples, same keys.
func assertFamiliesEqual(t *testing.T, want, got []indepset.Set, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: family size %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: set %d key %q != %q", label, i, got[i].Key(), want[i].Key())
		}
		if len(want[i].Couples) != len(got[i].Couples) {
			t.Fatalf("%s: set %d couple count differs", label, i)
		}
		for j := range want[i].Couples {
			if want[i].Couples[j] != got[i].Couples[j] {
				t.Fatalf("%s: set %d couple %d %v != %v",
					label, i, j, got[i].Couples[j], want[i].Couples[j])
			}
		}
	}
}
