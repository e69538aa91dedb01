package memo

import (
	"context"
	"fmt"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

// scenarioTable builds the paper's Scenario II chain as a Table model:
// four links, multirate, with the rate-dependent conflicts that make
// L1@54 clash with L4 while L1@36 does not.
func scenarioTable(t *testing.T) (*conflict.Table, []topology.LinkID) {
	t.Helper()
	tab := conflict.NewTable()
	links := []topology.LinkID{1, 2, 3, 4}
	for _, l := range links {
		tab.SetRates(l, 54, 36, 18, 6)
	}
	mustConflict := func(la topology.LinkID, ra radio.Rate, lb topology.LinkID, rb radio.Rate) {
		t.Helper()
		if err := tab.AddConflict(la, ra, lb, rb); err != nil {
			t.Fatalf("AddConflict: %v", err)
		}
	}
	if err := tab.AddConflictAllRates(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddConflictAllRates(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddConflictAllRates(3, 4); err != nil {
		t.Fatal(err)
	}
	for _, r := range []radio.Rate{54, 36, 18, 6} {
		mustConflict(1, 54, 4, r)
		mustConflict(4, 54, 1, r)
	}
	return tab, links
}

// TestCachedVsFreshByteIdentity is the tentpole invariant: for every
// conflict model kind and worker count, the family served from the
// cache is byte-for-byte the family a fresh enumeration produces.
func TestCachedVsFreshByteIdentity(t *testing.T) {
	net := testNetwork(t, 9, 42)
	models := []struct {
		name string
		m    conflict.Model
	}{
		{"Physical", conflict.NewPhysical(net)},
		{"Protocol", conflict.NewProtocol(net)},
	}
	tab, tabLinks := scenarioTable(t)
	models = append(models, struct {
		name string
		m    conflict.Model
	}{"Table", tab})

	for _, tc := range models {
		links := allLinks(net)
		if tc.name == "Table" {
			links = tabLinks
		}
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := indepset.Options{Workers: workers}
				fresh, err := indepset.EnumerateContext(context.Background(), tc.m, links, opts)
				if err != nil {
					t.Fatalf("fresh: %v", err)
				}
				c := New(0)
				// Populate the entry with a *different* worker count than
				// the lookup: identity must hold across worker settings.
				warmOpts := indepset.Options{Workers: 1}
				if _, err := c.EnumerateContext(context.Background(), tc.m, links, warmOpts); err != nil {
					t.Fatalf("populate: %v", err)
				}
				cached, err := c.EnumerateContext(context.Background(), tc.m, links, opts)
				if err != nil {
					t.Fatalf("cached: %v", err)
				}
				if st := c.Stats(); st.Hits != 1 {
					t.Fatalf("lookup did not hit: %+v", st)
				}
				assertFamiliesEqual(t, fresh, cached, tc.name)
			})
		}
	}
}

// TestCacheKeyCollision pins the injectivity requirement: two models
// differing in a single link rate must not share a cache entry.
func TestCacheKeyCollision(t *testing.T) {
	build := func(lastRates ...radio.Rate) *conflict.Table {
		tab := conflict.NewTable()
		tab.SetRates(1, 54, 36)
		tab.SetRates(2, 54, 36)
		tab.SetRates(3, lastRates...)
		if err := tab.AddConflictAllRates(1, 2); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a := build(54, 36)
	b := build(54, 18) // one link rate differs
	links := []topology.LinkID{1, 2, 3}

	ka, ok := Key(a, links, indepset.Options{})
	if !ok {
		t.Fatal("table should be fingerprintable")
	}
	kb, _ := Key(b, links, indepset.Options{})
	if ka == kb {
		t.Fatal("models differing in one link rate share a cache key")
	}

	// End to end: populating with one model must not leak into the other.
	c := New(0)
	fa, err := c.EnumerateContext(context.Background(), a, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := c.EnumerateContext(context.Background(), b, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("second model should miss, got %+v", st)
	}
	freshB, err := indepset.EnumerateContext(context.Background(), b, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, freshB, fb, "model b")
	freshA, err := indepset.EnumerateContext(context.Background(), a, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, freshA, fa, "model a")
}

// TestPhysicalVsProtocolKeysDiffer guards the model-kind tag: the two
// geometric models over the same network answer differently and must
// key differently.
func TestPhysicalVsProtocolKeysDiffer(t *testing.T) {
	net := testNetwork(t, 6, 99)
	links := allLinks(net)
	kp, _ := Key(conflict.NewPhysical(net), links, indepset.Options{})
	kr, _ := Key(conflict.NewProtocol(net), links, indepset.Options{})
	if kp == kr {
		t.Fatal("Physical and Protocol over the same network share a key")
	}
}

// TestMovedNodeChangesKey: a one-node geometry change is a different
// network and must not reuse cached families.
func TestMovedNodeChangesKey(t *testing.T) {
	prof := radio.NewProfile80211a()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	netA, err := topology.New(prof, pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[2].X = 210
	netB, err := topology.New(prof, pts)
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := Key(conflict.NewPhysical(netA), allLinks(netA), indepset.Options{})
	kb, _ := Key(conflict.NewPhysical(netB), allLinks(netB), indepset.Options{})
	if ka == kb {
		t.Fatal("moved node did not change the cache key")
	}
}
