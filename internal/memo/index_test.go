package memo

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"abw/internal/indepset"
	"abw/internal/topology"
)

// scanDeltaBase is the reference for findDeltaBase: one pass over every
// cached entry in LRU order, keeping the smallest diff and, among equal
// diffs, the smallest key.
func scanDeltaBase(c *Cache, prefix string, universe []topology.LinkID) (indepset.DeltaBase, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	bestDiff := maxDeltaLinks + 1
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !strings.HasPrefix(e.key, prefix) {
			continue
		}
		diff, sub := universeDiff(e.universe, universe)
		if !sub || diff < 1 || diff > maxDeltaLinks {
			continue
		}
		if diff < bestDiff || (diff == bestDiff && e.key < best.key) {
			best, bestDiff = e, diff
		}
	}
	if best == nil {
		return indepset.DeltaBase{}, false
	}
	return indepset.DeltaBase{Universe: best.universe, Sets: best.sets, Explored: best.explored}, true
}

// checkIndex asserts that the delta-base index holds exactly the live
// entries: each entry of ll sits in its group's bucket for its size at
// its slot, with its universe's mask, and no bucket or group holds
// anything else.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		g := c.groups[e.group.prefix]
		if g != e.group || !strings.HasPrefix(e.key, g.prefix) {
			t.Fatalf("entry %q indexed under group %q", e.key, e.group.prefix)
		}
		n := len(e.universe)
		if n >= len(g.bySize) || e.slot >= len(g.bySize[n]) || g.bySize[n][e.slot] != e {
			t.Fatalf("entry %q not at its bucket slot", e.key)
		}
		if e.mask != linkMask(e.universe) {
			t.Fatalf("entry %q mask %x, want %x", e.key, e.mask, linkMask(e.universe))
		}
	}
	indexed := 0
	for prefix, g := range c.groups {
		held := 0
		for _, b := range g.bySize {
			held += len(b)
		}
		if g.prefix != prefix || held != g.entries || held == 0 {
			t.Fatalf("group %q (prefix %q) holds %d entries, counts %d", prefix, g.prefix, held, g.entries)
		}
		indexed += held
	}
	if indexed != c.ll.Len() {
		t.Fatalf("index holds %d entries, cache %d", indexed, c.ll.Len())
	}
}

// insertUniverse caches sets as the family of universe under prefix.
func insertUniverse(c *Cache, prefix string, universe []topology.LinkID, sets []indepset.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(prefix+universeSuffix(universe), prefix, universe, sets, 0)
}

// touch moves a cached universe to the LRU front, as a memory hit does.
func touch(c *Cache, prefix string, universe []topology.LinkID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[prefix+universeSuffix(universe)]; ok {
		c.ll.MoveToFront(el)
	}
}

func linkIDs(ids ...int) []topology.LinkID {
	out := make([]topology.LinkID, len(ids))
	for i, id := range ids {
		out[i] = topology.LinkID(id)
	}
	return out
}

const testPrefix = "fp|l0|u"

// TestDeltaBaseSmallestKeyWinsAtEqualDiff pins the tie-break: of two
// bases one link short of the target, the smaller key wins in either
// LRU order. Keys compare as strings, so ":10:11" beats ":9:11".
func TestDeltaBaseSmallestKeyWinsAtEqualDiff(t *testing.T) {
	target := linkIDs(9, 10, 11)
	for _, order := range [][][]topology.LinkID{
		{linkIDs(9, 11), linkIDs(10, 11)},
		{linkIDs(10, 11), linkIDs(9, 11)},
	} {
		c := New(0)
		for _, u := range order {
			insertUniverse(c, testPrefix, u, nil)
		}
		base, ok := c.findDeltaBase(testPrefix, target)
		if !ok || !slices.Equal(base.Universe, linkIDs(10, 11)) {
			t.Fatalf("insert order %v: base %v (found %v), want [10 11]", order, base.Universe, ok)
		}
	}
}

// TestDeltaBaseSmallestDiffWinsWhateverLRU pins the primary rule: a
// base one link short beats one three links short, although the latter
// has the smaller key, whichever of them is most recently used.
func TestDeltaBaseSmallestDiffWinsWhateverLRU(t *testing.T) {
	target := linkIDs(1, 2, 3, 4, 5)
	near, far := linkIDs(1, 2, 3, 4), linkIDs(1, 2)
	for _, front := range [][]topology.LinkID{near, far} {
		c := New(0)
		insertUniverse(c, testPrefix, near, nil)
		insertUniverse(c, testPrefix, far, nil)
		touch(c, testPrefix, front)
		base, ok := c.findDeltaBase(testPrefix, target)
		if !ok || !slices.Equal(base.Universe, near) {
			t.Fatalf("LRU front %v: base %v (found %v), want %v", front, base.Universe, ok, near)
		}
	}
}

// fuzzLinkPool maps a universe bit to a link. Links 64..71 share mask
// bits with 0..7, so the mask prefilter sees collisions only the exact
// subset check can settle.
func fuzzLinkPool(bit int) topology.LinkID {
	return topology.LinkID(bit%8 + 64*(bit/8))
}

// fuzzUniverse decodes two bytes into a canonical universe over the
// 16-link pool.
func fuzzUniverse(lo, hi byte) []topology.LinkID {
	var ids []topology.LinkID
	bits := int(lo) | int(hi)<<8
	for b := 0; b < 16; b++ {
		if bits&(1<<b) != 0 {
			ids = append(ids, fuzzLinkPool(b))
		}
	}
	return canonicalUniverse(ids)
}

// FuzzDeltaBaseIndex drives the delta-base index through decoded
// sequences of inserts under two prefixes, LRU touches and lookups,
// with a byte budget small enough that inserts evict. Each op is four
// bytes: kind, universe (two bytes), family size. On every lookup the
// index must return exactly the base the reference scan over the LRU
// list returns, and after every op the buckets must hold exactly the
// live entries.
func FuzzDeltaBaseIndex(f *testing.F) {
	f.Add([]byte{5, 0, 0x0f, 0, 0, 0, 0x1f, 0, 0, 2, 0x1f, 0, 0})
	f.Add([]byte{9, 0, 0x03, 0, 1, 0, 0x03, 0, 1, 0, 0x07, 0x01, 2, 2, 0x0f, 0x01, 0, 3, 0x03, 0, 0})
	f.Add([]byte{1, 0, 0xff, 0, 3, 0, 0x01, 0, 3, 2, 0xff, 0xff, 0, 2, 0xff, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Budget 600..3150 bytes: an empty-family entry charges about
		// 150, and each set 48 more.
		c := New(600 + 10*int64(data[0]))
		prefixes := [2]string{"a|l0|u", "b|l0|u"}
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			prefix := prefixes[ops[0]>>7]
			universe := fuzzUniverse(ops[1], ops[2])
			switch ops[0] % 4 {
			case 0, 1:
				insertUniverse(c, prefix, universe, make([]indepset.Set, ops[3]%16))
			case 2:
				got, gotOK := c.findDeltaBase(prefix, universe)
				want, wantOK := scanDeltaBase(c, prefix, universe)
				if gotOK != wantOK || !slices.Equal(got.Universe, want.Universe) || len(got.Sets) != len(want.Sets) {
					t.Fatalf("lookup %v under %q: index %v (found %v), scan %v (found %v)",
						universe, prefix, got.Universe, gotOK, want.Universe, wantOK)
				}
			case 3:
				touch(c, prefix, universe)
			}
			checkIndex(t, c)
		}
	})
}

// BenchmarkFindDeltaBase times one delta-base lookup against a cache
// of 100, 1,000 and 4,000 families of one model: universes of 20 to 40
// links drawn from 120, each lookup a target one or two links larger
// than some cached universe. With the size-bucketed index the cost
// follows the bucket, not the cache.
func BenchmarkFindDeltaBase(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c := New(1 << 40)
			targets := make([][]topology.LinkID, 0, 64)
			for i := 0; i < n; i++ {
				perm := rng.Perm(120)
				u := canonicalUniverse(linkIDs(perm[:20+rng.Intn(21)]...))
				insertUniverse(c, testPrefix, u, nil)
				if len(targets) < cap(targets) {
					grow := 1 + rng.Intn(2)
					targets = append(targets, canonicalUniverse(append(slices.Clone(u), linkIDs(perm[len(u):len(u)+grow]...)...)))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.findDeltaBase(testPrefix, targets[i%len(targets)]); !ok {
					b.Fatal("no base for a grown universe")
				}
			}
		})
	}
}
