package memo

import (
	"context"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

// FuzzCacheKey decodes a rate-table conflict model from raw bytes and
// asserts the two properties DESIGN.md Sec. 10 pins on the cache key:
//
//  1. order-insensitivity — the key does not depend on the order the
//     table was declared in, nor on the order (or duplication) of the
//     universe slice; and
//  2. injectivity on perturbations — flipping any single declared rate
//     or conflict pair, or dropping a universe link, changes the key.
//
// Together these are exactly "equal inputs share an entry, different
// inputs never do" exercised over machine-generated tables rather than
// the handful of hand-built ones in the property tests.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte{3, 0b011, 0b101, 0b110, 1, 0x12, 2, 0x23})
	f.Add([]byte{2, 0b001, 0b111, 0, 0x01})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 0x12, 0x34, 0x15, 0x25, 0x13, 0x24})
	f.Add([]byte{1, 0b111, 0})
	f.Add([]byte{4, 0b1111, 0b1111, 0b1111, 0b1111, 3, 0x12, 0x21, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ok := decodeTableSpec(data)
		if !ok {
			return
		}
		opts := indepset.Options{}
		base := spec.build(false)
		keyBase, okKey := Key(base, spec.universe(), opts)
		if !okKey {
			t.Fatal("table model must be fingerprintable")
		}

		// 1a. Declaration order must not matter.
		if k, _ := Key(spec.build(true), spec.universe(), opts); k != keyBase {
			t.Fatalf("key depends on declaration order: %q vs %q", k, keyBase)
		}
		// 1b. Universe order and duplication must not matter.
		uni := spec.universe()
		rev := make([]topology.LinkID, len(uni))
		for i, l := range uni {
			rev[len(uni)-1-i] = l
		}
		dup := append(append([]topology.LinkID{}, rev...), uni...)
		if k, _ := Key(base, dup, opts); k != keyBase {
			t.Fatalf("key depends on universe order: %q vs %q", k, keyBase)
		}

		// 2a. Flipping one rate must change the key.
		if mut, changed := spec.mutateRate(); changed {
			if k, _ := Key(mut.build(false), mut.universe(), opts); k == keyBase {
				t.Fatal("rate flip did not change the key")
			}
		}
		// 2b. Flipping one conflict pair must change the key.
		if mut, changed := spec.mutateConflict(); changed {
			if k, _ := Key(mut.build(false), mut.universe(), opts); k == keyBase {
				t.Fatal("conflict flip did not change the key")
			}
		}
		// 2c. Shrinking the universe must change the key.
		if len(uni) > 1 {
			if k, _ := Key(base, uni[:len(uni)-1], opts); k == keyBase {
				t.Fatal("dropped universe link did not change the key")
			}
		}
		// 2d. A different enumeration limit must change the key.
		if k, _ := Key(base, uni, indepset.Options{Limit: 3}); k == keyBase {
			t.Fatal("enumeration limit not part of the key")
		}
	})
}

// FuzzGrowMatchesEnumerate decodes a small model, a byte budget small
// enough to evict, and a sequence of grows. The header is three bytes:
// model kind (even: a physical network of 4 to 6 nodes; odd: a rate
// table decoded from the next 13 bytes), network seed, and budget.
// Each grow is two bytes: a target universe (a bit per link of the
// model's first eight) and a base universe inside it. The base family
// comes through the cache too (a grow from the empty base); the grows
// take turns holding that family, naming the base by its universe
// alone, and naming no base. Every grow's family and count must equal
// a full walk's over the target; a
// grow the cache retained must hit on repeat; and the counter identity
// must hold after every lookup.
func FuzzGrowMatchesEnumerate(f *testing.F) {
	f.Add([]byte{0, 3, 20, 0xff, 0x0f, 0x3f, 0x07, 0x1f, 0x1e, 0xff, 0x00})
	f.Add([]byte{2, 9, 2, 0x0f, 0x01, 0xff, 0xfe, 0x0f, 0x01})
	f.Add([]byte{1, 0, 10, 5, 0x0f, 0x03, 0x05, 0x0c, 0x09, 0x0a, 0x12, 0x23, 0x34, 0x45, 0x15, 0, 0, 0x3f, 0x0f, 0x3f, 0x30, 0x07, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		kind, seed, budget, ops := data[0], data[1], data[2], data[3:]
		var m conflict.Model
		var pool []topology.LinkID
		if kind%2 == 0 {
			net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 350, H: 350}, 4+int(seed%3), int64(seed)+1)
			if err != nil {
				return
			}
			m, pool = conflict.NewPhysical(net), allLinks(net)
		} else {
			if len(ops) < 13 {
				return
			}
			spec, ok := decodeTableSpec(ops[:13])
			if !ok {
				return
			}
			m, pool, ops = spec.build(false), spec.universe(), ops[13:]
		}
		universe := func(bits byte) []topology.LinkID {
			var out []topology.LinkID
			for i, l := range pool {
				if i < 8 && bits&(1<<i) != 0 {
					out = append(out, l)
				}
			}
			return out
		}

		ctx := context.Background()
		c := New(200 + 64*int64(budget))
		check := func(label string, sets []indepset.Set, explored int64, err error, links []topology.LinkID) {
			t.Helper()
			assertIdentity(t, c.Stats(), label)
			want, truncated, wantExplored, werr := indepset.EnumeratePartialCountedContext(ctx, m, links, indepset.Options{})
			if werr != nil || truncated {
				t.Fatalf("%s: reference walk of %v: truncated %v, err %v", label, links, truncated, werr)
			}
			if err != nil {
				t.Fatalf("%s over %v: %v", label, links, err)
			}
			assertFamiliesEqual(t, want, sets, label)
			if explored != wantExplored {
				t.Fatalf("%s over %v: count %d, full walk %d", label, links, explored, wantExplored)
			}
		}
		for i := 0; len(ops) >= 2; i, ops = i+1, ops[2:] {
			target, baseLinks := universe(ops[0]), universe(ops[0]&ops[1])
			bs, bx, err := c.GrowContext(ctx, m, indepset.DeltaBase{}, baseLinks, indepset.Options{})
			check("base", bs, bx, err, baseLinks)
			base := indepset.DeltaBase{Universe: canonicalUniverse(baseLinks), Sets: bs, Explored: bx}
			var sets []indepset.Set
			var explored int64
			switch i % 3 {
			case 0: // the caller holds the base's family
				sets, explored, err = c.GrowContext(ctx, m, base, target, indepset.Options{})
			case 1: // named by universe: the cache's family, if retained
				sets, explored, err = c.GrowContext(ctx, m, indepset.DeltaBase{Universe: base.Universe}, target, indepset.Options{})
			default: // no base: the base lookup just before, if retained
				sets, explored, err = c.GrowContext(ctx, m, indepset.DeltaBase{}, target, indepset.Options{})
			}
			check("grow", sets, explored, err, target)

			// The grown family is the most recent insert: retained
			// exactly when anything is (an entry over the whole budget
			// evicts everything, itself included).
			before := c.Stats()
			sets, explored, err = c.GrowContext(ctx, m, base, target, indepset.Options{})
			check("repeat", sets, explored, err, target)
			if after := c.Stats(); before.Entries > 0 && after.Hits != before.Hits+1 {
				t.Fatalf("repeat of a retained grow over %v was not a hit: %+v", target, after)
			}
		}
	})
}

// fuzzRates is the rate alphabet fuzz tables draw from; bit i of a
// link's rate mask enables fuzzRates[i].
var fuzzRates = []radio.Rate{54, 36, 18, 6}

// tableSpec is a decoded, canonicalized description of a Table model:
// per-link rate masks plus undirected all-rates conflict pairs.
type tableSpec struct {
	masks []byte   // masks[i] is the rate mask of link i+1, low 4 bits
	pairs [][2]int // 1-based link index pairs, a < b
}

// decodeTableSpec parses up to 6 links and their pairwise conflicts
// from the payload. Returns ok=false when the payload cannot name at
// least one link with at least one rate.
func decodeTableSpec(data []byte) (tableSpec, bool) {
	if len(data) < 2 {
		return tableSpec{}, false
	}
	n := 1 + int(data[0])%6
	if len(data) < 1+n {
		return tableSpec{}, false
	}
	var s tableSpec
	for i := 0; i < n; i++ {
		m := data[1+i] & 0x0f
		if m == 0 {
			m = 1
		}
		s.masks = append(s.masks, m)
	}
	seen := map[[2]int]bool{}
	for _, b := range data[1+n:] {
		a, c := 1+int(b>>4)%n, 1+int(b)%n
		if a == c {
			continue
		}
		if a > c {
			a, c = c, a
		}
		p := [2]int{a, c}
		if !seen[p] {
			seen[p] = true
			s.pairs = append(s.pairs, p)
		}
	}
	return s, true
}

func (s tableSpec) universe() []topology.LinkID {
	out := make([]topology.LinkID, len(s.masks))
	for i := range s.masks {
		out[i] = topology.LinkID(i + 1)
	}
	return out
}

func (s tableSpec) rates(i int) []radio.Rate {
	var rs []radio.Rate
	for bit, r := range fuzzRates {
		if s.masks[i]&(1<<bit) != 0 {
			rs = append(rs, r)
		}
	}
	return rs
}

// build materializes the spec as a Table; reversed declares links and
// conflicts in the opposite order to probe order-insensitivity.
func (s tableSpec) build(reversed bool) *conflict.Table {
	tab := conflict.NewTable()
	n := len(s.masks)
	for i := 0; i < n; i++ {
		idx := i
		if reversed {
			idx = n - 1 - i
		}
		tab.SetRates(topology.LinkID(idx+1), s.rates(idx)...)
	}
	for i := range s.pairs {
		idx := i
		if reversed {
			idx = len(s.pairs) - 1 - i
		}
		p := s.pairs[idx]
		a, b := topology.LinkID(p[0]), topology.LinkID(p[1])
		if reversed {
			a, b = b, a
		}
		if err := tab.AddConflictAllRates(a, b); err != nil {
			panic(err) // both links are declared above
		}
	}
	return tab
}

// mutateRate flips the lowest absent rate bit of the first link that
// has one; changed=false when every link already supports all rates.
func (s tableSpec) mutateRate() (tableSpec, bool) {
	out := s.clone()
	for i, m := range out.masks {
		for bit := 0; bit < len(fuzzRates); bit++ {
			if m&(1<<bit) == 0 {
				out.masks[i] = m | 1<<bit
				return out, true
			}
		}
	}
	return out, false
}

// mutateConflict toggles one pair: removes the first declared pair, or
// adds (1,2) when none are declared and at least two links exist.
func (s tableSpec) mutateConflict() (tableSpec, bool) {
	out := s.clone()
	if len(out.pairs) > 0 {
		out.pairs = out.pairs[1:]
		return out, true
	}
	if len(out.masks) >= 2 {
		out.pairs = append(out.pairs, [2]int{1, 2})
		return out, true
	}
	return out, false
}

func (s tableSpec) clone() tableSpec {
	out := tableSpec{masks: append([]byte{}, s.masks...)}
	out.pairs = append([][2]int{}, s.pairs...)
	return out
}
