package indepset

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// byteStream hands out fuzz input bytes, then zeros once exhausted, so
// every input decodes to some instance.
type byteStream []byte

func (b *byteStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// decodeModel decodes a conflict model and its links, at most
// maxLinks of them. The first byte picks the family — even: a small
// random topology; odd: a random Table whose links declare any subset
// of three rates, possibly none — and, in (byte/2)%3, the variant:
// Physical, Protocol or pinned Protocol; plain Table, a Table whose
// link 0 declares 65-70 rates (two mask words, at most four links to
// keep brute force tractable) or pinned Table.
func decodeModel(in *byteStream, maxLinks int) (conflict.Model, []topology.LinkID, bool) {
	b := in.next()
	variant := (b / 2) % 3
	if b%2 == 0 {
		nodes := 3 + int(in.next()%5)
		net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 350, H: 350}, nodes, int64(in.next())+1)
		if err != nil {
			return nil, nil, false
		}
		links := cappedLinks(net, maxLinks)
		if len(links) == 0 {
			return nil, nil, false
		}
		prot := conflict.NewProtocol(net)
		switch variant {
		case 0:
			return conflict.NewPhysical(net), links, true
		case 1:
			return prot, links, true
		default:
			return conflict.FixRates(prot, decodePins(in, prot, links)), links, true
		}
	}
	n := 2 + int(in.next())%(maxLinks-2)
	if variant == 1 {
		n = min(n, 4)
	}
	rates := []radio.Rate{54, 36, 18}
	tb := conflict.NewTable()
	var links []topology.LinkID
	for i := 0; i < n; i++ {
		mask := in.next()
		var rs []radio.Rate
		if i == 0 && variant == 1 {
			for r := 65 + int(mask%6); r >= 1; r-- {
				rs = append(rs, radio.Rate(r))
			}
		}
		for k, r := range rates {
			if len(rs) == 0 && mask&(1<<k) != 0 {
				rs = append(rs, r)
			}
		}
		tb.SetRates(topology.LinkID(i), rs...)
		links = append(links, topology.LinkID(i))
	}
	var bits byte
	used := 8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, ri := range tb.Rates(topology.LinkID(i)) {
				for _, rj := range tb.Rates(topology.LinkID(j)) {
					if used == 8 {
						bits, used = in.next(), 0
					}
					if bits&(1<<used) != 0 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							return nil, nil, false
						}
					}
					used++
				}
			}
		}
	}
	if variant == 2 {
		return conflict.FixRates(tb, decodePins(in, tb, links)), links, true
	}
	return tb, links, true
}

// decodePins decodes one rate assignment per link: unassigned, a rate
// the link does not declare (7 Mbps, so the link is unusable), or one
// of its declared rates.
func decodePins(in *byteStream, m conflict.Model, links []topology.LinkID) []conflict.Couple {
	var pins []conflict.Couple
	for _, l := range links {
		v := in.next()
		rs := m.Rates(l)
		switch {
		case v%4 == 0:
		case v%4 == 1 || len(rs) == 0:
			pins = append(pins, conflict.Couple{Link: l, Rate: 7})
		default:
			pins = append(pins, conflict.Couple{Link: l, Rate: rs[int(v/4)%len(rs)]})
		}
	}
	return pins
}

// decodeDeltaCase decodes a delta instance: a model over at most eight
// links (decodeModel), a base universe, 1-4 added links (possibly
// repeated or already in the base) and an enumeration limit (0 = the
// default).
func decodeDeltaCase(data []byte) (m conflict.Model, base, added []topology.LinkID, limit int, ok bool) {
	in := byteStream(data)
	m, links, ok := decodeModel(&in, 8)
	if !ok {
		return nil, nil, nil, 0, false
	}
	mask := in.next()
	for i, l := range links {
		if mask&(1<<i) != 0 {
			base = append(base, l)
		}
	}
	for k := 1 + int(in.next()%4); k > 0; k-- {
		added = append(added, links[int(in.next())%len(links)])
	}
	return m, base, added, 2 * int(in.next()), true
}

// FuzzEnumerate checks the full walk against the brute-force reference
// (referenceEnumerate) on decoded models of at most six links, at 1 and
// 2 workers: the same family, set for set by Key(), strictly ascending
// in family order. For Physical models,
// EnumeratePartialCountedContext's exploration count must also equal
// bruteExplored's, which no walk computes.
func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{0, 4, 7})
	f.Add([]byte{2, 3, 9})
	f.Add([]byte{4, 4, 7, 1, 2, 3, 5, 6, 0, 9})
	f.Add([]byte{1, 4, 7, 3, 1, 6, 0, 0xa5, 0x5a, 0x33, 0xcc, 0x0f, 0x05})
	f.Add([]byte{3, 2, 4, 7, 3, 0x91, 0x22, 0x4c, 0x80, 0x13, 0x77, 0x0a, 0x3c, 0xe1})
	f.Add([]byte{5, 3, 7, 3, 5, 2, 0x5a, 0x33, 0x81, 0x42, 2, 1, 6, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		m, links, ok := decodeModel(&in, 6)
		if !ok {
			return
		}
		want := referenceEnumerate(t, m, links)
		for _, workers := range []int{1, 2} {
			got, err := EnumerateContext(context.Background(), m, links, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if !reflect.DeepEqual(keys(got), keys(want)) {
				t.Fatalf("workers %d: walk differs from reference:\n got  %v\n want %v", workers, keys(got), keys(want))
			}
			assertStrictlySorted(t, got, fmt.Sprintf("workers %d", workers))
			if p, ok := m.(*conflict.Physical); ok {
				_, _, explored, err := EnumeratePartialCountedContext(context.Background(), m, links, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers %d: counted walk: %v", workers, err)
				}
				if want := bruteExplored(p, links); explored != want {
					t.Fatalf("workers %d: explored %d, brute force %d", workers, explored, want)
				}
			}
		}
	})
}

// bruteExplored counts what a physical walk must charge its budget:
// the non-empty subsets of the links with a positive declared rate in
// which every member has a positive Physical.MaxRate.
func bruteExplored(m *conflict.Physical, links []topology.LinkID) int64 {
	var rated []topology.LinkID
	for _, l := range dedupSorted(links) {
		if m.MinPositiveRate(l) > 0 {
			rated = append(rated, l)
		}
	}
	var count int64
	for mask := 1; mask < 1<<len(rated); mask++ {
		var cs []conflict.Couple
		for i, l := range rated {
			if mask&(1<<i) != 0 {
				// Physical.MaxRate only reads couple links.
				cs = append(cs, conflict.Couple{Link: l, Rate: 6})
			}
		}
		feasible := true
		for _, c := range cs {
			feasible = feasible && m.MaxRate(c.Link, cs) > 0
		}
		if feasible {
			count++
		}
	}
	return count
}

// FuzzEnumerateDelta checks the delta walk against its cold equivalent
// on decoded instances, at 1 and 2 workers: the family grown from a
// complete base equals EnumeratePartialCountedContext over the grown
// universe set for set by Key() and strictly ascending in family order,
// with the same exploration count, and ErrLimit fires on the delta
// exactly when the full walk truncates.
func FuzzEnumerateDelta(f *testing.F) {
	f.Add([]byte{0, 4, 7, 0x15, 3, 1, 3, 5, 7, 0})
	f.Add([]byte{0, 3, 2, 0x01, 2, 2, 4, 6, 8})
	f.Add([]byte{1, 4, 7, 3, 1, 6, 0, 0xa5, 0x5a, 0x33, 0xcc, 0x0f, 0x05, 3, 1, 2, 3, 0})
	f.Add([]byte{1, 5, 1, 2, 4, 7, 0, 3, 0x91, 0x22, 0x4c, 0x80, 0x13, 0x77, 0x0a, 3, 0, 1, 4, 5, 9})
	f.Add([]byte{2, 4, 7, 0x15, 3, 1, 3, 5, 7, 0})
	f.Add([]byte{4, 4, 7, 1, 2, 3, 5, 6, 0, 9, 0x2d, 2, 1, 4, 0})
	f.Add([]byte{3, 2, 4, 7, 3, 0x91, 0x22, 0x4c, 0x80, 0x13, 0x77, 0x0a, 0x3c, 0xe1, 0x05, 2, 1, 3, 0})
	f.Add([]byte{5, 3, 7, 3, 5, 2, 0x5a, 0x33, 0x81, 0x42, 2, 1, 6, 10, 0, 0x0b, 3, 2, 4, 6, 0})
	// Base mask 0: the delta from the empty universe is the full walk
	// (Physical, then a Table).
	f.Add([]byte{0, 4, 7, 0x00, 3, 1, 3, 5, 7, 0})
	f.Add([]byte{1, 4, 7, 3, 1, 6, 0, 0xa5, 0x5a, 0x33, 0x00, 3, 0, 1, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, baseLinks, added, limit, ok := decodeDeltaCase(data)
		if !ok {
			return
		}
		baseU := dedupSorted(baseLinks)
		grownU := dedupSorted(append(append([]topology.LinkID(nil), baseU...), added...))
		for _, workers := range []int{1, 2} {
			opts := Options{Limit: limit, Workers: workers}
			baseSets, truncated, baseExplored, err := EnumeratePartialCountedContext(context.Background(), m, baseU, opts)
			if err != nil {
				t.Fatalf("workers %d: base walk: %v", workers, err)
			}
			if truncated {
				continue // a truncated family is never a delta base
			}
			want, wantTruncated, wantExplored, err := EnumeratePartialCountedContext(context.Background(), m, grownU, opts)
			if err != nil {
				t.Fatalf("workers %d: full walk: %v", workers, err)
			}
			base := DeltaBase{Universe: baseU, Sets: baseSets, Explored: baseExplored}
			got, gotExplored, err := EnumerateDelta(context.Background(), m, base, added, opts)
			if wantTruncated {
				if !errors.Is(err, ErrLimit) || got != nil {
					t.Fatalf("workers %d: full walk truncates at limit %d, delta err = %v (%d sets)", workers, limit, err, len(got))
				}
				continue
			}
			if err != nil {
				t.Fatalf("workers %d: delta %v + %v: %v", workers, baseU, added, err)
			}
			if !reflect.DeepEqual(keys(got), keys(want)) {
				t.Fatalf("workers %d: delta %v + %v:\n got  %v\n want %v", workers, baseU, added, keys(got), keys(want))
			}
			assertStrictlySorted(t, got, fmt.Sprintf("workers %d: delta %v + %v", workers, baseU, added))
			if gotExplored != wantExplored {
				t.Fatalf("workers %d: delta explored %d, full walk %d", workers, gotExplored, wantExplored)
			}
		}
	})
}
