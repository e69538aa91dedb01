package indepset

import (
	"context"
	"errors"
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

// decodeDeltaCase decodes a delta instance: a model over at most eight
// links (a small random physical topology, or a random Table whose
// links declare any subset of three rates, possibly none), a base
// universe, 1-4 added links (possibly repeated or already in the base)
// and an enumeration limit (0 = the default).
func decodeDeltaCase(data []byte) (m conflict.Model, base, added []topology.LinkID, limit int, ok bool) {
	in := byteStream(data)
	var links []topology.LinkID
	if in.next()%2 == 0 {
		nodes := 3 + int(in.next()%5)
		net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 350, H: 350}, nodes, int64(in.next())+1)
		if err != nil {
			return nil, nil, nil, 0, false
		}
		m, links = conflict.NewPhysical(net), cappedLinks(net, 8)
	} else {
		rates := []radio.Rate{54, 36, 18}
		tb := conflict.NewTable()
		n := 2 + int(in.next()%6)
		for i := 0; i < n; i++ {
			mask := in.next()
			var rs []radio.Rate
			for k, r := range rates {
				if mask&(1<<k) != 0 {
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
								return nil, nil, nil, 0, false
							}
						}
						used++
					}
				}
			}
		}
		m = tb
	}
	if len(links) == 0 {
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

// FuzzEnumerateDelta checks the delta walk against its cold equivalent
// on decoded instances, at 1 and 2 workers: the family grown from a
// complete base equals EnumeratePartialCounted over the grown universe
// set for set by Key(), with the same exploration count, and ErrLimit
// fires on the delta exactly when the full walk truncates.
func FuzzEnumerateDelta(f *testing.F) {
	f.Add([]byte{0, 4, 7, 0x15, 3, 1, 3, 5, 7, 0})
	f.Add([]byte{0, 3, 2, 0x01, 2, 2, 4, 6, 8})
	f.Add([]byte{1, 4, 7, 3, 1, 6, 0, 0xa5, 0x5a, 0x33, 0xcc, 0x0f, 0x05, 3, 1, 2, 3, 0})
	f.Add([]byte{1, 5, 1, 2, 4, 7, 0, 3, 0x91, 0x22, 0x4c, 0x80, 0x13, 0x77, 0x0a, 3, 0, 1, 4, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, baseLinks, added, limit, ok := decodeDeltaCase(data)
		if !ok {
			return
		}
		baseU := dedupSorted(baseLinks)
		grownU := dedupSorted(append(append([]topology.LinkID(nil), baseU...), added...))
		for _, workers := range []int{1, 2} {
			opts := Options{Limit: limit, Workers: workers}
			baseSets, truncated, baseExplored, err := EnumeratePartialCounted(m, baseU, opts)
			if err != nil {
				t.Fatalf("workers %d: base walk: %v", workers, err)
			}
			if truncated {
				continue // a truncated family is never a delta base
			}
			want, wantTruncated, wantExplored, err := EnumeratePartialCounted(m, grownU, opts)
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
			if gotExplored != wantExplored {
				t.Fatalf("workers %d: delta explored %d, full walk %d", workers, gotExplored, wantExplored)
			}
		}
	})
}
