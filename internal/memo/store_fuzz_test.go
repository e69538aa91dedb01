package memo

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

// fuzzStoreRates is the rate alphabet fuzzed families draw from.
var fuzzStoreRates = []radio.Rate{54, 36, 18, 6}

// fuzzStoreFamily decodes a canonical set family from raw bytes: links
// strictly ascending within each set, sets strictly ascending in family
// order (conflict.CompareCouples) — exactly the invariants a complete
// enumeration guarantees and decodeFamily enforces.
func fuzzStoreFamily(data []byte) []indepset.Set {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nsets := int(next()) % 9
	sets := make([]indepset.Set, 0, nsets)
	for i := 0; i < nsets; i++ {
		ncouples := 1 + int(next())%4
		couples := make([]conflict.Couple, 0, ncouples)
		link := topology.LinkID(0)
		for j := 0; j < ncouples; j++ {
			link += 1 + topology.LinkID(next())%5
			couples = append(couples, conflict.Couple{
				Link: link,
				Rate: fuzzStoreRates[int(next())%len(fuzzStoreRates)],
			})
		}
		sets = append(sets, indepset.NewSet(couples...))
	}
	slices.SortFunc(sets, func(a, b indepset.Set) int { return conflict.CompareCouples(a.Couples, b.Couples) })
	dedup := sets[:0]
	for i, s := range sets {
		if i == 0 || conflict.CompareCouples(s.Couples, sets[i-1].Couples) != 0 {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

// FuzzStoreRoundTrip pins the two properties DESIGN.md Sec. 11 demands
// of the on-disk family format:
//
//  1. round trip — a spilled family reloads byte-identical (decode
//     then re-encode reproduces the blob exactly); and
//  2. rejection — any single corrupted byte, any alien key, and any
//     arbitrary byte soup are rejected by revalidation with an error,
//     never a panic and never a silently wrong family.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 2, 1, 1, 2, 0, 3}, uint32(0), byte(0x01))
	f.Add([]byte{0}, uint32(7), byte(0xFF))
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint32(40), byte(0))
	f.Add([]byte(storeMagic), uint32(3), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, corruptAt uint32, mask byte) {
		key := fmt.Sprintf("fuzz:%d:%x", len(data), mask)
		sets := fuzzStoreFamily(data)
		// Any count >= len(sets) is valid; derive one from the fuzz input
		// so the explored field itself gets fuzzed.
		explored := int64(len(sets)) + int64(corruptAt%1024)

		blob := encodeFamily(key, sets, explored)
		decoded, decodedExplored, err := decodeFamily(key, blob)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(decoded) != len(sets) {
			t.Fatalf("reload: %d sets, stored %d", len(decoded), len(sets))
		}
		if decodedExplored != explored {
			t.Fatalf("reload: explored %d, stored %d", decodedExplored, explored)
		}
		for i := range sets {
			if decoded[i].Key() != sets[i].Key() {
				t.Fatalf("set %d: reload key %q, stored %q", i, decoded[i].Key(), sets[i].Key())
			}
		}
		if again := encodeFamily(key, decoded, decodedExplored); !bytes.Equal(again, blob) {
			t.Fatal("decode/re-encode is not byte-identical")
		}

		// Any single flipped byte must fail revalidation: the checksum
		// covers everything after itself, and corrupting the checksum
		// or magic is caught directly.
		corrupted := append([]byte(nil), blob...)
		m := mask
		if m == 0 {
			m = 0xFF
		}
		corrupted[int(corruptAt)%len(corrupted)] ^= m
		if _, _, err := decodeFamily(key, corrupted); err == nil {
			t.Fatalf("corrupted byte %d (mask %#x) accepted", int(corruptAt)%len(blob), m)
		}

		// A valid blob under a different key is alien, not reusable.
		if _, _, err := decodeFamily(key+"'", blob); err == nil {
			t.Fatal("blob accepted under an alien key")
		}

		// Arbitrary byte soup must never panic.
		if got, _, err := decodeFamily(key, data); err == nil && len(data) < storeHeaderLen {
			t.Fatalf("undersized blob accepted: %d sets", len(got))
		}
	})
}
