package indepset

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func set(cs ...conflict.Couple) Set { return Set{Couples: cs} }

func cp(l topology.LinkID, r radio.Rate) conflict.Couple {
	return conflict.Couple{Link: l, Rate: r}
}

// TestCompareMatchesKey checks Compare against strings.Compare over
// every pair of an edge-case table: link IDs whose digits prefix each
// other (1, 12, 100, 0), rate fragments that prefix each other in both
// formatting branches (5, 55, 5.5, 54, 1e6, 2.5e6), sets that are
// couple-prefixes of others, and equal sets.
func TestCompareMatchesKey(t *testing.T) {
	sets := []Set{
		set(),
		set(cp(1, 54)), set(cp(12, 54)), set(cp(100, 54)), set(cp(0, 54)), set(cp(10, 54)),
		set(cp(1, 54), cp(12, 6)), set(cp(12, 54), cp(100, 6)), set(cp(1, 54), cp(100, 6)),
		set(cp(3, 5)), set(cp(3, 55)), set(cp(3, 5.5)), set(cp(3, 54)),
		set(cp(3, 1e6)), set(cp(3, 2.5e6)), set(cp(3, 1)), set(cp(3, 100)),
		set(cp(3, 5), cp(7, 6)), set(cp(3, 55), cp(7, 6)), set(cp(3, 5.5), cp(7, 6)),
		set(cp(3, 54), cp(7, 6)), set(cp(3, 1), cp(7, 6)), set(cp(3, 1e6), cp(7, 6)),
		set(cp(3, 5), cp(7, 6), cp(9, 54)), set(cp(3, 5), cp(7, 6), cp(9, 5)),
		set(cp(3, 0)), set(cp(3, 0.25)), set(cp(3, 0), cp(4, 1)),
		set(cp(-1, 6)), set(cp(-12, 6)),
	}
	for _, a := range sets {
		for _, b := range sets {
			want := strings.Compare(a.Key(), b.Key())
			if got := sign(Compare(a, b)); got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
			}
		}
	}
	// Equal couples in distinct slices compare equal.
	if c := Compare(set(cp(3, 5.5), cp(7, 6)), set(cp(3, 5.5), cp(7, 6))); c != 0 {
		t.Errorf("Compare of equal sets = %d, want 0", c)
	}
	// No key is built, not even on the formatting branch.
	x, y := set(cp(3, 5.5), cp(7, 6)), set(cp(3, 2.5e6), cp(7, 6))
	if allocs := testing.AllocsPerRun(100, func() { Compare(x, y) }); allocs > 0 {
		t.Errorf("Compare allocates %v times per call, want 0", allocs)
	}
	// The key format itself is pinned: Compare is only as good as the
	// string it reproduces.
	for _, tc := range []struct {
		s    Set
		want string
	}{
		{set(cp(12, 5.5), cp(100, 1e6)), "12@5.5|100@1e+06"},
		{set(cp(0, 54), cp(3, 2.5e6)), "0@54|3@2.5e+06"},
	} {
		if got := tc.s.Key(); got != tc.want {
			t.Errorf("Key = %q, want %q", got, tc.want)
		}
	}
}

// decodeOrderSet decodes one set of at most four couples. Link IDs
// come from a table of digit-prefix neighbours or straight from a byte;
// rates from a table of fragment-prefix neighbours, a small integer, or
// raw float bits (NaN, infinities, negatives and subnormals included).
func decodeOrderSet(in *byteStream) Set {
	linkTable := []topology.LinkID{0, 1, 10, 12, 100, 101, 120, 1000, -1, -12}
	rateTable := []radio.Rate{5, 55, 5.5, 54, 1e6, 2.5e6, 0.25, 0}
	n := int(in.next() % 5)
	var s Set
	for i := 0; i < n; i++ {
		var l topology.LinkID
		if b := in.next(); b < 128 {
			l = topology.LinkID(b)
		} else {
			l = linkTable[int(b)%len(linkTable)]
		}
		var r radio.Rate
		switch b := in.next(); {
		case b < 128:
			r = rateTable[int(b)%len(rateTable)]
		case b < 192:
			r = radio.Rate(in.next())
		default:
			var bits [8]byte
			for k := range bits {
				bits[k] = in.next()
			}
			r = radio.Rate(math.Float64frombits(binary.LittleEndian.Uint64(bits[:])))
		}
		s.Couples = append(s.Couples, cp(l, r))
	}
	return s
}

// FuzzSetOrder checks, on fuzzer-chosen couples, that Compare orders
// two sets exactly as strings.Compare orders their keys, and that the
// order is antisymmetric.
func FuzzSetOrder(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 1, 1})
	f.Add([]byte{2, 129, 1, 3, 2, 2, 129, 2, 3, 1})
	f.Add([]byte{1, 3, 200, 0, 0, 0, 0, 0, 0, 248, 127, 1, 3, 200, 0, 0, 0, 0, 0, 0, 248, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		a, b := decodeOrderSet(&in), decodeOrderSet(&in)
		ab, ba := Compare(a, b), Compare(b, a)
		if want := strings.Compare(a.Key(), b.Key()); sign(ab) != want {
			t.Fatalf("Compare(%q, %q) = %d, want %d", a.Key(), b.Key(), ab, want)
		}
		if sign(ab) != -sign(ba) {
			t.Fatalf("Compare(%q, %q) = %d but reversed = %d", a.Key(), b.Key(), ab, ba)
		}
		if c := Compare(a, a); c != 0 {
			t.Fatalf("Compare(%q, itself) = %d", a.Key(), c)
		}
	})
}
