package indepset

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/topology"
)

// Enumeration micro-benchmarks, one per specialized walk. Run with
// `go test -bench=Enumerate -benchmem ./internal/indepset/` to see
// ns/op and allocs/op per path; the end-to-end query cost lives in the
// root package's BenchmarkAvailableBandwidthQuery.

func BenchmarkEnumerateScenarioII(b *testing.B) {
	s := scenario.NewScenarioII()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), s.Model, s.Links(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEnumeratePhysical(b *testing.B, hops int) {
	b.Helper()
	net, path, err := topology.Chain(radio.NewProfile80211a(), hops, 100)
	if err != nil {
		b.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), m, path, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateChain4(b *testing.B) { benchEnumeratePhysical(b, 4) }
func BenchmarkEnumerateChain8(b *testing.B) { benchEnumeratePhysical(b, 8) }

// BenchmarkEnumerateMesh measures enumeration over all links of a small
// random mesh — the worst case the Fig. 3 experiment hits per admission.
func BenchmarkEnumerateMesh(b *testing.B) {
	net, err := topology.New(radio.NewProfile80211a(),
		geom.GridPoints(9, 3, 80))
	if err != nil {
		b.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	links := make([]topology.LinkID, 0, net.NumLinks())
	for _, l := range net.Links() {
		links = append(links, l.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), m, links, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEnumerateProtocol(b *testing.B, hops int) {
	b.Helper()
	net, path, err := topology.Chain(radio.NewProfile80211a(), hops, 100)
	if err != nil {
		b.Fatal(err)
	}
	m := conflict.NewProtocol(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), m, path, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateProtocolChain and BenchmarkEnumerateProtocol
// exercise the bitmask pairwise walk with the protocol
// (interference-range) model on an 8-hop and a 12-hop chain.
func BenchmarkEnumerateProtocolChain(b *testing.B) { benchEnumerateProtocol(b, 8) }
func BenchmarkEnumerateProtocol(b *testing.B)      { benchEnumerateProtocol(b, 12) }

// BenchmarkEnumerateTableRandom exercises the bitmask pairwise walk on a
// dense random conflict table (10 links, 3 rates, 40% pair conflicts).
func BenchmarkEnumerateTableRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rates := []radio.Rate{54, 36, 18}
	tb := conflict.NewTable()
	var links []topology.LinkID
	const n = 10
	for i := topology.LinkID(0); i < n; i++ {
		tb.SetRates(i, rates...)
		links = append(links, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, ri := range rates {
				for _, rj := range rates {
					if rng.Float64() < 0.4 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), tb, links, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEnumeratePairwiseAllocs pins the allocation count of the pairwise
// walk (also visible as allocs/op under
// `go test -bench=EnumerateTableRandom -benchmem`). The clear table is
// one flat array plus its column offsets, however many links, and the
// walker's avail/member scratch is a few slices, with the per-depth
// snapshots grown by append, so per-call allocations are a small
// constant plus the returned family itself — nowhere near the old n^2
// mask slices. This walk measured ~100 allocs/op when pinned
// (dominated by the returned sets); the bound leaves noise headroom
// while still catching a per-pair regression, which would add ~100 on
// its own.
func TestEnumeratePairwiseAllocs(t *testing.T) {
	net, path, err := topology.Chain(radio.NewProfile80211a(), 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewProtocol(net)
	links := []topology.LinkID(path)
	run := func() {
		if _, err := EnumerateContext(context.Background(), m, links, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, run)
	const maxAllocs = 150
	if allocs > maxAllocs {
		t.Fatalf("sequential pairwise Enumerate: %.0f allocs/op, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkEnumerateWide exercises two-word rate masks: a random
// conflict table (40% pair conflicts) where link 0 declares 70 rates
// and six more links declare three each.
func BenchmarkEnumerateWide(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tb := conflict.NewTable()
	var wide []radio.Rate
	for r := 70; r >= 1; r-- {
		wide = append(wide, radio.Rate(r))
	}
	tb.SetRates(0, wide...)
	links := []topology.LinkID{0}
	for i := topology.LinkID(1); i <= 6; i++ {
		tb.SetRates(i, 54, 36, 18)
		links = append(links, i)
	}
	for i, li := range links {
		for _, lj := range links[i+1:] {
			for _, ri := range tb.Rates(li) {
				for _, rj := range tb.Rates(lj) {
					if rng.Float64() < 0.4 {
						if err := tb.AddConflict(li, ri, lj, rj); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), tb, links, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateSweepFig2 is the size sweep of the physical walk:
// the first k links of the Fig. 2 network (30 nodes in 400 m x 600 m,
// seed 26, 802.11a), k = 10 to 120. Compare the links=k rows with
// `go test -run '^$' -bench SweepFig2 -count 5 ./internal/indepset/`.
func BenchmarkEnumerateSweepFig2(b *testing.B) {
	net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 400, H: 600}, 30, 26)
	if err != nil {
		b.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	links := make([]topology.LinkID, 0, net.NumLinks())
	for _, l := range net.Links() {
		links = append(links, l.ID)
	}
	for k := 10; k <= 120; k += 10 {
		b.Run(fmt.Sprintf("links=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EnumerateContext(context.Background(), m, links[:k], Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
