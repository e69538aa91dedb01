package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/radio"
	"abw/internal/topology"
)

// fuzzInput hands out fuzz input bytes, then zeros once exhausted, so
// every input decodes to some sequence.
type fuzzInput []byte

func (b *fuzzInput) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// decodePath decodes a simple path of one to three hops: a start link,
// then a hop count and each next link among those leaving the path's
// head toward an unvisited node.
func decodePath(in *fuzzInput, net *topology.Network) topology.Path {
	links := net.Links()
	if len(links) == 0 {
		return nil
	}
	l := links[int(in.next())%len(links)]
	path := topology.Path{l.ID}
	visited := map[topology.NodeID]bool{l.Tx: true, l.Rx: true}
	for hops := in.next() % 3; hops > 0; hops-- {
		var next []topology.Link
		for _, c := range links {
			if c.Tx == l.Rx && !visited[c.Rx] {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			break
		}
		l = next[int(in.next())%len(next)]
		path = append(path, l.ID)
		visited[l.Rx] = true
	}
	return path
}

// FuzzSessionMatchesCold decodes a small random topology and a
// sequence of admit, delete and query steps, and replays it under three
// models of the topology: the physical model, a rate table holding the
// protocol model's pairwise verdicts, and the protocol model with every
// link fixed at one rate, which has no fingerprint, so all its cache
// lookups bypass. After every step the cache-backed Session.Background
// of the active flows must be the cold SolveBackgroundContext's: the
// same verdict, the same schedule (slot set keys and bit-identical
// shares) and bit-identical idle ratios, naming U_bg but retaining no
// set family; Eq. 6 for the step's query path must agree with the
// cold Background's within sessionTol, and with the package-level
// two-phase AvailableBandwidthContext, the reference that shares no
// basis with either, as assertSameOptimum checks (the same LP and sets,
// bandwidth within 1e-9 relative, a feasible schedule); and a flow list
// seen before must be a memo hit returning the same Background.
func FuzzSessionMatchesCold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 7, 0, 3, 1, 2, 9, 0, 5, 2, 1, 4, 1, 0, 7, 0, 2, 2, 8})
	f.Add([]byte{4, 11, 0, 1, 2, 0, 15, 2, 0, 6, 1, 0, 0, 1, 3, 2, 0, 9, 2, 1, 1, 5, 0})
	f.Add([]byte{1, 3, 0, 9, 0, 1, 3, 0, 9, 0, 1, 2, 1, 0, 4, 0, 0, 9, 0, 1, 2, 1})
	// Admits a flow that makes the background unschedulable, deletes
	// it and admits it again.
	f.Add([]byte{4, 0, 0, 2, 2, 1, 1, 15, 2, 0, 0, 5, 2, 0, 1, 15, 5, 0, 1, 1, 2, 0, 0, 5, 2, 0, 1, 15, 3, 0, 2, 1, 0, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 350, H: 350}, 4+int(in.next()%5), int64(in.next())+1)
		if err != nil || net.NumLinks() == 0 {
			return
		}
		steps := []byte(in)
		prot := conflict.NewProtocol(net)
		for _, m := range []conflict.Model{conflict.NewPhysical(net), protocolTable(net, prot), fixedAtTopRate(net, prot)} {
			in := fuzzInput(steps)
			sess := NewSession(m, Options{Cache: memo.New(0)})
			seen := map[string]*Background{}
			var flows []Flow
			for step := 0; step < 6; step++ {
				switch op := in.next() % 3; {
				case op == 0 && len(flows) < 4:
					path := decodePath(&in, net)
					flows = append(slices.Clip(flows), Flow{Path: path, Demand: float64(1+in.next()%16) / 8})
				case op == 1 && len(flows) > 0:
					i := int(in.next()) % len(flows)
					flows = slices.Delete(slices.Clone(flows), i, i+1)
				}
				label := fmt.Sprintf("%T step %d, flows %v", m, step, flows)
				assertSessionMatchesCold(t, net, m, sess, flows, decodePath(&in, net), seen, label)
			}
		}
	})
}

// protocolTable returns a rate table over the network's links holding
// the protocol model's verdict on every pair of couples.
func protocolTable(net *topology.Network, prot *conflict.Protocol) *conflict.Table {
	tb := conflict.NewTable()
	links := net.Links()
	for _, l := range links {
		tb.SetRates(l.ID, prot.Rates(l.ID)...)
	}
	for i, a := range links {
		for _, b := range links[i+1:] {
			for _, ra := range prot.Rates(a.ID) {
				for _, rb := range prot.Rates(b.ID) {
					if !prot.RateClears(a.ID, ra, conflict.Couple{Link: b.ID, Rate: rb}) || !prot.RateClears(b.ID, rb, conflict.Couple{Link: a.ID, Rate: ra}) {
						if err := tb.AddConflict(a.ID, ra, b.ID, rb); err != nil {
							panic(err) // both links are declared above
						}
					}
				}
			}
		}
	}
	return tb
}

// fixedAtTopRate pins every link of the network to its highest
// protocol-model rate.
func fixedAtTopRate(net *topology.Network, prot *conflict.Protocol) *conflict.FixedRates {
	var pins []conflict.Couple
	for _, l := range net.Links() {
		if rs := prot.Rates(l.ID); len(rs) > 0 {
			pins = append(pins, conflict.Couple{Link: l.ID, Rate: slices.Max(rs)})
		}
	}
	return conflict.FixRates(prot, pins)
}

// assertSessionMatchesCold checks one step of FuzzSessionMatchesCold.
func assertSessionMatchesCold(t *testing.T, net *topology.Network, m conflict.Model, sess *Session, flows []Flow, path topology.Path, seen map[string]*Background, label string) {
	t.Helper()
	ctx := context.Background()
	span := obs.NewSpan("")
	got, err := sess.Background(obs.WithSpan(ctx, span), flows)
	if err != nil {
		t.Fatalf("%s: session: %v", label, err)
	}
	want, err := SolveBackgroundContext(ctx, m, flows, Options{})
	if err != nil {
		t.Fatalf("%s: cold: %v", label, err)
	}
	key := fmt.Sprint(flows)
	if prev := seen[key]; prev != nil {
		if got != prev || sessionOutcomes(span)["hit"] != 1 {
			t.Fatalf("%s: a repeated flow list was not a memo hit (outcomes %v)", label, sessionOutcomes(span))
		}
	}
	seen[key] = got
	assertNamesBaseOnly(t, got, want, label)
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v, cold %v", label, got.Feasible, want.Feasible)
	}
	gs, ws := got.Schedule.Slots, want.Schedule.Slots
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d slots, cold %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if gs[i].Set.Key() != ws[i].Set.Key() || math.Float64bits(gs[i].Share) != math.Float64bits(ws[i].Share) {
			t.Fatalf("%s: slot %d is %v@%v, cold %v@%v", label, i, gs[i].Set.Key(), gs[i].Share, ws[i].Set.Key(), ws[i].Share)
		}
	}
	gi, wi := got.IdleRatios(net), want.IdleRatios(net)
	if !slices.EqualFunc(gi, wi, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: idle ratios %v, cold %v", label, gi, wi)
	}

	gr, err := got.AvailableBandwidthContext(ctx, path)
	if err != nil {
		t.Fatalf("%s: session Eq. 6 over %v: %v", label, path, err)
	}
	wr, err := want.AvailableBandwidthContext(ctx, path)
	if err != nil {
		t.Fatalf("%s: cold Eq. 6 over %v: %v", label, path, err)
	}
	if gr.Status != wr.Status {
		t.Fatalf("%s: Eq. 6 over %v: status %v, cold %v", label, path, gr.Status, wr.Status)
	}
	if gr.Status == lp.Optimal && math.Abs(gr.Bandwidth-wr.Bandwidth) > sessionTol {
		t.Fatalf("%s: Eq. 6 over %v: %.12g, cold %.12g", label, path, gr.Bandwidth, wr.Bandwidth)
	}
	ref, err := AvailableBandwidthContext(ctx, m, flows, path, Options{})
	if err != nil {
		t.Fatalf("%s: two-phase Eq. 6 over %v: %v", label, path, err)
	}
	assertSameOptimum(t, fmt.Sprintf("%s: Eq. 6 over %v vs two-phase", label, path), gr, ref, flows, path)
}

// assertNamesBaseOnly checks that a memoized background names U_bg,
// as the cold background does, but retains no set family: Eq. 6 takes
// the family from the cache.
func assertNamesBaseOnly(t *testing.T, got, want *Background, label string) {
	t.Helper()
	if !slices.Equal(got.base.Universe, want.base.Universe) {
		t.Fatalf("%s: background base over %v, cold over %v", label, got.base.Universe, want.base.Universe)
	}
	if got.base.Sets != nil {
		t.Fatalf("%s: the memoized background retains a set family", label)
	}
}

// sessionOutcomes returns the span's session-stage outcome counts.
func sessionOutcomes(span *obs.Span) map[string]int64 {
	for _, rec := range span.Trace().Stages {
		if rec.Stage == obs.StageSession {
			return rec.Cache
		}
	}
	return nil
}
