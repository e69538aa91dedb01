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
// sequence of admit, delete and query steps. After every step the
// cache-backed Session.Background of the active flows must be the cold
// SolveBackgroundContext's: the same verdict, the same schedule (slot
// set keys and bit-identical shares) and bit-identical idle ratios,
// with no set family retained; Eq. 6 for the step's query path must
// agree within sessionTol; and a flow list seen before must be a memo
// hit returning the same Background.
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
		m := conflict.NewPhysical(net)
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
			label := fmt.Sprintf("step %d, flows %v", step, flows)
			assertSessionMatchesCold(t, net, m, sess, flows, decodePath(&in, net), seen, label)
		}
	})
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
	if got.base != nil {
		t.Fatalf("%s: the memoized background retains a set family", label)
	}
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
