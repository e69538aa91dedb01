package topology

import (
	"math"
	"testing"

	"abw/internal/geom"
	"abw/internal/radio"
)

func testProfile() *radio.Profile {
	return radio.NewProfile80211a()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Error("nil profile: expected error")
	}
	if _, err := New(testProfile(), nil); err == nil {
		t.Error("no positions: expected error")
	}
}

func TestTwoNodeNetwork(t *testing.T) {
	net, err := New(testProfile(), []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", net.NumNodes())
	}
	if net.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2 (both directions)", net.NumLinks())
	}
	id, ok := net.LinkBetween(0, 1)
	if !ok {
		t.Fatal("no link 0->1")
	}
	l := net.MustLink(id)
	if l.MaxRate != 54 {
		t.Errorf("50m link MaxRate = %v, want 54", l.MaxRate)
	}
	if math.Abs(l.Dist-50) > 1e-12 {
		t.Errorf("Dist = %g, want 50", l.Dist)
	}
}

func TestLinkRatesByDistance(t *testing.T) {
	tests := []struct {
		name    string
		spacing float64
		want    radio.Rate
	}{
		{"54 zone", 50, 54},
		{"36 zone", 70, 36},
		{"18 zone", 100, 18},
		{"6 zone", 150, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net, err := New(testProfile(), []geom.Point{{X: 0, Y: 0}, {X: tt.spacing, Y: 0}})
			if err != nil {
				t.Fatal(err)
			}
			id, ok := net.LinkBetween(0, 1)
			if !ok {
				t.Fatal("no link")
			}
			if got := net.MustLink(id).MaxRate; got != tt.want {
				t.Errorf("MaxRate at %gm = %v, want %v", tt.spacing, got, tt.want)
			}
		})
	}
}

func TestOutOfRangeNodesGetNoLink(t *testing.T) {
	net, err := New(testProfile(), []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLinks() != 0 {
		t.Errorf("NumLinks = %d, want 0 for 200m spacing", net.NumLinks())
	}
	if _, ok := net.LinkBetween(0, 1); ok {
		t.Error("LinkBetween should report no link")
	}
}

func TestOutInLinks(t *testing.T) {
	// Three nodes in a line, 50m apart: 0-1, 1-2 in range; 0-2 at 100m
	// also in range (18 Mbps).
	net, err := New(testProfile(), geom.LinePoints(3, 50))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.OutLinks(0)); got != 2 {
		t.Errorf("node 0 out-links = %d, want 2", got)
	}
	if got := len(net.InLinks(1)); got != 2 {
		t.Errorf("node 1 in-links = %d, want 2", got)
	}
	if got := net.OutLinks(NodeID(99)); got != nil {
		t.Errorf("OutLinks(out of range) = %v, want nil", got)
	}
}

func TestPathRoundTrip(t *testing.T) {
	net, path, err := Chain(testProfile(), 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("chain path has %d links, want 4", len(path))
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2, 3, 4}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("node %d = %v, want %v", i, nodes[i], want[i])
		}
	}
	back, err := net.PathFromNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range path {
		if back[i] != path[i] {
			t.Errorf("link %d = %v, want %v", i, back[i], path[i])
		}
	}
}

func TestPathFromNodesErrors(t *testing.T) {
	net, _, err := Chain(testProfile(), 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.PathFromNodes([]NodeID{0}); err == nil {
		t.Error("single-node path: expected error")
	}
	// Node 0 -> node 0 has no self link.
	if _, err := net.PathFromNodes([]NodeID{0, 0}); err == nil {
		t.Error("self loop: expected error")
	}
}

func TestPathNodesBrokenChain(t *testing.T) {
	net, err := New(testProfile(), geom.LinePoints(4, 50))
	if err != nil {
		t.Fatal(err)
	}
	l01, _ := net.LinkBetween(0, 1)
	l23, _ := net.LinkBetween(2, 3)
	if err := net.ValidatePath(Path{l01, l23}); err == nil {
		t.Error("disconnected link sequence: expected error")
	}
	if err := net.ValidatePath(Path{}); err == nil {
		t.Error("empty path: expected error")
	}
	if err := net.ValidatePath(Path{LinkID(9999)}); err == nil {
		t.Error("bogus link id: expected error")
	}
}

func TestLinkUnion(t *testing.T) {
	p1 := Path{LinkID(3), LinkID(1)}
	p2 := Path{LinkID(1), LinkID(2)}
	got := LinkUnion(p1, p2)
	want := []LinkID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("LinkUnion = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("LinkUnion[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(testProfile(), geom.Rect{W: 400, H: 600}, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(testProfile(), geom.Rect{W: 400, H: 600}, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed produced different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
}

func TestChainErrors(t *testing.T) {
	if _, _, err := Chain(testProfile(), 0, 50); err == nil {
		t.Error("zero hops: expected error")
	}
	if _, _, err := Chain(testProfile(), 2, 500); err == nil {
		t.Error("spacing beyond range: expected error")
	}
}

func TestNodeLinkAccessors(t *testing.T) {
	net, _, err := Chain(testProfile(), 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Node(NodeID(-1)); err == nil {
		t.Error("Node(-1): expected error")
	}
	if _, err := net.Link(LinkID(999)); err == nil {
		t.Error("Link(999): expected error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLink(999) should panic")
		}
	}()
	net.MustLink(LinkID(999))
}
