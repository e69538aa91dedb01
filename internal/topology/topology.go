// Package topology builds the network graph of the paper's evaluation:
// nodes placed on a plane, and a directed link between every ordered pair
// of nodes that can decode at least the lowest rate from each other. Each
// link carries the maximum rate its distance supports with no
// interference (receiver-sensitivity condition of paper Eq. 1).
package topology

import (
	"fmt"
	"math/rand"
	"sync"

	"abw/internal/geom"
	"abw/internal/radio"
)

// NodeID identifies a node within one Network. IDs are dense, starting
// at 0, and index into the slice returned by Nodes.
type NodeID int

// LinkID identifies a directed link within one Network. IDs are dense,
// starting at 0, and index into the slice returned by Links.
type LinkID int

// Node is a sensor node at a fixed position.
type Node struct {
	ID  NodeID
	Pos geom.Point
}

// Link is a directed transmitter-to-receiver pair.
type Link struct {
	ID LinkID
	// Tx and Rx are the transmitter and receiver nodes.
	Tx NodeID
	Rx NodeID
	// Dist is the transmitter-receiver distance in meters.
	Dist float64
	// MaxRate is the highest rate the link supports when transmitting
	// alone (distance/sensitivity-limited; paper Sec. 2.2).
	MaxRate radio.Rate
}

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("L%d(%d->%d @%v)", l.ID, l.Tx, l.Rx, l.MaxRate)
}

// Path is a sequence of links where each link's receiver is the next
// link's transmitter.
type Path []LinkID

// Network is an immutable multirate wireless network: a radio profile, a
// set of placed nodes, and every feasible directed link between them.
type Network struct {
	profile    *radio.Profile
	nodes      []Node
	links      []Link
	out        [][]LinkID
	in         [][]LinkID
	linkByPair map[[2]NodeID]LinkID

	busyOnce sync.Once
	busy     []uint64 // BusyNodes' bitsets, busyWords per link; set by busyOnce
}

// New builds a network from node positions using the given radio
// profile. A directed link is created for every ordered pair of distinct
// nodes within the profile's maximum range.
func New(profile *radio.Profile, positions []geom.Point) (*Network, error) {
	if profile == nil {
		return nil, fmt.Errorf("topology: nil radio profile")
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("topology: no node positions")
	}
	n := &Network{
		profile:    profile,
		nodes:      make([]Node, 0, len(positions)),
		out:        make([][]LinkID, len(positions)),
		in:         make([][]LinkID, len(positions)),
		linkByPair: make(map[[2]NodeID]LinkID),
	}
	for i, p := range positions {
		n.nodes = append(n.nodes, Node{ID: NodeID(i), Pos: p})
	}
	for i := range n.nodes {
		for j := range n.nodes {
			if i == j {
				continue
			}
			d := n.nodes[i].Pos.Dist(n.nodes[j].Pos)
			rate, ok := profile.MaxRateAtDistance(d)
			if !ok {
				continue
			}
			id := LinkID(len(n.links))
			n.links = append(n.links, Link{
				ID:      id,
				Tx:      NodeID(i),
				Rx:      NodeID(j),
				Dist:    d,
				MaxRate: rate,
			})
			n.out[i] = append(n.out[i], id)
			n.in[j] = append(n.in[j], id)
			n.linkByPair[[2]NodeID{NodeID(i), NodeID(j)}] = id
		}
	}
	return n, nil
}

// Random builds a network with n nodes placed uniformly at random inside
// rect, seeded deterministically.
func Random(profile *radio.Profile, rect geom.Rect, n int, seed int64) (*Network, error) {
	rng := rand.New(rand.NewSource(seed))
	return New(profile, geom.UniformPoints(rng, rect, n))
}

// Profile returns the radio profile the network was built with.
func (n *Network) Profile() *radio.Profile { return n.profile }

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// Nodes returns all nodes. The returned slice is a copy.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// Links returns all links. The returned slice is a copy.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) (Node, error) {
	if id < 0 || int(id) >= len(n.nodes) {
		return Node{}, fmt.Errorf("topology: node %d out of range [0,%d)", id, len(n.nodes))
	}
	return n.nodes[id], nil
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) (Link, error) {
	if id < 0 || int(id) >= len(n.links) {
		return Link{}, fmt.Errorf("topology: link %d out of range [0,%d)", id, len(n.links))
	}
	return n.links[id], nil
}

// MustLink is Link for callers that have already validated the ID; it
// panics on an out-of-range ID.
func (n *Network) MustLink(id LinkID) Link {
	l, err := n.Link(id)
	if err != nil {
		panic(err)
	}
	return l
}

// LinkBetween returns the link from a to b, if one exists.
func (n *Network) LinkBetween(a, b NodeID) (LinkID, bool) {
	id, ok := n.linkByPair[[2]NodeID{a, b}]
	return id, ok
}

// OutLinks returns the links transmitted by node id. The returned slice
// is a copy.
func (n *Network) OutLinks(id NodeID) []LinkID {
	if id < 0 || int(id) >= len(n.out) {
		return nil
	}
	out := make([]LinkID, len(n.out[id]))
	copy(out, n.out[id])
	return out
}

// OutLinksView is OutLinks without the copy: the returned slice is the
// network's own and must not be modified. It is for hot read-only loops
// such as shortest-path search.
func (n *Network) OutLinksView(id NodeID) []LinkID {
	if id < 0 || int(id) >= len(n.out) {
		return nil
	}
	return n.out[id]
}

// BusyNodes returns the nodes a transmission on link id keeps busy, as
// a bitset over node IDs (bit i%64 of word i/64): the link's two
// endpoints and every node within carrier-sense range of its
// transmitter (Profile().Senses). The bitsets of all links are built
// once, on first use; the returned slice is shared and must not be
// modified. An out-of-range id yields nil.
func (n *Network) BusyNodes(id LinkID) []uint64 {
	if id < 0 || int(id) >= len(n.links) {
		return nil
	}
	n.busyOnce.Do(n.buildBusy)
	w := n.BusyWords()
	return n.busy[int(id)*w : (int(id)+1)*w]
}

// BusyWords is the length of every BusyNodes bitset.
func (n *Network) BusyWords() int { return (len(n.nodes) + 63) / 64 }

func (n *Network) buildBusy() {
	w := n.BusyWords()
	n.busy = make([]uint64, len(n.links)*w)
	for _, l := range n.links {
		set := n.busy[int(l.ID)*w : (int(l.ID)+1)*w]
		tx := n.nodes[l.Tx].Pos
		for _, nd := range n.nodes {
			if nd.ID == l.Tx || nd.ID == l.Rx || n.profile.Senses(tx.Dist(nd.Pos)) {
				set[nd.ID/64] |= 1 << (uint(nd.ID) % 64)
			}
		}
	}
}

// InLinks returns the links received by node id. The returned slice is a
// copy.
func (n *Network) InLinks(id NodeID) []LinkID {
	if id < 0 || int(id) >= len(n.in) {
		return nil
	}
	out := make([]LinkID, len(n.in[id]))
	copy(out, n.in[id])
	return out
}

// NodeDist returns the distance in meters between two nodes.
func (n *Network) NodeDist(a, b NodeID) (float64, error) {
	na, err := n.Node(a)
	if err != nil {
		return 0, err
	}
	nb, err := n.Node(b)
	if err != nil {
		return 0, err
	}
	return na.Pos.Dist(nb.Pos), nil
}

// PathFromNodes converts a node sequence into the corresponding link
// path, verifying every hop exists.
func (n *Network) PathFromNodes(nodes []NodeID) (Path, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topology: path needs at least two nodes, got %d", len(nodes))
	}
	path := make(Path, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		id, ok := n.LinkBetween(nodes[i], nodes[i+1])
		if !ok {
			return nil, fmt.Errorf("topology: no link from node %d to node %d", nodes[i], nodes[i+1])
		}
		path = append(path, id)
	}
	return path, nil
}

// PathNodes converts a link path back into its node sequence, verifying
// the links chain correctly.
func (n *Network) PathNodes(path Path) ([]NodeID, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("topology: empty path")
	}
	first, err := n.Link(path[0])
	if err != nil {
		return nil, err
	}
	nodes := make([]NodeID, 0, len(path)+1)
	nodes = append(nodes, first.Tx, first.Rx)
	for _, id := range path[1:] {
		l, err := n.Link(id)
		if err != nil {
			return nil, err
		}
		if l.Tx != nodes[len(nodes)-1] {
			return nil, fmt.Errorf("topology: link %d starts at node %d, previous hop ends at node %d",
				id, l.Tx, nodes[len(nodes)-1])
		}
		nodes = append(nodes, l.Rx)
	}
	return nodes, nil
}

// ValidatePath reports an error unless path is a well-formed chain of
// existing links.
func (n *Network) ValidatePath(path Path) error {
	_, err := n.PathNodes(path)
	return err
}

// LinkUnion returns the sorted, de-duplicated union of all links
// appearing on the given paths — the set P of the paper's Sec. 2.5.
func LinkUnion(paths ...Path) []LinkID {
	seen := make(map[LinkID]struct{})
	var out []LinkID
	for _, p := range paths {
		for _, id := range p {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	sortLinkIDs(out)
	return out
}

func sortLinkIDs(ids []LinkID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
