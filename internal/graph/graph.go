// Package graph provides the routing-substrate algorithms used by the
// QoS routing layer: Dijkstra shortest paths under pluggable additive
// link weights, Yen's k-shortest loopless paths, and reachability
// queries. It operates on any network exposing the topology.Network
// adjacency surface.
package graph

import (
	"fmt"
	"math"
	"sync"

	"abw/internal/topology"
)

// Network is the adjacency surface the algorithms need; it is satisfied
// by *topology.Network.
type Network interface {
	NumNodes() int
	OutLinks(topology.NodeID) []topology.LinkID
	// OutLinksView is OutLinks without the copy; the search loop only
	// reads it.
	OutLinksView(topology.NodeID) []topology.LinkID
	Link(topology.LinkID) (topology.Link, error)
}

var _ Network = (*topology.Network)(nil)

// Weight computes the additive cost of traversing a link. Return
// math.Inf(1) to exclude the link from consideration.
type Weight func(topology.Link) float64

// HopWeight is the unit weight: shortest path = fewest hops.
func HopWeight(topology.Link) float64 { return 1 }

// ErrNoPath is returned when the destination is unreachable under the
// given weight.
var ErrNoPath = fmt.Errorf("graph: no path")

// search is one Dijkstra run's working memory, indexed by node and
// pooled across runs so a search allocates only the path it returns.
type search struct {
	dist []float64
	prev []topology.LinkID
	done []bool
	pos  []int             // heap index of a queued node, -1 otherwise
	heap []topology.NodeID // binary min-heap on dist
	rev  []topology.LinkID // the path back from dst
}

var searches = sync.Pool{New: func() any { return new(search) }}

// reset sizes the memory for n nodes and clears it.
func (q *search) reset(n int) {
	if cap(q.dist) < n {
		q.dist = make([]float64, n)
		q.prev = make([]topology.LinkID, n)
		q.done = make([]bool, n)
		q.pos = make([]int, n)
	}
	q.dist, q.prev, q.done, q.pos = q.dist[:n], q.prev[:n], q.done[:n], q.pos[:n]
	for i := range q.dist {
		q.dist[i] = math.Inf(1)
		q.prev[i] = -1
		q.done[i] = false
		q.pos[i] = -1
	}
	q.heap = q.heap[:0]
	q.rev = q.rev[:0]
}

// The heap operations below are container/heap's Push, Pop, Fix, up
// and down over a typed slice, step for step, so equal-cost ties
// resolve in the same order.

func (q *search) less(i, j int) bool { return q.dist[q.heap[i]] < q.dist[q.heap[j]] }

func (q *search) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = i
	q.pos[q.heap[j]] = j
}

func (q *search) push(v topology.NodeID) {
	q.pos[v] = len(q.heap)
	q.heap = append(q.heap, v)
	q.up(len(q.heap) - 1)
}

func (q *search) pop() topology.NodeID {
	n := len(q.heap) - 1
	q.swap(0, n)
	q.down(0, n)
	v := q.heap[n]
	q.heap = q.heap[:n]
	q.pos[v] = -1
	return v
}

func (q *search) fix(i int) {
	if !q.down(i, len(q.heap)) {
		q.up(i)
	}
}

func (q *search) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *search) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

// ShortestPath returns a minimum-weight path from src to dst and its
// total weight. It returns ErrNoPath if dst is unreachable.
func ShortestPath(g Network, src, dst topology.NodeID, w Weight) (topology.Path, float64, error) {
	return shortestPathConstrained(g, src, dst, w, nil, nil)
}

// shortestPathConstrained is Dijkstra with optional excluded links and
// nodes (the spur machinery of Yen's algorithm). Excluded nodes may
// still be used as src.
func shortestPathConstrained(
	g Network,
	src, dst topology.NodeID,
	w Weight,
	excludedLinks map[topology.LinkID]bool,
	excludedNodes map[topology.NodeID]bool,
) (topology.Path, float64, error) {
	n := g.NumNodes()
	if int(src) >= n || src < 0 || int(dst) >= n || dst < 0 {
		return nil, 0, fmt.Errorf("graph: node out of range (src=%d dst=%d n=%d)", src, dst, n)
	}
	if src == dst {
		return nil, 0, fmt.Errorf("graph: src equals dst (%d)", src)
	}

	q := searches.Get().(*search)
	defer searches.Put(q)
	q.reset(n)
	q.dist[src] = 0
	q.push(src)
	for len(q.heap) > 0 {
		cur := q.pop()
		q.done[cur] = true
		if cur == dst {
			break
		}
		// Each link is weighed at most once: only when its transmitter
		// settles, and only while its receiver is unsettled.
		for _, lid := range g.OutLinksView(cur) {
			if excludedLinks[lid] {
				continue
			}
			link, err := g.Link(lid)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
			}
			if excludedNodes[link.Rx] || q.done[link.Rx] {
				continue
			}
			lw := w(link)
			if math.IsInf(lw, 1) || math.IsNaN(lw) {
				continue
			}
			if lw < 0 {
				return nil, 0, fmt.Errorf("graph: negative weight %g on link %d", lw, lid)
			}
			if nd := q.dist[cur] + lw; nd < q.dist[link.Rx] {
				q.dist[link.Rx] = nd
				q.prev[link.Rx] = lid
				if i := q.pos[link.Rx]; i >= 0 {
					q.fix(i)
				} else {
					q.push(link.Rx)
				}
			}
		}
	}

	if math.IsInf(q.dist[dst], 1) {
		return nil, 0, ErrNoPath
	}
	// Walk predecessors back to src.
	for at := dst; at != src; {
		lid := q.prev[at]
		link, err := g.Link(lid)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
		}
		q.rev = append(q.rev, lid)
		at = link.Tx
	}
	path := make(topology.Path, len(q.rev))
	for i, lid := range q.rev {
		path[len(path)-1-i] = lid
	}
	return path, q.dist[dst], nil
}

// PathWeight sums w over the links of path.
func PathWeight(g Network, path topology.Path, w Weight) (float64, error) {
	total := 0.0
	for _, lid := range path {
		link, err := g.Link(lid)
		if err != nil {
			return 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
		}
		total += w(link)
	}
	return total, nil
}

// Reachable returns, for every node, whether it is reachable from src
// via links of finite weight.
func Reachable(g Network, src topology.NodeID, w Weight) []bool {
	n := g.NumNodes()
	seen := make([]bool, n)
	if src < 0 || int(src) >= n {
		return seen
	}
	seen[src] = true
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, lid := range g.OutLinks(cur) {
			link, err := g.Link(lid)
			if err != nil {
				continue
			}
			if math.IsInf(w(link), 1) {
				continue
			}
			if !seen[link.Rx] {
				seen[link.Rx] = true
				queue = append(queue, link.Rx)
			}
		}
	}
	return seen
}

// Connected reports whether every node is reachable from node 0.
func Connected(g Network) bool {
	for _, ok := range Reachable(g, 0, HopWeight) {
		if !ok {
			return false
		}
	}
	return true
}
