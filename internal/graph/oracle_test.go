package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// oracleShortestPath is the search shortestPathConstrained ran before
// it moved to pooled node-indexed memory: a map of queued items, a
// container/heap queue of boxed items, and OutLinks' copy of the
// adjacency. It is kept as the oracle the typed heap must agree with,
// ties included.
func oracleShortestPath(
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

	dist := make([]float64, n)
	prev := make([]topology.LinkID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	pq := oraclePQ{{node: src, dist: 0}}
	heap.Init(&pq)
	items := make(map[topology.NodeID]*oracleItem, n)
	items[src] = pq[0]

	for pq.Len() > 0 {
		cur := heap.Pop(&pq).(*oracleItem)
		delete(items, cur.node)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		if cur.node == dst {
			break
		}
		for _, lid := range g.OutLinks(cur.node) {
			if excludedLinks[lid] {
				continue
			}
			link, err := g.Link(lid)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
			}
			if excludedNodes[link.Rx] || done[link.Rx] {
				continue
			}
			lw := w(link)
			if math.IsInf(lw, 1) || math.IsNaN(lw) {
				continue
			}
			if lw < 0 {
				return nil, 0, fmt.Errorf("graph: negative weight %g on link %d", lw, lid)
			}
			if nd := cur.dist + lw; nd < dist[link.Rx] {
				dist[link.Rx] = nd
				prev[link.Rx] = lid
				if it, ok := items[link.Rx]; ok {
					it.dist = nd
					heap.Fix(&pq, it.idx)
				} else {
					it := &oracleItem{node: link.Rx, dist: nd}
					heap.Push(&pq, it)
					items[link.Rx] = it
				}
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return nil, 0, ErrNoPath
	}
	var rev topology.Path
	for at := dst; at != src; {
		lid := prev[at]
		link, err := g.Link(lid)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
		}
		rev = append(rev, lid)
		at = link.Tx
	}
	path := make(topology.Path, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, dist[dst], nil
}

type oracleItem struct {
	node topology.NodeID
	dist float64
	idx  int
}

type oraclePQ []*oracleItem

func (pq oraclePQ) Len() int           { return len(pq) }
func (pq oraclePQ) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq oraclePQ) Swap(i, j int) {
	pq[i], pq[j] = pq[j], pq[i]
	pq[i].idx = i
	pq[j].idx = j
}
func (pq *oraclePQ) Push(x interface{}) {
	it := x.(*oracleItem)
	it.idx = len(*pq)
	*pq = append(*pq, it)
}
func (pq *oraclePQ) Pop() interface{} {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// idleWeight is routing's average-e2eD weight (Eq. 14) over a node idle
// vector, rebuilt here because routing imports this package.
func idleWeight(idle []float64) Weight {
	return func(l topology.Link) float64 {
		lambda := math.Min(idle[l.Tx], idle[l.Rx])
		if lambda <= 0 {
			return math.Inf(1)
		}
		return 1 / (lambda * float64(l.MaxRate))
	}
}

// TestShortestPathMatchesOracle runs every ordered node pair of random
// 30-node networks through the search and the oracle, under hop,
// transmission-delay and idle-inflated weights (idle vectors uniform,
// quantized to quarters so equal-cost ties abound, and random), with
// and without Yen-style exclusions. Paths, weights and errors must be
// identical.
func TestShortestPathMatchesOracle(t *testing.T) {
	const nodes = 30
	topologies := 20
	if testing.Short() {
		topologies = 4
	}
	queries, failed := 0, 0
	for seed := int64(0); seed < int64(topologies); seed++ {
		rng := rand.New(rand.NewSource(seed))
		side := 350 + 25*float64(seed%8) // the wider fields leave some pairs unreachable
		net, err := topology.New(radio.NewProfile80211a(),
			geom.UniformPoints(rng, geom.Rect{W: side, H: side}, nodes))
		if err != nil {
			t.Fatal(err)
		}
		uniform := make([]float64, nodes)
		quantized := make([]float64, nodes)
		random := make([]float64, nodes)
		for i := range uniform {
			uniform[i] = 0.5
			quantized[i] = float64(rng.Intn(5)) / 4
			random[i] = rng.Float64()
		}
		weights := []struct {
			name string
			w    Weight
		}{
			{"hop", HopWeight},
			{"e2eTD", func(l topology.Link) float64 { return 1 / float64(l.MaxRate) }},
			{"uniform", idleWeight(uniform)},
			{"quantized", idleWeight(quantized)},
			{"random", idleWeight(random)},
		}
		for _, wt := range weights {
			for src := topology.NodeID(0); src < nodes; src++ {
				for dst := topology.NodeID(0); dst < nodes; dst++ {
					var exLinks map[topology.LinkID]bool
					var exNodes map[topology.NodeID]bool
					if rng.Intn(2) == 0 {
						exLinks = map[topology.LinkID]bool{}
						exNodes = map[topology.NodeID]bool{}
						for k := 0; k < 3; k++ {
							exLinks[topology.LinkID(rng.Intn(net.NumLinks()))] = true
							exNodes[topology.NodeID(rng.Intn(nodes))] = true
						}
					}
					gotP, gotW, gotErr := shortestPathConstrained(net, src, dst, wt.w, exLinks, exNodes)
					wantP, wantW, wantErr := oracleShortestPath(net, src, dst, wt.w, exLinks, exNodes)
					queries++
					if wantErr != nil {
						failed++
					}
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
						!pathsEqual(gotP, wantP) ||
						math.Float64bits(gotW) != math.Float64bits(wantW) {
						t.Fatalf("seed %d, %s weight, %d->%d (excluded %v %v): got %v %v %v, oracle %v %v %v",
							seed, wt.name, src, dst, exLinks, exNodes, gotP, gotW, gotErr, wantP, wantW, wantErr)
					}
				}
			}
		}
	}
	t.Logf("%d queries identical, %d of them errors", queries, failed)
}
