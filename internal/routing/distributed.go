package routing

import (
	"container/heap"
	"fmt"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/graph"
	"abw/internal/topology"
)

// DistributedRouter implements the paper's Sec. 4 proposal verbatim:
// "Each intermediate node on a path estimates the available bandwidth
// from the source to itself on that path, and uses it in distributed
// routing algorithms as any other routing metrics." The router runs a
// best-first widest-path search where a node's label is the estimated
// available bandwidth of the prefix path reaching it, computed with one
// of the Sec. 4 estimators from carrier-sensed idleness.
//
// Because the estimators depend on the whole prefix (its local cliques),
// the search keeps one best label per node — the standard heuristic in
// distributed QoS routing; it is exact whenever prefix estimates compose
// monotonically, which holds for all five estimators on loop-free
// prefixes (adding a hop only adds constraints).
type DistributedRouter struct {
	net      *topology.Network
	model    conflict.Model
	metric   estimate.Metric
	nodeIdle []float64
}

// NewDistributedRouter builds a router over the given network using the
// given estimator and per-node idleness.
func NewDistributedRouter(net *topology.Network, m conflict.Model, metric estimate.Metric, nodeIdle []float64) (*DistributedRouter, error) {
	if net == nil || m == nil {
		return nil, fmt.Errorf("routing: nil network or model")
	}
	if len(nodeIdle) < net.NumNodes() {
		return nil, fmt.Errorf("routing: idleness vector has %d entries for %d nodes", len(nodeIdle), net.NumNodes())
	}
	return &DistributedRouter{net: net, model: m, metric: metric, nodeIdle: nodeIdle}, nil
}

type drLabel struct {
	node     topology.NodeID
	path     topology.Path
	estimate float64
	idx      int
}

type drQueue []*drLabel

func (q drQueue) Len() int           { return len(q) }
func (q drQueue) Less(i, j int) bool { return q[i].estimate > q[j].estimate } // widest first
func (q drQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *drQueue) Push(x interface{}) {
	l := x.(*drLabel)
	l.idx = len(*q)
	*q = append(*q, l)
}
func (q *drQueue) Pop() interface{} {
	old := *q
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return l
}

// Route returns the path from src to dst with the largest estimated
// available bandwidth, together with that estimate.
func (r *DistributedRouter) Route(src, dst topology.NodeID) (topology.Path, float64, error) {
	n := r.net.NumNodes()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, 0, fmt.Errorf("routing: node out of range (src=%d dst=%d n=%d)", src, dst, n)
	}
	if src == dst {
		return nil, 0, fmt.Errorf("routing: src equals dst (%d)", src)
	}

	best := make(map[topology.NodeID]float64, n)
	q := drQueue{}
	heap.Init(&q)

	// Seed with every outgoing link of the source.
	for _, lid := range r.net.OutLinks(src) {
		label, err := r.label(topology.Path{lid})
		if err != nil {
			return nil, 0, err
		}
		if label == nil {
			continue
		}
		heap.Push(&q, label)
	}

	for q.Len() > 0 {
		cur := heap.Pop(&q).(*drLabel)
		if prev, ok := best[cur.node]; ok && prev >= cur.estimate {
			continue
		}
		best[cur.node] = cur.estimate
		if cur.node == dst {
			return cur.path, cur.estimate, nil
		}
		visited := r.pathNodes(cur.path, src)
		for _, lid := range r.net.OutLinks(cur.node) {
			link, err := r.net.Link(lid)
			if err != nil {
				return nil, 0, err
			}
			if visited[link.Rx] {
				continue
			}
			ext := make(topology.Path, 0, len(cur.path)+1)
			ext = append(ext, cur.path...)
			ext = append(ext, lid)
			label, err := r.label(ext)
			if err != nil {
				return nil, 0, err
			}
			if label == nil || label.estimate <= 0 {
				continue
			}
			if prev, ok := best[label.node]; ok && prev >= label.estimate {
				continue
			}
			heap.Push(&q, label)
		}
	}
	return nil, 0, graph.ErrNoPath
}

// label builds the search label for a prefix path, or nil when the
// prefix is unusable (a silent link).
func (r *DistributedRouter) label(prefix topology.Path) (*drLabel, error) {
	ps, err := pathState(r.net, r.model, r.nodeIdle, prefix)
	if err != nil {
		return nil, nil // silent link: prune quietly
	}
	est, err := estimate.Estimate(r.metric, r.model, ps)
	if err != nil {
		return nil, fmt.Errorf("routing: estimating prefix: %w", err)
	}
	last, err := r.net.Link(prefix[len(prefix)-1])
	if err != nil {
		return nil, err
	}
	return &drLabel{node: last.Rx, path: prefix, estimate: est}, nil
}

func (r *DistributedRouter) pathNodes(path topology.Path, src topology.NodeID) map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool, len(path)+1)
	out[src] = true
	for _, lid := range path {
		if link, err := r.net.Link(lid); err == nil {
			out[link.Rx] = true
		}
	}
	return out
}
