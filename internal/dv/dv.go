// Package dv emulates the distributed side of the paper's Sec. 4: QoS
// routes computed by message passing alone. Every node keeps a
// distance-vector table of its best known cost to each destination
// under a pluggable additive QoS weight (hop count, e2eTD, or
// average-e2eD built from carrier-sensed idleness) and advertises it to
// its neighbors in synchronous rounds — a deterministic emulation of
// DSDV-style routing that needs no global topology knowledge.
//
// The engine converges to exactly the routes a centralized Dijkstra
// would pick (same weights), in at most NumNodes-1 rounds; the tests
// assert both. Message counts are tracked so experiments can report the
// protocol cost of each metric.
package dv

import (
	"fmt"
	"math"
	"sort"

	"abw/internal/graph"
	"abw/internal/topology"
)

// entry is one row of a node's routing table.
type entry struct {
	cost float64
	via  topology.LinkID // first hop link
}

// Engine is a synchronous distance-vector computation over a network.
type Engine struct {
	net    *topology.Network
	weight graph.Weight
	// tables[n][d] is node n's best known route to destination d.
	tables []map[topology.NodeID]entry
	// messages counts neighbor advertisements sent so far.
	messages int
	rounds   int
}

// New builds an engine with every node knowing only itself.
func New(net *topology.Network, weight graph.Weight) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("dv: nil network")
	}
	if weight == nil {
		return nil, fmt.Errorf("dv: nil weight")
	}
	e := &Engine{
		net:    net,
		weight: weight,
		tables: make([]map[topology.NodeID]entry, net.NumNodes()),
	}
	for i := range e.tables {
		e.tables[i] = map[topology.NodeID]entry{
			topology.NodeID(i): {cost: 0, via: -1},
		}
	}
	return e, nil
}

// Round performs one synchronous exchange: every node advertises its
// full table to every out-neighbor, and receivers relax. It returns the
// number of table entries that improved.
func (e *Engine) Round() (int, error) {
	type update struct {
		at   topology.NodeID
		dest topology.NodeID
		ent  entry
	}
	var updates []update
	// A node's advertisement travels over its IN-links: the neighbor
	// that can transmit TO this node learns it can reach this node's
	// destinations through that link... Routing direction: to route
	// from u over link u->v, u needs v's table. So v advertises to u
	// along every link u->v.
	for v := 0; v < e.net.NumNodes(); v++ {
		for _, lid := range e.net.InLinks(topology.NodeID(v)) {
			link, err := e.net.Link(lid)
			if err != nil {
				return 0, fmt.Errorf("dv: %w", err)
			}
			w := e.weight(link)
			e.messages++
			if math.IsInf(w, 1) || math.IsNaN(w) {
				continue // link unusable under this metric
			}
			u := link.Tx
			for dest, ent := range e.tables[v] {
				if dest == u {
					continue
				}
				cand := entry{cost: w + ent.cost, via: lid}
				cur, ok := e.tables[u][dest]
				if !ok || cand.cost < cur.cost-1e-12 {
					updates = append(updates, update{at: u, dest: dest, ent: cand})
				}
			}
		}
	}
	// Apply synchronously, keeping the best candidate per (node, dest).
	// The candidates were collected in map-iteration order; sort them so
	// equal-cost ties break toward the lowest link id every run instead
	// of whichever entry the map yielded first.
	sort.Slice(updates, func(i, j int) bool {
		a, b := updates[i], updates[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.dest != b.dest {
			return a.dest < b.dest
		}
		if a.ent.cost != b.ent.cost {
			return a.ent.cost < b.ent.cost
		}
		return a.ent.via < b.ent.via
	})
	improved := 0
	for _, up := range updates {
		cur, ok := e.tables[up.at][up.dest]
		if !ok || up.ent.cost < cur.cost-1e-12 {
			e.tables[up.at][up.dest] = up.ent
			improved++
		}
	}
	e.rounds++
	return improved, nil
}

// RunToConvergence rounds until no table changes, failing after
// maxRounds (0 means NumNodes rounds, the Bellman-Ford bound).
func (e *Engine) RunToConvergence(maxRounds int) (int, error) {
	if maxRounds <= 0 {
		maxRounds = e.net.NumNodes()
	}
	for r := 1; r <= maxRounds; r++ {
		changed, err := e.Round()
		if err != nil {
			return r, err
		}
		if changed == 0 {
			return r, nil
		}
	}
	return maxRounds, fmt.Errorf("dv: no convergence within %d rounds", maxRounds)
}

// Rounds returns how many rounds have executed.
func (e *Engine) Rounds() int { return e.rounds }

// Messages returns how many neighbor advertisements have been sent.
func (e *Engine) Messages() int { return e.messages }

// Route follows next-hop pointers from src to dst. It fails when no
// route is known or a forwarding loop is detected (which cannot happen
// after convergence on a static topology).
func (e *Engine) Route(src, dst topology.NodeID) (topology.Path, error) {
	if int(src) < 0 || int(src) >= len(e.tables) || int(dst) < 0 || int(dst) >= len(e.tables) {
		return nil, fmt.Errorf("dv: node out of range (src=%d dst=%d)", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("dv: src equals dst (%d)", src)
	}
	var path topology.Path
	at := src
	for steps := 0; at != dst; steps++ {
		if steps > e.net.NumNodes() {
			return nil, fmt.Errorf("dv: forwarding loop from %d to %d", src, dst)
		}
		ent, ok := e.tables[at][dst]
		if !ok || ent.via < 0 {
			return nil, fmt.Errorf("dv: node %d has no route to %d", at, dst)
		}
		link, err := e.net.Link(ent.via)
		if err != nil {
			return nil, fmt.Errorf("dv: %w", err)
		}
		path = append(path, ent.via)
		at = link.Rx
	}
	return path, nil
}
