package dv

import "abw/internal/topology"

// Cost returns src's best known cost to dst.
func (e *Engine) Cost(src, dst topology.NodeID) (float64, bool) {
	if int(src) < 0 || int(src) >= len(e.tables) {
		return 0, false
	}
	ent, ok := e.tables[src][dst]
	if !ok {
		return 0, false
	}
	return ent.cost, true
}
