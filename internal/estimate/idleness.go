package estimate

import (
	"fmt"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// NodeIdleRatios computes the carrier-sensed idle ratio of every node
// under the given background schedule (Sec. 4): a node senses the
// channel busy during a slot iff it takes part in one of the slot's
// transmissions or some slot transmitter lies within its carrier-sense
// range; the unscheduled remainder of the period is idle for everyone.
func NodeIdleRatios(net *topology.Network, sched schedule.Schedule) []float64 {
	prof := net.Profile()
	nodes := net.Nodes()
	idle := make([]float64, len(nodes))
	for i := range idle {
		idle[i] = sched.IdleShare()
	}
	for _, slot := range sched.Slots {
		if slot.Share <= 0 || slot.Set.Len() == 0 {
			// An empty slot leaves the channel idle for its duration.
			for i := range idle {
				idle[i] += slot.Share
			}
			continue
		}
		for i, n := range nodes {
			busy := false
			for _, cp := range slot.Set.Couples {
				link, err := net.Link(cp.Link)
				if err != nil {
					continue
				}
				if link.Tx == n.ID || link.Rx == n.ID {
					busy = true
					break
				}
				tx, err := net.Node(link.Tx)
				if err != nil {
					continue
				}
				if prof.Senses(tx.Pos.Dist(n.Pos)) {
					busy = true
					break
				}
			}
			if !busy {
				idle[i] += slot.Share
			}
		}
	}
	return idle
}

// LinkIdleRatios reduces node idleness to per-hop link idleness for a
// path: lambda_i is the smaller idle ratio of the hop's two endpoints
// (Eq. 10).
func LinkIdleRatios(net *topology.Network, nodeIdle []float64, path topology.Path) ([]float64, error) {
	out := make([]float64, 0, len(path))
	for _, lid := range path {
		link, err := net.Link(lid)
		if err != nil {
			return nil, fmt.Errorf("estimate: %w", err)
		}
		if int(link.Tx) >= len(nodeIdle) || int(link.Rx) >= len(nodeIdle) {
			return nil, fmt.Errorf("estimate: node idleness vector too short for link %d", lid)
		}
		tx, rx := nodeIdle[link.Tx], nodeIdle[link.Rx]
		if rx < tx {
			out = append(out, rx)
		} else {
			out = append(out, tx)
		}
	}
	return out, nil
}

// LinkIdleFromSchedule computes a link's idle ratio under a conflict
// model with no geometry: the link senses a slot busy iff the slot
// contains it or contains a couple that interferes with it at the given
// rate. This is the sensing proxy used for the table-model scenarios.
func LinkIdleFromSchedule(m conflict.Model, sched schedule.Schedule, link topology.LinkID, rate radio.Rate) float64 {
	idle := sched.IdleShare()
	self := conflict.Couple{Link: link, Rate: rate}
	for _, slot := range sched.Slots {
		if slot.Share <= 0 {
			continue
		}
		busy := false
		for _, cp := range slot.Set.Couples {
			if cp.Link == link || conflict.Interferes(m, cp, self) {
				busy = true
				break
			}
		}
		if !busy {
			idle += slot.Share
		}
	}
	return idle
}

// PathStateFromSchedule is PathStateFromIdle over the node idle
// ratios the background schedule induces (NodeIdleRatios). perfbench's
// replay target calls it.
func PathStateFromSchedule(net *topology.Network, m conflict.Model, sched schedule.Schedule, path topology.Path) (PathState, error) {
	return PathStateFromIdle(net, m, NodeIdleRatios(net, sched), path)
}

// PathStateFromIdle assembles the distributed estimator input for a
// path over a geometric network: per-hop effective rates are the
// links' alone maximum rates, and idleness comes from nodeIdle, the
// carrier-sensed idle ratio of every node under the background
// (NodeIdleRatios).
func PathStateFromIdle(net *topology.Network, m conflict.Model, nodeIdle []float64, path topology.Path) (PathState, error) {
	if len(path) == 0 {
		return PathState{}, fmt.Errorf("estimate: empty path")
	}
	idle, err := LinkIdleRatios(net, nodeIdle, path)
	if err != nil {
		return PathState{}, err
	}
	rates := make([]radio.Rate, 0, len(path))
	for _, lid := range path {
		r := conflict.AloneMaxRate(m, lid)
		if r <= 0 {
			return PathState{}, fmt.Errorf("estimate: link %d supports no rate", lid)
		}
		rates = append(rates, r)
	}
	ps := PathState{Path: path, Rates: rates, Idle: idle}
	if err := ps.Validate(); err != nil {
		return PathState{}, err
	}
	return ps, nil
}
