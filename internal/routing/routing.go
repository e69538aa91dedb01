// Package routing implements the paper's QoS routing layer (Sec. 4):
// distributed routing metrics over a multirate network with background
// traffic — hop count, end-to-end transmission delay (e2eTD), and
// average end-to-end delay (average-e2eD, Eq. 14) — plus the
// estimator-guided path selection the paper proposes, and the
// sequential flow-admission experiment of Sec. 5.2 (Figs. 2 and 3).
package routing

import (
	"fmt"
	"math"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/graph"
	"abw/internal/topology"
)

// Metric is a QoS routing metric.
type Metric int

// The routing metrics compared in Fig. 3.
const (
	// MetricHopCount prefers the fewest hops.
	MetricHopCount Metric = iota + 1
	// MetricE2ETD minimizes the end-to-end transmission delay
	// sum_i 1/r_i (from the authors' earlier work [1]).
	MetricE2ETD
	// MetricAvgE2ED minimizes the average end-to-end delay
	// sum_i 1/(lambda_i r_i) of Eq. 14 — transmission delay inflated by
	// the background-busy fraction of each hop.
	MetricAvgE2ED
)

// String implements fmt.Stringer with the paper's labels.
func (m Metric) String() string {
	switch m {
	case MetricHopCount:
		return "hop count"
	case MetricE2ETD:
		return "e2eTD"
	case MetricAvgE2ED:
		return "average-e2eD"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// AllMetrics returns the three routing metrics in the paper's order.
func AllMetrics() []Metric {
	return []Metric{MetricHopCount, MetricE2ETD, MetricAvgE2ED}
}

// Weight builds the additive link weight for a metric. nodeIdle is the
// per-node carrier-sensed idle ratio vector; it is required by
// MetricAvgE2ED and ignored by the others. Links whose endpoints have no
// idle time are excluded (infinite weight) under MetricAvgE2ED.
func Weight(m conflict.Model, metric Metric, nodeIdle []float64) (graph.Weight, error) {
	switch metric {
	case MetricHopCount:
		return graph.HopWeight, nil
	case MetricE2ETD:
		return func(l topology.Link) float64 {
			r := conflict.AloneMaxRate(m, l.ID)
			if r <= 0 {
				return math.Inf(1)
			}
			return 1 / float64(r)
		}, nil
	case MetricAvgE2ED:
		if nodeIdle == nil {
			return nil, fmt.Errorf("routing: %v requires node idleness", metric)
		}
		return func(l topology.Link) float64 {
			r := conflict.AloneMaxRate(m, l.ID)
			if r <= 0 {
				return math.Inf(1)
			}
			if int(l.Tx) >= len(nodeIdle) || int(l.Rx) >= len(nodeIdle) {
				return math.Inf(1)
			}
			lambda := math.Min(nodeIdle[l.Tx], nodeIdle[l.Rx])
			if lambda <= 0 {
				return math.Inf(1)
			}
			return 1 / (lambda * float64(r))
		}, nil
	default:
		return nil, fmt.Errorf("routing: unknown metric %d", int(metric))
	}
}

// FindPath routes src to dst under the given metric.
func FindPath(net *topology.Network, m conflict.Model, metric Metric, nodeIdle []float64, src, dst topology.NodeID) (topology.Path, error) {
	w, err := Weight(m, metric, nodeIdle)
	if err != nil {
		return nil, err
	}
	path, _, err := graph.ShortestPath(net, src, dst, w)
	if err != nil {
		return nil, fmt.Errorf("routing: %v from %d to %d: %w", metric, src, dst, err)
	}
	return path, nil
}

// PathEvaluator scores a candidate path; higher is better. The paper
// proposes using the Sec. 4 bandwidth estimators this way.
type PathEvaluator func(estimate.PathState) (float64, error)

// FindPathByEstimator implements the paper's estimator-guided routing:
// enumerate up to k loopless shortest candidates by e2eTD, build each
// candidate's distributed state from idleness, and keep the path whose
// estimated available bandwidth is largest.
func FindPathByEstimator(
	net *topology.Network,
	m conflict.Model,
	nodeIdle []float64,
	src, dst topology.NodeID,
	k int,
	eval PathEvaluator,
) (topology.Path, float64, error) {
	if eval == nil {
		return nil, 0, fmt.Errorf("routing: nil evaluator")
	}
	w, err := Weight(m, MetricE2ETD, nil)
	if err != nil {
		return nil, 0, err
	}
	cands, err := graph.KShortestPaths(net, src, dst, w, k)
	if err != nil {
		return nil, 0, fmt.Errorf("routing: candidates from %d to %d: %w", src, dst, err)
	}
	bestScore := math.Inf(-1)
	var best topology.Path
	for _, cand := range cands {
		ps, err := pathState(net, m, nodeIdle, cand.Path)
		if err != nil {
			return nil, 0, err
		}
		score, err := eval(ps)
		if err != nil {
			return nil, 0, fmt.Errorf("routing: evaluating candidate: %w", err)
		}
		if score > bestScore {
			bestScore = score
			best = cand.Path
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("routing: no scorable candidate from %d to %d", src, dst)
	}
	return best, bestScore, nil
}

func pathState(net *topology.Network, m conflict.Model, nodeIdle []float64, path topology.Path) (estimate.PathState, error) {
	idle, err := estimate.LinkIdleRatios(net, nodeIdle, path)
	if err != nil {
		return estimate.PathState{}, err
	}
	states := estimate.PathState{Path: path, Idle: idle}
	for _, lid := range path {
		r := conflict.AloneMaxRate(m, lid)
		if r <= 0 {
			return estimate.PathState{}, fmt.Errorf("routing: link %d supports no rate", lid)
		}
		states.Rates = append(states.Rates, r)
	}
	if err := states.Validate(); err != nil {
		return estimate.PathState{}, err
	}
	return states, nil
}
