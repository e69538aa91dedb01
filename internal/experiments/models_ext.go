package experiments

import (
	"context"
	"fmt"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/topology"
)

// InterferenceModelAblation (E16) compares the paper's physical
// (cumulative SINR, Eq. 3) interference model against the cheaper
// pairwise protocol model on identical chains: exact path capacity
// under each. Protocol ignores power summation, so it admits
// concurrent sets the physical model rejects and its capacities are
// optimistic — the modeling gap that motivates the paper's SINR-based
// formulation.
func InterferenceModelAblation(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:     "E16",
		Title:  "Extension: physical (SINR) vs protocol interference model, exact chain capacity",
		Header: []string{"chain", "physical (Mbps)", "protocol (Mbps)", "protocol optimism"},
	}
	for _, cfg := range []struct {
		hops    int
		spacing float64
	}{
		{4, 60}, {4, 80}, {4, 100}, {6, 100}, {8, 100},
	} {
		net, path, err := topology.Chain(radio.NewProfile80211a(), cfg.hops, cfg.spacing)
		if err != nil {
			return nil, err
		}
		phys, err := capacityUnder(ctx, conflict.NewPhysical(net), path)
		if err != nil {
			return nil, fmt.Errorf("physical %d@%g: %w", cfg.hops, cfg.spacing, err)
		}
		prot, err := capacityUnder(ctx, conflict.NewProtocol(net), path)
		if err != nil {
			return nil, fmt.Errorf("protocol %d@%g: %w", cfg.hops, cfg.spacing, err)
		}
		opt := "0.0%"
		if phys > 0 {
			opt = fmt.Sprintf("%+.1f%%", 100*(prot-phys)/phys)
		}
		tbl.AddRow(fmt.Sprintf("%d hops @ %gm", cfg.hops, cfg.spacing),
			fmt.Sprintf("%.4f", phys), fmt.Sprintf("%.4f", prot), opt)
	}
	tbl.AddNote("the protocol model never sums interference power, so distant concurrent")
	tbl.AddNote("transmitters are free; the physical model charges for every one of them")
	return tbl, nil
}

func capacityUnder(ctx context.Context, m conflict.Model, path topology.Path) (float64, error) {
	res, err := core.AvailableBandwidthContext(ctx, m, nil, path, core.Options{})
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, fmt.Errorf("LP %v", res.Status)
	}
	return res.Bandwidth, nil
}
