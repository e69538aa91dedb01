package experiments

import (
	"context"
	"fmt"
	"math"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// scenarioILambda is the background time share on L1 and L2 in the
// paper's introduction example.
const scenarioILambda = 0.3

// ScenarioI reproduces experiment E1 (Fig. 1 left, Sec. 1): the exact
// model admits (1-lambda)*r over L3 while channel-idle-time estimation
// admits only (1-2*lambda)*r.
func ScenarioI(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioI(54)
	rate := float64(s.Rate)
	bg := []core.Flow{
		{Path: topology.Path{s.L1}, Demand: scenarioILambda * rate},
		{Path: topology.Path{s.L2}, Demand: scenarioILambda * rate},
	}
	res, err := core.AvailableBandwidthContext(ctx, s.Model, bg, topology.Path{s.L3}, core.Options{})
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("scenario I LP %v", res.Status)
	}

	// The measured world: L1 and L2 in disjoint slots; L3 senses both.
	measured := schedule.Schedule{Slots: []schedule.Slot{
		{Share: scenarioILambda, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: s.Rate})},
		{Share: scenarioILambda, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: s.Rate})},
	}}
	idle := estimate.LinkIdleFromSchedule(s.Model, measured, s.L3, s.Rate)
	idleEstimate := idle * rate

	tbl := &Table{
		ID:     "E1",
		Title:  "Scenario I: available bandwidth over L3 with background lambda=0.3 on L1 and L2",
		Header: []string{"quantity", "value (Mbps)", "paper"},
	}
	tbl.AddRow("exact available bandwidth (Eq. 6)", fmt.Sprintf("%.2f", res.Bandwidth),
		fmt.Sprintf("(1-lambda)*r = %.2f", (1-scenarioILambda)*rate))
	tbl.AddRow("idle-time admission bound (Eq. 10)", fmt.Sprintf("%.2f", idleEstimate),
		fmt.Sprintf("(1-2*lambda)*r = %.2f", (1-2*scenarioILambda)*rate))
	tbl.AddNote("the optimal schedule overlaps L1 and L2 so their shares merge; carrier sensing cannot see that")
	if math.Abs(res.Bandwidth-(1-scenarioILambda)*rate) > 1e-6 {
		tbl.AddNote("MISMATCH: exact value deviates from the paper's closed form")
	}
	return tbl, nil
}

// ScenarioII reproduces experiment E2 (Fig. 1 right, Sec. 3.1 + 5.1):
// the multirate optimum f = 16.2 Mbps, the optimal schedule, the two
// fixed-rate clique bounds (13.5 and 108/7), and the violated clique
// constraints (load factors 1.2 and 1.05).
func ScenarioII(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioII()
	res, err := core.AvailableBandwidthContext(ctx, s.Model, nil, s.Path, core.Options{})
	if err != nil {
		return nil, err
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("scenario II LP %v", res.Status)
	}
	b1, err := core.FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{54, 54, 54, 54})
	if err != nil {
		return nil, err
	}
	b2, err := core.FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{36, 54, 54, 54})
	if err != nil {
		return nil, err
	}
	y := map[topology.LinkID]float64{}
	for _, l := range s.Links() {
		y[l] = res.Bandwidth
	}
	t1, err := core.MaxCliqueLoadFactor(s.Model, []conflict.Couple{
		{Link: s.L1, Rate: 54}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54},
	}, y)
	if err != nil {
		return nil, err
	}
	t2, err := core.MaxCliqueLoadFactor(s.Model, []conflict.Couple{
		{Link: s.L1, Rate: 36}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54},
	}, y)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:     "E2",
		Title:  "Scenario II: the clique-constraint counterexample (4-link chain, rates {36,54})",
		Header: []string{"quantity", "measured", "paper"},
	}
	tbl.AddRow("exact end-to-end optimum f (Eq. 6)", fmt.Sprintf("%.4f", res.Bandwidth), "16.2")
	tbl.AddRow("fixed-rate clique bound, R1=(54,54,54,54) (Eq. 7)", fmt.Sprintf("%.4f", b1), "13.5")
	tbl.AddRow("fixed-rate clique bound, R2=(36,54,54,54) (Eq. 7)", fmt.Sprintf("%.4f", b2), "108/7 ~ 15.4286")
	tbl.AddRow("max clique load factor at optimum, R1", fmt.Sprintf("%.4f", t1), "1.2 (> 1: violated)")
	tbl.AddRow("max clique load factor at optimum, R2", fmt.Sprintf("%.4f", t2), "1.05 (> 1: violated)")
	tbl.AddRow("optimal schedule", res.Schedule.String(),
		"0.1:{L1@54} 0.3:{L2@54} 0.3:{L3@54} 0.3:{(L1,36),(L4,54)}")
	tbl.AddNote("both fixed-rate bounds sit BELOW the multirate optimum: the clique constraint is invalid under link adaptation")
	return tbl, nil
}

// Eq9UpperBound reproduces experiment E6: the rate-coupled clique LP of
// Eq. 9 on Scenario II (full Omega = 2^4 rate vectors) and its
// restricted variant on the paper's two discussed vectors.
func Eq9UpperBound(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioII()
	exact, err := core.AvailableBandwidthContext(ctx, s.Model, nil, s.Path, core.Options{})
	if err != nil {
		return nil, err
	}
	full, err := core.UpperBoundLP(s.Model, nil, s.Path, core.Options{})
	if err != nil {
		return nil, err
	}
	restricted, err := core.RestrictedUpperBoundLPContext(ctx, s.Model, nil, s.Path, [][]conflict.Couple{
		{{Link: s.L1, Rate: 54}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54}},
		{{Link: s.L1, Rate: 36}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54}},
	}, core.Options{})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "E6",
		Title:  "Eq. 9 rate-coupled clique upper bound on Scenario II",
		Header: []string{"program", "bound (Mbps)", "relation"},
	}
	tbl.AddRow("exact optimum (Eq. 6)", fmt.Sprintf("%.4f", exact.Bandwidth), "reference")
	tbl.AddRow("Eq. 9, all 16 rate vectors", fmt.Sprintf("%.4f", full.Bandwidth), ">= exact")
	tbl.AddRow("Eq. 9 restricted to {R1, R2}", fmt.Sprintf("%.4f", restricted.Bandwidth), ">= exact, <= full")
	tbl.AddRow("best fixed-rate clique bound (Eq. 7)", fmt.Sprintf("%.4f", 108.0/7), "INVALID (< exact)")
	tbl.AddNote("the Eq. 9 bound stays valid where per-rate-vector clique bounds fail")
	return tbl, nil
}

// LowerBounds reproduces experiment E7 (Sec. 3.3): the Eq. 6 LP
// restricted to growing prefixes of the maximal independent sets yields
// monotone lower bounds reaching the optimum.
func LowerBounds(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioII()
	sets, err := indepset.EnumerateContext(ctx, s.Model, s.Links(), indepset.Options{})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "E7",
		Title:  "Lower bounds from independent-set subsets on Scenario II",
		Header: []string{"sets used", "lower bound (Mbps)", "sets"},
	}
	for k := 1; k <= len(sets); k++ {
		res, err := core.AvailableBandwidthWithSetsContext(ctx, s.Model, nil, s.Path, sets[:k])
		if err != nil {
			return nil, err
		}
		bw := 0.0
		if res.Status == lp.Optimal {
			bw = res.Bandwidth
		}
		names := ""
		for i, set := range sets[:k] {
			if i > 0 {
				names += " "
			}
			names += set.Key()
		}
		tbl.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.4f", bw), names)
	}
	tbl.AddNote("monotone non-decreasing; equals the exact 16.2 once all maximal sets are present")
	return tbl, nil
}

// AdaptationAblation reproduces experiment E8: the exact capacity under
// every fixed rate assignment versus free link adaptation on Scenario
// II. No fixed vector reaches the multirate optimum.
func AdaptationAblation(ctx context.Context) (*Table, error) {
	s := scenario.NewScenarioII()
	multirate, err := core.AvailableBandwidthContext(ctx, s.Model, nil, s.Path, core.Options{})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "E8",
		Title:  "Ablation: link adaptation on/off (Scenario II)",
		Header: []string{"rate assignment", "exact capacity (Mbps)"},
	}
	best := 0.0
	rates := []radio.Rate{36, 54}
	assignment := make([]conflict.Couple, 4)
	var rec func(idx int) error
	rec = func(idx int) error {
		if idx == 4 {
			fixed := conflict.FixRates(s.Model, assignment)
			res, err := core.AvailableBandwidthContext(ctx, fixed, nil, s.Path, core.Options{})
			if err != nil {
				return err
			}
			bw := 0.0
			if res.Status == lp.Optimal {
				bw = res.Bandwidth
			}
			if bw > best {
				best = bw
			}
			tbl.AddRow(fmt.Sprintf("(%g,%g,%g,%g)",
				float64(assignment[0].Rate), float64(assignment[1].Rate),
				float64(assignment[2].Rate), float64(assignment[3].Rate)),
				fmt.Sprintf("%.4f", bw))
			return nil
		}
		for _, r := range rates {
			assignment[idx] = conflict.Couple{Link: s.Links()[idx], Rate: r}
			if err := rec(idx + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	tbl.AddRow("free link adaptation (multirate)", fmt.Sprintf("%.4f", multirate.Bandwidth))
	tbl.AddNote("best fixed assignment reaches %.4f Mbps; adaptation adds %.1f%%",
		best, 100*(multirate.Bandwidth-best)/best)
	return tbl, nil
}
