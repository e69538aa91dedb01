package core

import (
	"context"
	"math"
	"testing"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/topology"
)

const eps = 1e-9

// TestScenarioIIExactBandwidth is the paper's headline number: the
// 4-hop chain of Fig. 1 supports exactly f = 16.2 Mbps end to end under
// optimal multirate scheduling (Sec. 5.1).
func TestScenarioIIExactBandwidth(t *testing.T) {
	s := scenario.NewScenarioII()
	res, err := AvailableBandwidthContext(context.Background(), s.Model, nil, s.Path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Bandwidth-16.2) > eps {
		t.Errorf("bandwidth = %.6f, want 16.2", res.Bandwidth)
	}
	// The extracted schedule must be valid and deliver f on every hop.
	if err := res.Schedule.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	for _, l := range s.Links() {
		if got := res.Schedule.Throughput(l); got < 16.2-1e-6 {
			t.Errorf("schedule delivers %.6f on L%d, want >= 16.2", got, l+1)
		}
	}
	if res.Schedule.TotalShare() > 1+eps {
		t.Errorf("total share %.9f > 1", res.Schedule.TotalShare())
	}
}

// TestScenarioIIFixedRateBounds reproduces the two fixed-rate clique
// bounds of Sec. 5.1, both strictly below the multirate optimum:
// R1 = (54,54,54,54) gives 13.5, R2 = (36,54,54,54) gives 108/7 ~ 15.43.
func TestScenarioIIFixedRateBounds(t *testing.T) {
	s := scenario.NewScenarioII()
	b1, err := FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{54, 54, 54, 54})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1-13.5) > eps {
		t.Errorf("R1 bound = %.6f, want 13.5", b1)
	}
	b2, err := FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{36, 54, 54, 54})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b2-108.0/7) > eps {
		t.Errorf("R2 bound = %.6f, want 108/7 = %.6f", b2, 108.0/7)
	}
	if b1 >= 16.2 || b2 >= 16.2 {
		t.Errorf("fixed-rate bounds (%.4f, %.4f) must both be < 16.2", b1, b2)
	}
}

// TestScenarioIICliqueViolation reproduces the Hypothesis (8)
// counterexample: at the optimum throughput vector y = (16.2,...), the
// max clique load factors are 1.2 under R1 and 1.05 under R2 — both
// above one, so no clique constraint holds.
func TestScenarioIICliqueViolation(t *testing.T) {
	s := scenario.NewScenarioII()
	y := map[topology.LinkID]float64{s.L1: 16.2, s.L2: 16.2, s.L3: 16.2, s.L4: 16.2}

	r1 := []conflict.Couple{
		{Link: s.L1, Rate: 54}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54},
	}
	t1, err := MaxCliqueLoadFactor(s.Model, r1, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-1.2) > eps {
		t.Errorf("R1 max load factor = %.6f, want 1.2", t1)
	}

	r2 := []conflict.Couple{
		{Link: s.L1, Rate: 36}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54},
	}
	t2, err := MaxCliqueLoadFactor(s.Model, r2, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t2-1.05) > eps {
		t.Errorf("R2 max load factor = %.6f, want 1.05", t2)
	}
}

// TestScenarioIIUpperBoundLP checks Eq. 9: the rate-coupled clique LP
// upper-bounds the exact optimum and beats (is above) every fixed-rate
// clique bound.
func TestScenarioIIUpperBoundLP(t *testing.T) {
	s := scenario.NewScenarioII()
	res, err := UpperBoundLP(s.Model, nil, s.Path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Bandwidth < 16.2-eps {
		t.Errorf("Eq.9 bound = %.6f, must be >= exact 16.2", res.Bandwidth)
	}
	if res.Bandwidth < 108.0/7-eps {
		t.Errorf("Eq.9 bound = %.6f below the best fixed-rate bound", res.Bandwidth)
	}
}

// TestScenarioIILowerBounds checks Sec. 3.3: restricting the LP to a
// subset of the maximal independent sets lower-bounds the optimum, and
// grows monotonically as sets are added back.
func TestScenarioIILowerBounds(t *testing.T) {
	s := scenario.NewScenarioII()
	sets, err := indepset.EnumerateContext(context.Background(), s.Model, s.Links(), indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("expected 4 maximal sets, got %d", len(sets))
	}
	prev := -1.0
	for k := 1; k <= len(sets); k++ {
		res, err := AvailableBandwidthWithSetsContext(context.Background(), s.Model, nil, s.Path, sets[:k])
		if err != nil {
			t.Fatal(err)
		}
		var bw float64
		if res.Status == lp.Optimal {
			bw = res.Bandwidth
		}
		if bw < prev-eps {
			t.Errorf("lower bound decreased from %.6f to %.6f with %d sets", prev, bw, k)
		}
		if bw > 16.2+eps {
			t.Errorf("lower bound %.6f exceeds exact optimum with %d sets", bw, k)
		}
		prev = bw
	}
	if math.Abs(prev-16.2) > eps {
		t.Errorf("with all maximal sets the bound must equal the optimum, got %.6f", prev)
	}
}

// TestScenarioIAvailableBandwidth is the introduction's worked example:
// background time share lambda on L1 and on L2 (non-overlapping links),
// new flow on L3 which conflicts with both. The optimum overlaps L1 and
// L2 and leaves (1-lambda)*r for L3 — idle-time estimation would only
// admit (1-2*lambda)*r.
func TestScenarioIAvailableBandwidth(t *testing.T) {
	const lambda = 0.3
	s := scenario.NewScenarioI(54)
	bg := []Flow{
		{Path: topology.Path{s.L1}, Demand: lambda * 54},
		{Path: topology.Path{s.L2}, Demand: lambda * 54},
	}
	res, err := AvailableBandwidthContext(context.Background(), s.Model, bg, topology.Path{s.L3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := (1 - lambda) * 54
	if math.Abs(res.Bandwidth-want) > eps {
		t.Errorf("bandwidth = %.6f, want (1-lambda)*54 = %.6f", res.Bandwidth, want)
	}
	// The schedule overlaps L1 and L2 into the same slot.
	if err := res.Schedule.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestBackgroundInfeasible(t *testing.T) {
	// Demand beyond channel capacity on a single link.
	s := scenario.NewScenarioI(54)
	bg := []Flow{{Path: topology.Path{s.L1}, Demand: 60}}
	res, err := AvailableBandwidthContext(context.Background(), s.Model, bg, topology.Path{s.L3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestFeasibleDemands(t *testing.T) {
	s := scenario.NewScenarioI(54)
	ok, sched, err := FeasibleDemandsContext(context.Background(), s.Model, []Flow{
		{Path: topology.Path{s.L1}, Demand: 20},
		{Path: topology.Path{s.L2}, Demand: 20},
		{Path: topology.Path{s.L3}, Demand: 20},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("20+20+20 should be feasible (L1,L2 overlap)")
	}
	if err := sched.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if !sched.Delivers(map[topology.LinkID]float64{s.L1: 20, s.L2: 20, s.L3: 20}, 1e-6) {
		t.Error("schedule does not deliver the demands")
	}

	ok, _, err = FeasibleDemandsContext(context.Background(), s.Model, []Flow{
		{Path: topology.Path{s.L1}, Demand: 30},
		{Path: topology.Path{s.L3}, Demand: 30},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("30+30 over conflicting links exceeds 54: should be infeasible")
	}

	ok, _, err = FeasibleDemandsContext(context.Background(), s.Model, nil, Options{})
	if err != nil || !ok {
		t.Errorf("no flows should be trivially feasible: ok=%v err=%v", ok, err)
	}
}

func TestMaxDemandScale(t *testing.T) {
	s := scenario.NewScenarioII()
	// One new flow on the chain with demand 8.1: optimum 16.2 gives
	// theta = 2.
	theta, sched, err := MaxDemandScaleContext(context.Background(), s.Model, nil, []Flow{{Path: s.Path, Demand: 8.1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-2) > eps {
		t.Errorf("theta = %.6f, want 2", theta)
	}
	if err := sched.Validate(s.Model); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	// Two identical flows split the capacity: theta = 1.
	theta, _, err = MaxDemandScaleContext(context.Background(), s.Model, nil, []Flow{
		{Path: s.Path, Demand: 8.1},
		{Path: s.Path, Demand: 8.1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-1) > eps {
		t.Errorf("two flows: theta = %.6f, want 1", theta)
	}
}

func TestMaxDemandScaleValidation(t *testing.T) {
	s := scenario.NewScenarioII()
	if _, _, err := MaxDemandScaleContext(context.Background(), s.Model, nil, nil, Options{}); err == nil {
		t.Error("no new flows: expected error")
	}
	if _, _, err := MaxDemandScaleContext(context.Background(), s.Model, nil, []Flow{{Path: s.Path, Demand: 0}}, Options{}); err == nil {
		t.Error("zero demand: expected error")
	}
}

func TestValidation(t *testing.T) {
	s := scenario.NewScenarioII()
	if _, err := AvailableBandwidthContext(context.Background(), s.Model, nil, nil, Options{}); err == nil {
		t.Error("empty new path: expected error")
	}
	bad := []Flow{{Path: nil, Demand: 1}}
	if _, err := AvailableBandwidthContext(context.Background(), s.Model, bad, s.Path, Options{}); err == nil {
		t.Error("background with empty path: expected error")
	}
	negative := []Flow{{Path: s.Path, Demand: -1}}
	if _, err := AvailableBandwidthContext(context.Background(), s.Model, negative, s.Path, Options{}); err == nil {
		t.Error("negative demand: expected error")
	}
	if _, err := FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{54}); err == nil {
		t.Error("rate length mismatch: expected error")
	}
	if _, err := FixedRateCliqueBound(s.Model, nil, nil); err == nil {
		t.Error("empty path: expected error")
	}
	if _, err := FixedRateCliqueBound(s.Model, s.Path, []radio.Rate{0, 54, 54, 54}); err == nil {
		t.Error("zero rate: expected error")
	}
	if _, err := RestrictedUpperBoundLPContext(context.Background(), s.Model, nil, s.Path, nil, Options{}); err == nil {
		t.Error("no vectors: expected error")
	}
}

func TestUpperBoundOmegaLimit(t *testing.T) {
	s := scenario.NewScenarioII()
	if _, err := UpperBoundLP(s.Model, nil, s.Path, Options{OmegaLimit: 3}); err == nil {
		t.Error("Omega limit 3 < 16: expected error")
	}
}

func TestRestrictedUpperBound(t *testing.T) {
	s := scenario.NewScenarioII()
	// Only the two rate vectors the paper discusses: R1 all-54 and
	// R2 = (36,54,54,54).
	vectors := [][]conflict.Couple{
		{{Link: s.L1, Rate: 54}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54}},
		{{Link: s.L1, Rate: 36}, {Link: s.L2, Rate: 54}, {Link: s.L3, Rate: 54}, {Link: s.L4, Rate: 54}},
	}
	restricted, err := RestrictedUpperBoundLPContext(context.Background(), s.Model, nil, s.Path, vectors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := UpperBoundLP(s.Model, nil, s.Path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Status != lp.Optimal || full.Status != lp.Optimal {
		t.Fatalf("statuses: restricted=%v full=%v", restricted.Status, full.Status)
	}
	// Restricting vectors shrinks the feasible region: bound can only
	// drop, but must stay above the exact optimum 16.2 (both the paper's
	// vectors support the optimal schedule).
	if restricted.Bandwidth > full.Bandwidth+eps {
		t.Errorf("restricted bound %.6f above full bound %.6f", restricted.Bandwidth, full.Bandwidth)
	}
	if restricted.Bandwidth < 16.2-eps {
		t.Errorf("restricted bound %.6f below the exact optimum", restricted.Bandwidth)
	}
}

// TestBoundsSandwichPhysicalChain checks lower <= exact <= Eq.9 upper on
// a geometric chain with the physical SINR model and background traffic.
func TestBoundsSandwichPhysicalChain(t *testing.T) {
	net, path, err := topology.Chain(radio.NewProfile80211a(), 4, 55)
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	bg := []Flow{{Path: topology.Path{path[0]}, Demand: 5}}

	exact, err := AvailableBandwidthContext(context.Background(), m, bg, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Status != lp.Optimal {
		t.Fatalf("exact status = %v", exact.Status)
	}

	upper, err := UpperBoundLP(m, bg, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if upper.Status != lp.Optimal {
		t.Fatalf("upper status = %v", upper.Status)
	}
	if upper.Bandwidth < exact.Bandwidth-1e-6 {
		t.Errorf("upper bound %.6f below exact %.6f", upper.Bandwidth, exact.Bandwidth)
	}

	// Lower bound from half of the maximal sets.
	half := exact.Sets[:(len(exact.Sets)+1)/2]
	lower, err := AvailableBandwidthWithSetsContext(context.Background(), m, bg, path, half)
	if err != nil {
		t.Fatal(err)
	}
	lowerBW := 0.0
	if lower.Status == lp.Optimal {
		lowerBW = lower.Bandwidth
	}
	if lowerBW > exact.Bandwidth+1e-6 {
		t.Errorf("lower bound %.6f above exact %.6f", lowerBW, exact.Bandwidth)
	}
}

// TestScenarioIIScheduleMatchesPaperStructure verifies the optimal
// schedule uses the (L1,36)+(L4,54) link-adaptation slot — the paper's
// key structural insight.
func TestScenarioIIScheduleMatchesPaperStructure(t *testing.T) {
	s := scenario.NewScenarioII()
	res, err := AvailableBandwidthContext(context.Background(), s.Model, nil, s.Path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, slot := range res.Schedule.Slots {
		//lint:ignore abw/floateq schedule slots carry the declared rate couples verbatim
		if slot.Set.Rate(s.L1) == 36 && slot.Set.Rate(s.L4) == 54 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("optimal schedule %v does not use the (L1,36)+(L4,54) slot", &res.Schedule)
	}
}

// TestRestrictedUpperBoundCaveat demonstrates the documented caveat: a
// rate-vector subset that misses the optimal schedule's vectors can cut
// below the true optimum. All-36 pins the chain to its two 3-link
// cliques ({L1,L2,L3} and {L2,L3,L4}): 36/3 = 12 < 16.2.
func TestRestrictedUpperBoundCaveat(t *testing.T) {
	s := scenario.NewScenarioII()
	only36 := [][]conflict.Couple{{
		{Link: s.L1, Rate: 36}, {Link: s.L2, Rate: 36}, {Link: s.L3, Rate: 36}, {Link: s.L4, Rate: 36},
	}}
	res, err := RestrictedUpperBoundLPContext(context.Background(), s.Model, nil, s.Path, only36, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Bandwidth-12) > eps {
		t.Errorf("all-36 restricted bound = %.4f, want 36/3 = 12", res.Bandwidth)
	}
	if res.Bandwidth >= 16.2 {
		t.Error("the caveat case should sit BELOW the true optimum")
	}
}

// TestAvailableBandwidthLowerBound checks the graceful-degradation
// path: on small instances it matches the exact value; under a tight
// enumeration limit it reports truncation and stays at or below exact.
func TestAvailableBandwidthLowerBound(t *testing.T) {
	s := scenario.NewScenarioII()
	res, truncated, err := AvailableBandwidthLowerBoundContext(context.Background(), s.Model, nil, s.Path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("Scenario II should not truncate")
	}
	if math.Abs(res.Bandwidth-16.2) > eps {
		t.Errorf("untruncated lower bound = %.4f, want the exact 16.2", res.Bandwidth)
	}

	// A wide "path" of 12 mutually compatible table links explodes the
	// enumeration under a tight limit; the truncated result must be a
	// valid lower bound (here: any value at or below 54).
	tb := conflict.NewTable()
	var path topology.Path
	for i := topology.LinkID(0); i < 12; i++ {
		tb.SetRates(i, 54)
		path = append(path, i)
	}
	res, truncated, err = AvailableBandwidthLowerBoundContext(context.Background(), tb, nil, path, Options{SetLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("expected truncation under SetLimit 50")
	}
	exact := 54.0 // all 12 links compatible: each carries a full 54
	if res.Status == lp.Optimal && res.Bandwidth > exact+eps {
		t.Errorf("truncated bound %.4f exceeds the true value %.4f", res.Bandwidth, exact)
	}
}
