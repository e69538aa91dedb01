package abw

import (
	"context"
	"testing"

	"abw/internal/core"
	"abw/internal/experiments"
	"abw/internal/indepset"
	"abw/internal/memo"
	"abw/internal/routing"
	"abw/internal/topology"
)

// One benchmark per paper artifact (DESIGN.md Sec. 2). Each bench
// regenerates its table/figure end to end — topology, routing,
// LP solves, estimation — so the reported time is the full cost of the
// reproduction, and `go test -bench=. -benchmem` doubles as a smoke run
// of every experiment.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(context.Background(), id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

// BenchmarkScenarioI regenerates E1 (Fig. 1 left; the introduction's
// (1-lambda)r vs (1-2lambda)r example).
func BenchmarkScenarioI(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkScenarioII regenerates E2 (Fig. 1 right; Sec. 5.1's
// f = 16.2 Mbps counterexample with its clique bounds and violations).
func BenchmarkScenarioII(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkFig2Topology regenerates E3 (Fig. 2: the 30-node random
// topology and the average-e2eD vs e2eTD routes).
func BenchmarkFig2Topology(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkFig3Routing regenerates E4 (Fig. 3: available bandwidth per
// flow under hop count / e2eTD / average-e2eD with sequential
// admission).
func BenchmarkFig3Routing(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkFig4Estimation regenerates E5 (Fig. 4: the five distributed
// estimators against the exact Eq. 6 value as background accumulates).
func BenchmarkFig4Estimation(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkEq9UpperBound regenerates E6 (the Sec. 3.2 rate-coupled
// clique LP over all 16 Scenario II rate vectors).
func BenchmarkEq9UpperBound(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkLowerBounds regenerates E7 (Sec. 3.3 independent-set-subset
// lower bounds).
func BenchmarkLowerBounds(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkAdaptationAblation regenerates E8 (link adaptation on/off:
// all 16 fixed rate vectors vs multirate scheduling).
func BenchmarkAdaptationAblation(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkSimValidation regenerates E9 (TDMA frame simulator vs the
// analytic model).
func BenchmarkSimValidation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkCSMAIdle regenerates E10 (slotted CSMA/CA idleness in
// Scenario I).
func BenchmarkCSMAIdle(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkAvailableBandwidthQuery measures the core primitive in
// isolation: one exact Eq. 6 availability query (enumeration + LP) on a
// 4-hop chain with background traffic.
func BenchmarkAvailableBandwidthQuery(b *testing.B) {
	sys, err := NewSystem(Line(5, 100))
	if err != nil {
		b.Fatal(err)
	}
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	bg := []Flow{{Path: path, Demand: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.AvailableBandwidth(bg, path)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("unexpected infeasibility")
		}
	}
}

// BenchmarkEstimateConservative measures one distributed conservative
// clique estimate (the paper's proposed metric) on the same query.
func BenchmarkEstimateConservative(b *testing.B) {
	sys, err := NewSystem(Line(5, 100))
	if err != nil {
		b.Fatal(err)
	}
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	short, err := sys.PathBetween(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	bg := []Flow{{Path: short, Demand: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Estimate(EstimateConservativeClique, bg, path); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAdmitSequence is the repeat-query workload of the memo
// subsystem: E4-style sequential admission of 16 requests (the Sec. 5.2
// eight random pairs, twice, so later requests repeat earlier paths) on
// the 30-node random topology. With a cache the set families persist
// and the availability LPs warm-start across steps and iterations; cold
// re-derives everything. Decisions are identical either way (pinned by
// the routing/core property tests).
func benchAdmitSequence(b *testing.B, cache *memo.Cache) {
	b.Helper()
	net, m, reqs, err := experiments.Fig2Setup()
	if err != nil {
		b.Fatal(err)
	}
	reqs = append(reqs, reqs...) // repeated pairs: the daemon's steady state
	opts := routing.AdmissionOptions{Core: core.Options{Cache: cache}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs, err := routing.SequentialAdmissionContext(context.Background(), net, m, routing.MetricHopCount, reqs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(decs) != len(reqs) {
			b.Fatalf("%d decisions for %d requests", len(decs), len(reqs))
		}
	}
}

// BenchmarkAdmitSequenceCold runs the admission sequence with the memo
// subsystem disabled: every step enumerates and solves from scratch.
func BenchmarkAdmitSequenceCold(b *testing.B) { benchAdmitSequence(b, nil) }

// BenchmarkAdmitSequenceWarm runs the same sequence with the cache and
// LP warm-starting enabled — the long-lived controller workload.
func BenchmarkAdmitSequenceWarm(b *testing.B) { benchAdmitSequence(b, memo.New(0)) }

// benchAdmitGrowth is the Sec. 5.2 install workload delta growth
// exists for: flows whose paths extend hop by hop down a chain, so each
// admission step grows the enumeration universe by one link and misses
// the exact-key cache. The setup runs the real admission once to
// capture the per-install-step universes (LinkUnion of the admitted
// background plus the candidate path, exactly what admitOne hands to
// the availability query); the timed loop then replays the per-step
// family derivation through the memo cache. A fresh cache per iteration
// keeps every step on the growth path (a shared cache would degenerate
// to pure hits after the first iteration). Grown, each step's family
// is memo.Cache.GrowContext from the previous step's (the survivor
// strip + new-link walk); full, each step enumerates the grown universe
// from scratch — the cost gap is the per-install speedup. The LP and
// routing stages are identical either way (pinned by the routing
// property tests), so they stay out of the timed loop.
func benchAdmitGrowth(b *testing.B, grow bool) {
	b.Helper()
	sys, err := NewSystem(Line(27, 100))
	if err != nil {
		b.Fatal(err)
	}
	net, m := sys.Network(), sys.Model()
	reqs := make([]routing.Request, 0, 25)
	for dst := topology.NodeID(2); dst <= 26; dst++ {
		reqs = append(reqs, routing.Request{Src: 0, Dst: dst, Demand: 0.05})
	}
	decs, err := routing.SequentialAdmissionContext(context.Background(), net, m, routing.MetricHopCount, reqs,
		routing.AdmissionOptions{Core: core.Options{Cache: memo.New(0)}})
	if err != nil {
		b.Fatal(err)
	}
	if len(decs) != len(reqs) {
		b.Fatalf("%d decisions for %d requests", len(decs), len(reqs))
	}
	universes := make([][]topology.LinkID, 0, len(decs))
	var admitted []topology.Path
	for _, dec := range decs {
		u := topology.LinkUnion(append(admitted[:len(admitted):len(admitted)], dec.Path)...)
		if n := len(universes); n > 0 && len(topology.LinkUnion(universes[n-1], u)) != len(u) {
			b.Fatalf("step %d's universe does not contain step %d's", n, n-1)
		}
		universes = append(universes, u)
		if dec.Admitted {
			admitted = append(admitted, dec.Path)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := memo.New(0)
		var base indepset.DeltaBase
		for _, u := range universes {
			if !grow {
				if _, err := cache.EnumerateContext(ctx, m, u, indepset.Options{}); err != nil {
					b.Fatal(err)
				}
				continue
			}
			sets, explored, err := cache.GrowContext(ctx, m, base, u, indepset.Options{})
			if err != nil {
				b.Fatal(err)
			}
			base = indepset.DeltaBase{Universe: u, Sets: sets, Explored: explored}
		}
		if st := cache.Stats(); grow && st.DeltaHits == 0 {
			b.Fatalf("growth workload never took the delta path: %+v", st)
		}
	}
}

// BenchmarkAdmitSequenceDelta runs the growing-universe install
// sequence with delta growth: each step's set family is grown from the
// previous step's through memo.Cache.GrowContext.
func BenchmarkAdmitSequenceDelta(b *testing.B) { benchAdmitGrowth(b, true) }

// BenchmarkAdmitSequenceGrowthFull is the same install sequence with
// every step enumerated through memo.Cache.EnumerateContext — a full
// walk of the grown universe. The ratio to BenchmarkAdmitSequenceDelta
// is the per-install speedup the tier-1 gate protects.
func BenchmarkAdmitSequenceGrowthFull(b *testing.B) { benchAdmitGrowth(b, false) }

// BenchmarkDemandSweep regenerates E11 (the Fig. 4 estimator-error
// sweep across background demand levels).
func BenchmarkDemandSweep(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkRateDiversityAblation regenerates E12 (multirate vs
// single-rate profiles on the Sec. 5.2 deployment).
func BenchmarkRateDiversityAblation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkEstimatorAdmission regenerates E13 (estimator-driven
// admission vs the exact oracle).
func BenchmarkEstimatorAdmission(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkGreedyVsOptimal regenerates E14 (greedy TDMA scheduler vs
// the LP optimum).
func BenchmarkGreedyVsOptimal(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkFairAllocation regenerates E15 (max-min fair allocation).
func BenchmarkFairAllocation(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkInterferenceModelAblation regenerates E16 (physical vs
// protocol interference model capacities).
func BenchmarkInterferenceModelAblation(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkCSRangeSensitivity regenerates E17 (carrier-sense range vs
// estimator accuracy).
func BenchmarkCSRangeSensitivity(b *testing.B) { benchExperiment(b, "E17") }
