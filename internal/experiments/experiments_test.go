package experiments

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"abw/internal/estimate"
	"abw/internal/routing"
)

// TestScenarioIPaperNumbers asserts E1 reproduces the introduction's
// closed forms exactly.
func TestScenarioIPaperNumbers(t *testing.T) {
	tbl, err := ScenarioI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertCell(t, tbl, 0, 1, "37.80")
	assertCell(t, tbl, 1, 1, "21.60")
}

// TestScenarioIIPaperNumbers asserts E2 reproduces Sec. 5.1 exactly:
// 16.2 / 13.5 / 108/7 / 1.2 / 1.05.
func TestScenarioIIPaperNumbers(t *testing.T) {
	tbl, err := ScenarioII(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertCell(t, tbl, 0, 1, "16.2000")
	assertCell(t, tbl, 1, 1, "13.5000")
	assertCell(t, tbl, 2, 1, "15.4286")
	assertCell(t, tbl, 3, 1, "1.2000")
	assertCell(t, tbl, 4, 1, "1.0500")
	// The schedule must use the paper's link-adaptation slot.
	if !strings.Contains(tbl.Rows[5][1], "(L0, 36Mbps), (L3, 54Mbps)") {
		t.Errorf("schedule cell %q lacks the (L1,36)+(L4,54) slot", tbl.Rows[5][1])
	}
}

// TestFig3Ordering asserts E4's headline: hop count fails first, then
// e2eTD, then average-e2eD (paper: flows 3, 5, 8; this seed: 3, 5, 7).
func TestFig3Ordering(t *testing.T) {
	fails, err := FirstFailures()
	if err != nil {
		t.Fatal(err)
	}
	h := fails[routing.MetricHopCount]
	e := fails[routing.MetricE2ETD]
	a := fails[routing.MetricAvgE2ED]
	if !(h < e && e < a) {
		t.Errorf("failure ordering broken: hop=%d e2eTD=%d avg=%d", h, e, a)
	}
	if h != 3 || e != 5 || a != 7 {
		t.Errorf("calibrated seed drifted: got (%d,%d,%d), want (3,5,7)", h, e, a)
	}
}

// TestFig4Shape asserts the paper's Fig. 4 qualitative claims on the
// calibrated run.
func TestFig4Shape(t *testing.T) {
	rows, err := Fig4Series(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != NumFlows {
		t.Fatalf("got %d rows, want %d", len(rows), NumFlows)
	}
	type agg struct{ mae float64 }
	maes := map[estimate.Metric]*agg{}
	for _, m := range estimate.AllMetrics() {
		maes[m] = &agg{}
	}
	for _, r := range rows {
		for _, m := range estimate.AllMetrics() {
			maes[m].mae += math.Abs(r.Estimates[m] - r.Exact)
		}
	}
	// Conservative clique performs best (paper's conclusion).
	cons := maes[estimate.MetricConservativeClique].mae
	for _, m := range estimate.AllMetrics() {
		if m == estimate.MetricConservativeClique {
			continue
		}
		if maes[m].mae < cons-1e-9 {
			t.Errorf("%v (MAE %.3f) beats conservative clique (MAE %.3f)", m, maes[m].mae/float64(len(rows)), cons/float64(len(rows)))
		}
	}
	// ECTT sits at or below conservative clique pointwise (Sec. 5.3:
	// "obtains lower values").
	for _, r := range rows {
		if r.Estimates[estimate.MetricExpectedCliqueTime] > r.Estimates[estimate.MetricConservativeClique]+1e-9 {
			t.Errorf("flow %d: ECTT %.3f above conservative %.3f", r.Flow,
				r.Estimates[estimate.MetricExpectedCliqueTime], r.Estimates[estimate.MetricConservativeClique])
		}
	}
	// Clique constraint ignores background: over-estimates under heavy
	// load (last flows) and under-estimates the multirate optimum under
	// light load (early flows where background is thin).
	last := rows[len(rows)-1]
	if last.Estimates[estimate.MetricCliqueConstraint] <= last.Exact {
		t.Errorf("heavy load: clique constraint %.3f should over-estimate exact %.3f",
			last.Estimates[estimate.MetricCliqueConstraint], last.Exact)
	}
	underLight := false
	for _, r := range rows[:3] {
		if r.Estimates[estimate.MetricCliqueConstraint] < r.Exact-1e-9 {
			underLight = true
		}
	}
	if !underLight {
		t.Error("light load: clique constraint never under-estimated the exact value in the first flows")
	}
	// Bottleneck ignores intra-path interference: over-estimates under
	// light load.
	first := rows[0]
	if first.Estimates[estimate.MetricBottleneckNode] <= first.Exact {
		t.Errorf("light load: bottleneck %.3f should over-estimate exact %.3f",
			first.Estimates[estimate.MetricBottleneckNode], first.Exact)
	}
}

func TestEq9AndLowerBoundTables(t *testing.T) {
	up, err := Eq9UpperBound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Rows) != 4 {
		t.Errorf("E6 rows = %d, want 4", len(up.Rows))
	}
	lb, err := LowerBounds(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Rows) != 4 {
		t.Errorf("E7 rows = %d, want 4", len(lb.Rows))
	}
	assertCell(t, lb, 3, 1, "16.2000")
}

func TestAdaptationAblationTable(t *testing.T) {
	tbl, err := AdaptationAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 16 fixed assignments + multirate row.
	if len(tbl.Rows) != 17 {
		t.Fatalf("rows = %d, want 17", len(tbl.Rows))
	}
	// Every fixed capacity must be strictly below 16.2.
	for _, row := range tbl.Rows[:16] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("unparseable capacity %q: %v", row[1], err)
		}
		if v >= 16.2-1e-9 {
			t.Errorf("fixed assignment %s reached %.4f", row[0], v)
		}
	}
	assertCell(t, tbl, 16, 1, "16.2000")
}

func TestValidationTables(t *testing.T) {
	sv, err := SimValidation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Rows) != 3 {
		t.Errorf("E9 rows = %d, want 3", len(sv.Rows))
	}
	ci, err := CSMAIdle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Rows) != 6 {
		t.Errorf("E10 rows = %d, want 6", len(ci.Rows))
	}
}

func TestRegistryAndRun(t *testing.T) {
	reg := Registry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(reg))
	}
	tbl, err := Run(context.Background(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E1" {
		t.Errorf("Run(e1) returned %s", tbl.ID)
	}
	if _, err := Run(context.Background(), "nope"); err == nil {
		t.Error("unknown id: expected error")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 1)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a  bb", "1  2", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func assertCell(t *testing.T, tbl *Table, row, col int, want string) {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d)", tbl.ID, row, col)
	}
	if got := tbl.Rows[row][col]; got != want {
		t.Errorf("table %s cell (%d,%d) = %q, want %q", tbl.ID, row, col, got, want)
	}
}

// TestEstimatorAdmissionSafety asserts E13's operational claim: the
// conservative clique constraint never over-admits, while the bare
// clique constraint does.
func TestEstimatorAdmissionSafety(t *testing.T) {
	tbl, err := EstimatorAdmission(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	cells := map[string][]string{}
	for _, row := range tbl.Rows {
		cells[row[0]] = row
	}
	if cells["clique constraint"][2] == "0" {
		t.Error("clique constraint should over-admit on this workload")
	}
	if got := cells["conservative clique constraint"][2]; got != "0" {
		t.Errorf("conservative clique false admits = %s, want 0", got)
	}
	if got := cells["expected clique transmission time"][2]; got != "0" {
		t.Errorf("ECTT false admits = %s, want 0", got)
	}
}

// TestGreedyVsOptimalEfficiency asserts E14: greedy reaches the LP
// optimum on all chain workloads (within binary-search tolerance) and
// never exceeds it.
func TestGreedyVsOptimalEfficiency(t *testing.T) {
	tbl, err := GreedyVsOptimal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		opt, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if greedy > opt+1e-6 {
			t.Errorf("%s: greedy %.4f exceeds the optimum %.4f", row[0], greedy, opt)
		}
		if greedy < 0.99*opt {
			t.Errorf("%s: greedy %.4f far below the optimum %.4f", row[0], greedy, opt)
		}
	}
}

// TestFairAllocationShapes asserts E15's workload results.
func TestFairAllocationShapes(t *testing.T) {
	tbl, err := FairAllocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 7 {
		t.Fatalf("rows = %d, want at least 7", len(tbl.Rows))
	}
	// Scenario I: all three at 27.
	for i := 0; i < 3; i++ {
		assertCell(t, tbl, i, 2, "27.000")
	}
	// Scenario II twins at 8.1.
	assertCell(t, tbl, 3, 2, "8.100")
	assertCell(t, tbl, 4, 2, "8.100")
	// Random deployment: every share at least the 2 Mbps the admission
	// experiment demanded (fairness should not undercut admitted flows).
	for i := 5; i < len(tbl.Rows); i++ {
		v, err := strconv.ParseFloat(tbl.Rows[i][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 2 {
			t.Errorf("row %d fair share %.3f below the admitted 2 Mbps", i, v)
		}
	}
}

// TestRunAllProducesEveryTable smoke-runs the complete registry — the
// exact pipeline cmd/abwsim executes.
func TestRunAllProducesEveryTable(t *testing.T) {
	tables, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Registry()) {
		t.Fatalf("got %d tables, want %d", len(tables), len(Registry()))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
		if tbl.Title == "" || len(tbl.Header) == 0 {
			t.Errorf("%s missing title or header", tbl.ID)
		}
	}
}

// TestInterferenceModelAblation asserts E16: the pairwise protocol
// model is never less optimistic than the cumulative physical model.
func TestInterferenceModelAblation(t *testing.T) {
	tbl, err := InterferenceModelAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	sawGap := false
	for _, row := range tbl.Rows {
		phys, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if prot < phys-1e-6 {
			t.Errorf("%s: protocol %.4f below physical %.4f", row[0], prot, phys)
		}
		if prot > phys+1e-6 {
			sawGap = true
		}
	}
	if !sawGap {
		t.Error("expected at least one chain where the models disagree")
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "b|c"}}
	tbl.AddRow("1", "2|3")
	tbl.AddNote("watch out")
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## X — demo", "| a | b\\|c |", "|---|---|", "| 1 | 2\\|3 |", "> watch out"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllParallelMatchesSequential checks the concurrent runner
// produces byte-identical tables in the same order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	seq, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllParallel(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		var a, b bytes.Buffer
		if err := seq[i].Render(&a); err != nil {
			t.Fatal(err)
		}
		if err := par[i].Render(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("table %s differs between sequential and parallel runs", seq[i].ID)
		}
	}
}

// TestCSRangeSensitivityShape asserts E17: longer carrier-sense ranges
// lower the mean idleness monotonically.
func TestCSRangeSensitivityShape(t *testing.T) {
	tbl, err := CSRangeSensitivity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	prev := 2.0
	for _, row := range tbl.Rows {
		idle, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if idle > prev+1e-9 {
			t.Errorf("mean idleness rose to %.3f as CS range grew (row %s)", idle, row[0])
		}
		prev = idle
	}
}

// TestFig2RouteDivergence asserts E3: the calibrated run shows exactly
// the paper's Fig. 2 pattern — routes mostly shared, with a divergence
// between average-e2eD and e2eTD (flow 5 on this seed).
func TestFig2RouteDivergence(t *testing.T) {
	tbl, err := Fig2Topology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != NumFlows {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), NumFlows)
	}
	diverged := 0
	for _, row := range tbl.Rows {
		if row[4] == "YES" {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("expected at least one route divergence (the paper's dotted arrows)")
	}
	if diverged == NumFlows {
		t.Error("all routes diverged — metrics should mostly agree at low load")
	}
	if tbl.Rows[4][4] != "YES" {
		t.Errorf("calibrated seed drifted: flow 5 should diverge, got %v", tbl.Rows[4])
	}
}

// TestDemandSweepConservativeAlwaysBest asserts E11's conclusion at
// every load level.
func TestDemandSweepConservativeAlwaysBest(t *testing.T) {
	tbl, err := DemandSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[6] != "conservative clique constraint" {
			t.Errorf("level %s: best = %q, want conservative clique", row[0], row[6])
		}
	}
}

// TestRateDiversityDominance asserts E12: the multirate profile admits
// at least as much demand as every single-rate variant.
func TestRateDiversityDominance(t *testing.T) {
	tbl, err := RateDiversityAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	multi, err := strconv.Atoi(tbl.Rows[0][3])
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows[1:] {
		single, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatal(err)
		}
		if single > multi {
			t.Errorf("%s admitted %d > multirate %d", row[0], single, multi)
		}
	}
}
