package abw

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lineSystem(t *testing.T, n int, spacing float64) *System {
	t.Helper()
	sys, err := NewSystem(Line(n, spacing))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemLayouts(t *testing.T) {
	tests := []struct {
		name   string
		layout Layout
		nodes  int
	}{
		{"line", Line(5, 50), 5},
		{"grid", Grid(9, 3, 50), 9},
		{"random", Random(30, 400, 600, 1), 30},
		{"positions", Positions(Point{X: 0}, Point{X: 50}), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys, err := NewSystem(tt.layout)
			if err != nil {
				t.Fatal(err)
			}
			if sys.NumNodes() != tt.nodes {
				t.Errorf("NumNodes = %d, want %d", sys.NumNodes(), tt.nodes)
			}
			if sys.Network() == nil || sys.Model() == nil {
				t.Error("accessors returned nil")
			}
		})
	}
}

func TestNewSystemErrors(t *testing.T) {
	bad := []struct {
		name   string
		layout Layout
	}{
		{"nil", nil},
		{"empty positions", Positions()},
		{"bad random", Random(0, 400, 600, 1)},
		{"bad grid", Grid(0, 3, 50)},
		{"bad line", Line(3, 0)},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSystem(tt.layout); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPathCapacityChain(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("chain capacity should be feasible")
	}
	// The 4-hop 100m chain supports exactly 54/11 Mbps (link adaptation
	// reuses hop 0 at 6 Mbps beside hop 3 at 18).
	if math.Abs(res.Bandwidth-54.0/11) > 1e-6 {
		t.Errorf("capacity = %.6f, want 54/11 = %.6f", res.Bandwidth, 54.0/11)
	}
	if err := res.Schedule.Validate(sys.Model()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestAvailableBandwidthWithBackground(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	bg := []Flow{{Path: path, Demand: 2}}
	res, err := sys.AvailableBandwidth(bg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("2 Mbps background should be schedulable")
	}
	want := 54.0/11 - 2
	if math.Abs(res.Bandwidth-want) > 1e-6 {
		t.Errorf("available = %.6f, want %.6f", res.Bandwidth, want)
	}
	// Infeasible background.
	overload := []Flow{{Path: path, Demand: 100}}
	res, err = sys.AvailableBandwidth(overload, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("100 Mbps background should be infeasible")
	}
}

func TestUpperBoundDominatesExact(t *testing.T) {
	sys := lineSystem(t, 4, 100)
	path, err := sys.PathBetween(0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sys.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := sys.UpperBound(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if ub < exact.Bandwidth-1e-6 {
		t.Errorf("upper bound %.4f below exact %.4f", ub, exact.Bandwidth)
	}
}

func TestRouteMetrics(t *testing.T) {
	sys := lineSystem(t, 5, 50)
	for _, metric := range []RouteMetric{RouteHopCount, RouteE2ETD, RouteAvgE2ED} {
		path, err := sys.Route(metric, 0, 4, nil)
		if err != nil {
			t.Errorf("%v: %v", metric, err)
			continue
		}
		if err := sys.Network().ValidatePath(path); err != nil {
			t.Errorf("%v produced invalid path: %v", metric, err)
		}
	}
}

func TestAdmitSequence(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	reqs := []Request{
		{Src: 0, Dst: 4, Demand: 2},
		{Src: 0, Dst: 4, Demand: 2},
		{Src: 0, Dst: 4, Demand: 2},
	}
	decs, err := sys.Admit(RouteAvgE2ED, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Admitted || !decs[1].Admitted {
		t.Error("first two 2 Mbps flows should fit in 54/11 Mbps")
	}
	if len(decs) != 3 || decs[2].Admitted {
		t.Errorf("third flow should fail (%.3f available)", decs[2].Available)
	}
}

// TestAdmitWithCacheMatchesUncached pins the facade contract of
// WithCache: same decisions and bandwidths as a cache-less system, with
// the counters proving the cache actually engaged.
func TestAdmitWithCacheMatchesUncached(t *testing.T) {
	plain := lineSystem(t, 5, 100)
	cached, err := NewSystem(Line(5, 100), WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Src: 0, Dst: 4, Demand: 2},
		{Src: 1, Dst: 3, Demand: 1},
		{Src: 0, Dst: 4, Demand: 2},
		{Src: 0, Dst: 4, Demand: 2},
	}
	want, err := plain.Admit(RouteAvgE2ED, reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Admit(RouteAvgE2ED, reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d decisions cached, %d uncached", len(got), len(want))
	}
	for i := range want {
		if got[i].Admitted != want[i].Admitted {
			t.Errorf("decision %d: admitted %v cached, %v uncached", i, got[i].Admitted, want[i].Admitted)
		}
		if math.Abs(got[i].Available-want[i].Available) > 1e-7 {
			t.Errorf("decision %d: available %.12g cached, %.12g uncached",
				i, got[i].Available, want[i].Available)
		}
	}
	st := cached.CacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("cache never engaged: %+v", st)
	}
	if zero := plain.CacheStats(); zero.Hits != 0 || zero.Misses != 0 {
		t.Errorf("cache-less system reports activity: %+v", zero)
	}
}

func TestEstimators(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	short, err := sys.PathBetween(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bg := []Flow{{Path: short, Demand: 3}}
	all, err := sys.EstimateAll(bg, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("got %d estimates, want 5", len(all))
	}
	single, err := sys.Estimate(EstimateConservativeClique, bg, path)
	if err != nil {
		t.Fatal(err)
	}
	if single != all[EstimateConservativeClique] {
		t.Error("Estimate disagrees with EstimateAll")
	}
	// Dominance chain from the paper holds through the facade.
	if all[EstimateECTT] > all[EstimateConservativeClique]+1e-9 {
		t.Error("ECTT should not exceed conservative clique")
	}
	if all[EstimateMinOfBoth] > all[EstimateCliqueConstraint]+1e-9 ||
		all[EstimateMinOfBoth] > all[EstimateBottleneckNode]+1e-9 {
		t.Error("min-of-both should not exceed its components")
	}
}

func TestSimulateDeliversSchedule(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	delivered, err := sys.Simulate(res.Schedule, []Flow{{Path: path, Demand: res.Bandwidth}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if delivered[0] < 0.85*res.Bandwidth {
		t.Errorf("simulated goodput %.3f far below scheduled %.3f", delivered[0], res.Bandwidth)
	}
}

func TestFeasibleDemandsAndScale(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ok, sched, err := sys.FeasibleDemands([]Flow{{Path: path, Demand: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("4 Mbps should be feasible on a 54/11 Mbps chain")
	}
	if err := sched.Validate(sys.Model()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	theta, err := sys.MaxDemandScale(nil, []Flow{{Path: path, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-54.0/11) > 1e-6 {
		t.Errorf("theta = %.6f, want 54/11", theta)
	}
}

func TestRouteByEstimate(t *testing.T) {
	sys, err := NewSystem(Grid(9, 3, 80))
	if err != nil {
		t.Fatal(err)
	}
	path, est, err := sys.RouteByEstimate(EstimateConservativeClique, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Errorf("estimate = %g", est)
	}
	if err := sys.Network().ValidatePath(path); err != nil {
		t.Errorf("invalid path: %v", err)
	}
	// The returned estimate matches evaluating the estimator directly.
	direct, err := sys.Estimate(EstimateConservativeClique, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-direct) > 1e-9 {
		t.Errorf("router estimate %.4f != direct %.4f", est, direct)
	}
}

func TestDistributedRouteMatchesCentralized(t *testing.T) {
	sys, err := NewSystem(Grid(9, 3, 80))
	if err != nil {
		t.Fatal(err)
	}
	dvPath, stats, err := sys.DistributedRoute(RouteE2ETD, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds <= 0 || stats.Messages <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	central, err := sys.Route(RouteE2ETD, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both must achieve the same e2eTD cost (paths may tie).
	cost := func(p Path) float64 {
		total := 0.0
		for _, lid := range p {
			l, err := sys.Network().Link(lid)
			if err != nil {
				t.Fatal(err)
			}
			total += 1 / float64(l.MaxRate)
		}
		return total
	}
	if math.Abs(cost(dvPath)-cost(central)) > 1e-9 {
		t.Errorf("dv cost %.6f != centralized %.6f", cost(dvPath), cost(central))
	}
}

func TestMaxMinFairFacade(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	alloc, sched, err := sys.MaxMinFair([]Flow{{Path: path}, {Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	// Two identical flows split the 54/11 chain capacity evenly.
	want := 54.0 / 11 / 2
	for j, a := range alloc {
		if math.Abs(a-want) > 1e-6 {
			t.Errorf("flow %d allocation = %.4f, want %.4f", j, a, want)
		}
	}
	if err := sched.Validate(sys.Model()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestGreedyScheduleFacade(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sched, ok, err := sys.GreedySchedule([]Flow{{Path: path, Demand: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("4 Mbps per hop should fit greedily")
	}
	if err := sched.Validate(sys.Model()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if _, _, err := sys.GreedySchedule([]Flow{{Path: path, Demand: 0}}); err == nil {
		t.Error("zero demand: expected error")
	}
}

func TestFixedRateCliqueBoundFacade(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sys.FixedRateCliqueBound(path)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sys.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: the fixed-rate clique "bound" falls below the
	// multirate optimum here (4.5 < 54/11).
	if bound >= exact.Bandwidth {
		t.Errorf("fixed-rate bound %.4f should sit below the multirate optimum %.4f on this chain",
			bound, exact.Bandwidth)
	}
	if math.Abs(bound-4.5) > 1e-9 {
		t.Errorf("fixed-rate bound = %.4f, want 18/4 = 4.5", bound)
	}
}

// TestStrayLinksAreErrors: every System method that takes a path or
// flows refuses a link that is not in the network with an error naming
// it, instead of answering as if it were a link no set serves. The
// check allocates nothing on valid input.
func TestStrayLinksAreErrors(t *testing.T) {
	sys := lineSystem(t, 4, 50)
	good, err := sys.PathBetween(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	goodFlows := []Flow{{Path: good, Demand: 1}}
	for _, stray := range []LinkID{9999, -1, LinkID(sys.NumLinks())} {
		bad := Path{good[0], stray}
		flows := []Flow{{Path: good, Demand: 1}, {Path: bad, Demand: 1}}
		calls := []struct {
			name string
			call func() error
		}{
			{"AvailableBandwidth path", func() error { _, err := sys.AvailableBandwidth(goodFlows, bad); return err }},
			{"AvailableBandwidth background", func() error { _, err := sys.AvailableBandwidth(flows, good); return err }},
			{"PathCapacity", func() error { _, err := sys.PathCapacity(bad); return err }},
			{"UpperBound path", func() error { _, err := sys.UpperBound(nil, bad); return err }},
			{"UpperBound background", func() error { _, err := sys.UpperBound(flows, good); return err }},
			{"Route", func() error { _, err := sys.Route(RouteAvgE2ED, 0, 3, flows); return err }},
			{"DistributedRoute", func() error { _, _, err := sys.DistributedRoute(RouteAvgE2ED, 0, 3, flows); return err }},
			{"RouteByEstimate", func() error { _, _, err := sys.RouteByEstimate(EstimateConservativeClique, 0, 3, flows); return err }},
			{"Estimate path", func() error { _, err := sys.Estimate(EstimateConservativeClique, nil, bad); return err }},
			{"Estimate background", func() error { _, err := sys.Estimate(EstimateConservativeClique, flows, good); return err }},
			{"Explain", func() error { _, err := sys.Explain(EstimateBottleneckNode, nil, bad); return err }},
			{"EstimateAll", func() error { _, err := sys.EstimateAll(flows, good); return err }},
			{"Simulate", func() error { _, err := sys.Simulate(Schedule{}, flows, 1); return err }},
			{"GreedySchedule", func() error { _, _, err := sys.GreedySchedule(flows); return err }},
			{"FixedRateCliqueBound", func() error { _, err := sys.FixedRateCliqueBound(bad); return err }},
			{"FeasibleDemands", func() error { _, _, err := sys.FeasibleDemands(flows); return err }},
			{"MaxMinFair", func() error { _, _, err := sys.MaxMinFair(flows); return err }},
			{"MaxDemandScale background", func() error { _, err := sys.MaxDemandScale(flows, goodFlows); return err }},
			{"MaxDemandScale new flows", func() error { _, err := sys.MaxDemandScale(goodFlows, flows); return err }},
		}
		want := fmt.Sprintf("link %d is not in the network", stray)
		for _, c := range calls {
			if err := c.call(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with link %d: error %v, want one containing %q", c.name, stray, err, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := sys.checkPaths(good, goodFlows, goodFlows); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checking valid paths allocates %v times, want 0", n)
	}
}

func TestExplainFacade(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Explain(EstimateConservativeClique, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Estimate(EstimateConservativeClique, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp.Value-direct) > 1e-9 {
		t.Errorf("explain %.4f != estimate %.4f", exp.Value, direct)
	}
	if exp.BindingClique.Len() == 0 {
		t.Error("expected a binding clique on a chain")
	}
}

func TestSystemOptions(t *testing.T) {
	// Larger CS factor: more nodes sense a transmitter.
	small, err := NewSystem(Line(4, 100), WithCSRangeFactor(1.0))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewSystem(Line(4, 100), WithCSRangeFactor(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if small.Network().Profile().CSRange() >= big.Network().Profile().CSRange() {
		t.Error("CS range factor not applied")
	}
	// Noise margin: more headroom means concurrent sets survive more
	// interference, so capacity can only rise.
	quiet, err := NewSystem(Line(5, 100), WithNoiseMarginDB(10))
	if err != nil {
		t.Fatal(err)
	}
	loud := lineSystem(t, 5, 100)
	path := Path{}
	path, err = loud.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := quiet.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	loudCap, err := loud.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	quietCap, err := quiet.PathCapacity(qp)
	if err != nil {
		t.Fatal(err)
	}
	if quietCap.Bandwidth < loudCap.Bandwidth-1e-9 {
		t.Errorf("lower noise (%.4f) should not reduce capacity vs default (%.4f)",
			quietCap.Bandwidth, loudCap.Bandwidth)
	}
}

// TestWithCacheDirWarmRestart pins the facade contract of WithCacheDir:
// a System spills its set families to the directory, and a second
// System opened on the same directory answers its first query from
// disk — no enumeration, identical bandwidth.
func TestWithCacheDirWarmRestart(t *testing.T) {
	dir := t.TempDir()
	first, err := NewSystem(Line(5, 100), WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	path, err := first.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.CacheStats(); st.Misses == 0 || st.DiskMisses == 0 {
		t.Fatalf("cold system should miss memory and disk: %+v", st)
	}
	if err := first.Close(); err != nil { // flushes the spill to disk
		t.Fatal(err)
	}

	second, err := NewSystem(Line(5, 100), WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	got, err := second.PathCapacity(path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Bandwidth-want.Bandwidth) > 1e-12 {
		t.Errorf("warm bandwidth %.12g, cold %.12g", got.Bandwidth, want.Bandwidth)
	}
	st := second.CacheStats()
	if st.DiskHits == 0 {
		t.Errorf("restarted system never hit the disk spill: %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("restarted system re-enumerated %d families: %+v", st.Misses, st)
	}
}

// TestWithCacheDirOpenError pins that an unusable cache directory fails
// System construction instead of being silently ignored.
func TestWithCacheDirOpenError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(Line(4, 100), WithCacheDir(file)); err == nil {
		t.Error("NewSystem accepted a file as the cache directory")
	}
}

// TestCloseWithoutCache pins that Close is a safe no-op on systems
// built without any cache.
func TestCloseWithoutCache(t *testing.T) {
	sys := lineSystem(t, 4, 100)
	if err := sys.Close(); err != nil {
		t.Errorf("Close on cache-less system: %v", err)
	}
}

func TestWithTraceObservesQuery(t *testing.T) {
	sys := lineSystem(t, 5, 100)
	path, err := sys.PathBetween(0, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	bg := []Flow{{Path: path, Demand: 2}}
	plain, err := sys.AvailableBandwidth(bg, path)
	if err != nil {
		t.Fatal(err)
	}

	ctx, span := WithTrace(context.Background())
	traced, err := sys.AvailableBandwidthContext(ctx, bg, path)
	if err != nil {
		t.Fatal(err)
	}
	// Tracing only observes the computation.
	if math.Float64bits(traced.Bandwidth) != math.Float64bits(plain.Bandwidth) ||
		traced.Feasible != plain.Feasible {
		t.Fatalf("traced result differs: %+v vs %+v", traced, plain)
	}
	td := span.Trace()
	if td == nil || td.TotalNs <= 0 || len(td.Stages) == 0 {
		t.Fatalf("empty trace: %+v", td)
	}
	seen := map[string]bool{}
	var sets int64
	for _, st := range td.Stages {
		seen[string(st.Stage)] = true
		sets += st.Sets
	}
	if !seen["enumerate"] || !seen["lp_solve"] {
		t.Fatalf("trace stages: %v", seen)
	}
	if sets <= 0 {
		t.Fatalf("trace recorded no enumerated sets: %+v", td.Stages)
	}
}
