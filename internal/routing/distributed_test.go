package routing

import (
	"errors"
	"testing"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/geom"
	"abw/internal/graph"
	"abw/internal/radio"
	"abw/internal/topology"
)

func gridNet(t *testing.T, n, cols int, spacing float64) (*topology.Network, *conflict.Physical) {
	t.Helper()
	net, err := topology.New(radio.NewProfile80211a(), geom.GridPoints(n, cols, spacing))
	if err != nil {
		t.Fatal(err)
	}
	return net, conflict.NewPhysical(net)
}

func TestDistributedRouterFindsPath(t *testing.T) {
	net, m := gridNet(t, 9, 3, 80)
	router, err := NewDistributedRouter(net, m, estimate.MetricConservativeClique, allIdle(net))
	if err != nil {
		t.Fatal(err)
	}
	path, est, err := router.Route(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Errorf("estimate = %g, want positive", est)
	}
	if err := net.ValidatePath(path); err != nil {
		t.Errorf("invalid path: %v", err)
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0] != 0 || nodes[len(nodes)-1] != 8 {
		t.Errorf("endpoints wrong: %v", nodes)
	}
}

func TestDistributedRouterAvoidsBusyRegion(t *testing.T) {
	// Same fixture as TestAvgE2EDAvoidsBusyNodes: two relays, one busy.
	prof := radio.NewProfile80211a()
	net, err := topology.New(prof, []geom.Point{
		{X: 0, Y: 0},
		{X: 50, Y: 40},  // busy relay (node 1)
		{X: 50, Y: -40}, // idle relay (node 2)
		{X: 100, Y: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := conflict.NewPhysical(net)
	idle := []float64{1, 0.05, 1, 1}
	router, err := NewDistributedRouter(net, m, estimate.MetricConservativeClique, idle)
	if err != nil {
		t.Fatal(err)
	}
	path, est, err := router.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n == 1 {
			t.Errorf("routed through busy node: %v (estimate %.2f)", nodes, est)
		}
	}
}

func TestDistributedRouterMatchesEstimatorOnLine(t *testing.T) {
	// On a line there is one loopless route; the router's estimate must
	// equal evaluating the estimator on it directly.
	net, m := lineNet(t, 4, 100)
	idle := allIdle(net)
	router, err := NewDistributedRouter(net, m, estimate.MetricCliqueConstraint, idle)
	if err != nil {
		t.Fatal(err)
	}
	path, est, err := router.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	linkIdle, err := estimate.LinkIdleRatios(net, idle, path)
	if err != nil {
		t.Fatal(err)
	}
	ps := estimate.PathState{Path: path, Idle: linkIdle}
	for _, lid := range path {
		ps.Rates = append(ps.Rates, conflict.AloneMaxRate(m, lid))
	}
	direct, err := estimate.CliqueConstraint(m, ps)
	if err != nil {
		t.Fatal(err)
	}
	if est != direct {
		t.Errorf("router estimate %.4f != direct %.4f", est, direct)
	}
}

func TestDistributedRouterPrefixMonotone(t *testing.T) {
	// The estimate of the returned path must not exceed the estimate of
	// any of its prefixes (adding hops only adds constraints).
	net, m := gridNet(t, 9, 3, 80)
	idle := allIdle(net)
	router, err := NewDistributedRouter(net, m, estimate.MetricConservativeClique, idle)
	if err != nil {
		t.Fatal(err)
	}
	path, est, err := router.Route(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(path); k++ {
		ps, err := pathState(net, m, idle, path[:k])
		if err != nil {
			t.Fatal(err)
		}
		prefixEst, err := estimate.ConservativeClique(m, ps)
		if err != nil {
			t.Fatal(err)
		}
		if est > prefixEst+1e-9 {
			t.Errorf("full-path estimate %.4f exceeds prefix[%d] estimate %.4f", est, k, prefixEst)
		}
	}
}

func TestDistributedRouterErrors(t *testing.T) {
	net, m := lineNet(t, 3, 100)
	idle := allIdle(net)
	if _, err := NewDistributedRouter(nil, m, estimate.MetricBottleneckNode, idle); err == nil {
		t.Error("nil network: expected error")
	}
	if _, err := NewDistributedRouter(net, m, estimate.MetricBottleneckNode, []float64{1}); err == nil {
		t.Error("short idleness: expected error")
	}
	router, err := NewDistributedRouter(net, m, estimate.MetricBottleneckNode, idle)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Route(0, 0); err == nil {
		t.Error("src==dst: expected error")
	}
	if _, _, err := router.Route(0, 99); err == nil {
		t.Error("dst out of range: expected error")
	}
	// Disconnected target.
	split, err := topology.New(radio.NewProfile80211a(), []geom.Point{{X: 0}, {X: 50}, {X: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	sm := conflict.NewPhysical(split)
	router2, err := NewDistributedRouter(split, sm, estimate.MetricBottleneckNode, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router2.Route(0, 2); !errors.Is(err, graph.ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}
