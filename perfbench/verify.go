package main

import (
	"context"
	"fmt"
	"math"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/geom"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/routing"
	"abw/internal/topology"
)

// relTol is the relative tolerance between a served bandwidth and the
// cold library solve of the same path under the same background.
const relTol = 1e-9

// build constructs the network and model from the node positions
// exactly as the server's PUT /v1/network handler does.
func (d *deployment) build() (*topology.Network, *conflict.Physical, error) {
	pts := make([]geom.Point, len(d.nodes))
	for i, n := range d.nodes {
		pts[i] = geom.Point{X: n.X, Y: n.Y}
	}
	net, err := topology.New(radio.NewProfile80211a(), pts)
	if err != nil {
		return nil, nil, fmt.Errorf("building the network: %w", err)
	}
	return net, conflict.NewPhysical(net), nil
}

// checker verifies served answers against cold, cache-free library
// solves: the route under the background's idle ratios, and Eq. 6 on
// that route by core.AvailableBandwidthContext.
type checker struct {
	net   *topology.Network
	model *conflict.Physical
}

func newChecker(d *deployment) (*checker, error) {
	net, model, err := d.build()
	if err != nil {
		return nil, err
	}
	return &checker{net: net, model: model}, nil
}

// coreFlows converts client-side flows to library flows.
func coreFlows(net *topology.Network, flows []flow) ([]core.Flow, error) {
	out := make([]core.Flow, 0, len(flows))
	for _, f := range flows {
		path, err := pathOf(net, f.nodes)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Flow{Path: path, Demand: f.demand})
	}
	return out, nil
}

func pathOf(net *topology.Network, nodes []int) (topology.Path, error) {
	ids := make([]topology.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = topology.NodeID(n)
	}
	return net.PathFromNodes(ids)
}

func nodesOf(net *topology.Network, path topology.Path) ([]int, error) {
	ids, err := net.PathNodes(path)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ids))
	for i, n := range ids {
		out[i] = int(n)
	}
	return out, nil
}

// check verifies the answer to a query or admission served against the
// given active flows.
func (c *checker) check(ctx context.Context, o op, flows []flow, got answer) error {
	if o.kind == opDelete {
		if got.status != 200 || got.id != o.id {
			return fmt.Errorf("delete %d answered %v", o.id, got)
		}
		return nil
	}
	bg, err := coreFlows(c.net, flows)
	if err != nil {
		return err
	}
	idle, err := routing.BackgroundIdlenessContext(ctx, c.net, c.model, bg, core.Options{})
	if err != nil {
		return err
	}
	path, err := routing.FindPath(c.net, c.model, routing.MetricAvgE2ED, idle, topology.NodeID(o.src), topology.NodeID(o.dst))
	if err != nil {
		return err
	}
	nodes, err := nodesOf(c.net, path)
	if err != nil {
		return err
	}
	res, err := core.AvailableBandwidthContext(ctx, c.model, bg, path, core.Options{})
	if err != nil {
		return err
	}
	want := answer{status: 200, nodes: nodes}
	if res.Status == lp.Optimal {
		want.ok, want.bw = true, res.Bandwidth
	}
	fits := want.ok && want.bw+1e-9 >= o.demand
	switch o.kind {
	case opQuery:
		want.admit = fits
	case opAdmit:
		want.ok = fits
		if !fits {
			want.nodes = nil
		}
	}
	want.status = expectedStatus(o, want)
	if got.ok != want.ok || got.admit != want.admit || !sameNodes(got.nodes, want.nodes) || !near(got.bw, want.bw) {
		return fmt.Errorf("%v %d->%d %.6g Mbps: served %v, cold library %v", o.kind, o.src, o.dst, o.demand, got, want)
	}
	return nil
}

func sameNodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// near reports a and b equal within relTol relative (with a 1e-12
// absolute floor for answers at zero).
func near(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= relTol*math.Max(math.Abs(a), math.Abs(b)) || diff <= 1e-12
}
