package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"abw/internal/experiments"
	"abw/internal/netjson"
	"abw/internal/routing"
	"abw/internal/topology"
)

// Workload names, as BENCHMARK.json lists them.
const (
	queryWarm  = "query-warm"
	queryCold  = "query-cold"
	admitChurn = "admit-churn"
)

var workloads = []string{queryWarm, queryCold, admitChurn}

// cached reports whether the workload runs abwd with -cache.
func cached(workload string) bool { return workload != queryCold }

const (
	// numQueries is the length of the query-warm list, the first part
	// of query-cold's.
	numQueries = 300
	// churnOps is the length of one admit-churn round: a fresh server
	// and its own seed-drawn sequence. The state the session retains
	// grows with it.
	churnOps = 2000
	// churnMinActive and churnMaxActive bound the active flow count.
	churnMinActive = 3
	churnMaxActive = 8
	// churnSample is how many operations of each admit-churn round are
	// checked against a cold library solve.
	churnSample = 8
	// churnMaxHops bounds a churn source's distance from the sink: the
	// sink's collection region. It leaves out the three corner nodes
	// five hops away, whose admissions over a background of other long
	// paths take up to 1.5 s each; a handful of them would decide a
	// run's throughput (BENCHMARK.md records that tail).
	churnMaxHops = 4
)

// nominalRate is each workload's operations per second of timed phase
// on a 2-vCPU x86-64 VM. The timed phase is a fixed number of
// operations, --seconds times this rate rounded up to whole rounds, so
// counts and memory repeat exactly whatever the machine's speed.
var nominalRate = map[string]float64{queryWarm: 5500, queryCold: 125, admitChurn: 2700}

// rounds is the number of rounds of roundOps operations that a timed
// phase of the given length runs.
func rounds(workload string, roundOps int, seconds float64) int {
	return int(math.Max(1, math.Ceil(seconds*nominalRate[workload]/float64(roundOps))))
}

type opKind uint8

const (
	opQuery opKind = iota
	opAdmit
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opQuery:
		return "query"
	case opAdmit:
		return "admit"
	default:
		return "delete"
	}
}

// op is one request of a workload: a query or admission of demand Mbps
// from src to dst, or the deletion of flow id.
type op struct {
	kind     opKind
	src, dst int
	demand   float64
	id       int
}

// deployment is the Sec. 5.2 / Fig. 2 network: 30 nodes whose
// topology seed is the paper's, plus its 8 flow requests. The workload
// seed never changes it.
type deployment struct {
	nodes []netjson.NodeSpec
	reqs  []routing.Request
	// sink is the convergecast sink of admit-churn: the node nearest
	// the middle of the area's far edge, where a gateway would sit.
	sink int
	// hops[s][d] is the fewest links from s to d, -1 when d is
	// unreachable from s.
	hops [][]int
}

func loadDeployment() (*deployment, error) {
	net, _, reqs, err := experiments.Fig2Setup()
	if err != nil {
		return nil, fmt.Errorf("building the Fig. 2 deployment: %w", err)
	}
	d := &deployment{reqs: reqs}
	best := math.Inf(1)
	for _, n := range net.Nodes() {
		d.nodes = append(d.nodes, netjson.NodeSpec{X: n.Pos.X, Y: n.Pos.Y})
		dist := math.Hypot(n.Pos.X-experiments.AreaWidth/2, n.Pos.Y-experiments.AreaHeight)
		if dist < best {
			best, d.sink = dist, int(n.ID)
		}
	}
	d.hops = make([][]int, net.NumNodes())
	for s := range d.hops {
		d.hops[s] = hopsFrom(net, topology.NodeID(s))
	}
	return d, nil
}

// hopsFrom returns the fewest links from src to every node, by a
// breadth-first walk; -1 marks nodes it never reaches.
func hopsFrom(net *topology.Network, src topology.NodeID) []int {
	hops := make([]int, net.NumNodes())
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range net.OutLinks(n) {
			if rx := net.MustLink(l).Rx; hops[rx] < 0 {
				hops[rx] = hops[n] + 1
				queue = append(queue, rx)
			}
		}
	}
	return hops
}

// queryList draws the query-cold list: every reachable ordered pair of
// distinct nodes once, in seed order, each with a demand. query-warm
// takes its first numQueries. Running every pair keeps the cost mix of
// query-cold, and so its latency tail, the same for every seed.
func (d *deployment) queryList(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	var out []op
	for s := range d.hops {
		for t, h := range d.hops[s] {
			if h > 0 {
				out = append(out, op{kind: opQuery, src: s, dst: t})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].demand = 0.5 + 2.5*rng.Float64()
	}
	return out
}

// churn generates the admit-churn sequence. It is a closed loop: the
// next operation depends on which admissions the previous answers
// accepted, so the same seed against the same (deterministic) server
// yields the same sequence.
type churn struct {
	d      *deployment
	rng    *rand.Rand
	active []int // admitted flow ids, ascending
}

func newChurn(d *deployment, seed int64, active []int) *churn {
	return &churn{d: d, rng: rand.New(rand.NewSource(seed)), active: append([]int(nil), active...)}
}

// next returns the next operation: an admission while fewer than
// churnMinActive flows are active, a deletion or query once
// churnMaxActive are, and otherwise admissions, deletions and queries
// in 40/25/35 proportion. Admissions and queries run to the sink from
// a random source at most churnMaxHops away, with a demand uniform in
// [0.25, 1.25) Mbps.
func (c *churn) next() op {
	kind := opQuery
	r := c.rng.Float64()
	switch n := len(c.active); {
	case n < churnMinActive:
		kind = opAdmit
	case n >= churnMaxActive:
		if r < 0.5 {
			kind = opDelete
		}
	case r < 0.40:
		kind = opAdmit
	case r < 0.65:
		kind = opDelete
	}
	if kind == opDelete {
		return op{kind: opDelete, id: c.active[c.rng.Intn(len(c.active))]}
	}
	src := c.d.sink
	for h := c.d.hops[src][c.d.sink]; h < 1 || h > churnMaxHops; h = c.d.hops[src][c.d.sink] {
		src = c.rng.Intn(len(c.d.nodes))
	}
	return op{kind: kind, src: src, dst: c.d.sink, demand: 0.25 + c.rng.Float64()}
}

// observe folds an operation's answer into the active set.
func (c *churn) observe(o op, a answer) {
	switch {
	case o.kind == opAdmit && a.ok:
		c.active = append(c.active, a.id)
	case o.kind == opDelete && a.status == 200:
		i := sort.SearchInts(c.active, o.id)
		if i < len(c.active) && c.active[i] == o.id {
			c.active = append(c.active[:i], c.active[i+1:]...)
		}
	}
}

// churnSeeds draws each admit-churn round's generator seed and the
// operations of the round kept for the cold check.
func churnSeeds(seed int64, rounds int) ([]int64, []map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, rounds)
	samples := make([]map[int]bool, rounds)
	for r := range seeds {
		seeds[r] = rng.Int63()
		samples[r] = make(map[int]bool, churnSample)
		for _, i := range rng.Perm(churnOps)[:churnSample] {
			samples[r][i] = true
		}
	}
	return seeds, samples
}
