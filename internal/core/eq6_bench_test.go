package core_test

import (
	"testing"

	"abw/internal/core"
	"abw/internal/experiments"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/routing"
	"abw/internal/topology"
)

// BenchmarkSolveEq6Fig2 solves the availability LP in the shape abwd
// serves: Eq. 6 over the maximal independent sets of the Fig. 2
// network, for the longest path the paper's Sec. 5.2 run admits along
// average-e2eD routes, with the other admitted flows as background.
// Unlike lp's BenchmarkSolveEq6Shape (a fully dense LE-only LP), the
// background adds GE demand rows, so phase 1 runs, and each set column
// holds only its own links' rates. The family is enumerated once,
// outside the timer; the reported metrics give the LP's shape.
func BenchmarkSolveEq6Fig2(b *testing.B) {
	net, m, reqs, err := experiments.Fig2Setup()
	if err != nil {
		b.Fatal(err)
	}
	decs, err := routing.SequentialAdmission(net, m, routing.MetricAvgE2ED, reqs, routing.AdmissionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var admitted []core.Flow
	for _, d := range decs {
		if d.Admitted {
			admitted = append(admitted, core.Flow{Path: d.Path, Demand: d.Request.Demand})
		}
	}
	if len(admitted) < 2 {
		b.Fatalf("the Fig. 2 run admitted %d flows; the benchmark needs a background", len(admitted))
	}
	q := 0
	for i, f := range admitted {
		if len(f.Path) > len(admitted[q].Path) {
			q = i
		}
	}
	path := admitted[q].Path
	background := append(append([]core.Flow(nil), admitted[:q]...), admitted[q+1:]...)
	paths := []topology.Path{path}
	for _, f := range background {
		paths = append(paths, f.Path)
	}
	universe := topology.LinkUnion(paths...)
	sets, err := indepset.Enumerate(m, universe, indepset.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Nonzeros: each set's links plus its share-row entry, and f's
	// entries on the path.
	nnz := len(sets) + len(path)
	for _, s := range sets {
		nnz += len(s.Couples)
	}
	rows, cols := len(universe)+1, len(sets)+1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.AvailableBandwidthWithSets(m, background, path, sets)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != lp.Optimal {
			b.Fatalf("status %v", res.Status)
		}
	}
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(cols), "cols")
	b.ReportMetric(float64(nnz)/float64(rows*cols), "density")
}
