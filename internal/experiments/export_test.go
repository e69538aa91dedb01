package experiments

import (
	"context"
	"fmt"

	"abw/internal/routing"
)

// RunAll executes every experiment in order.
func RunAll() ([]*Table, error) {
	var out []*Table
	for _, e := range Registry() {
		tbl, err := e.Run(context.Background())
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// FirstFailures runs the Fig. 3 admission and returns the first-failure
// index per metric (NumFlows+1 when every flow fits) — the headline
// ordering statistic.
func FirstFailures() (map[routing.Metric]int, error) {
	net, m, reqs, err := Fig2Setup()
	if err != nil {
		return nil, err
	}
	out := make(map[routing.Metric]int, 3)
	for _, metric := range routing.AllMetrics() {
		decs, err := routing.SequentialAdmissionContext(context.Background(), net, m, metric, reqs, routing.AdmissionOptions{StopAtFirstFailure: true, Core: queryOptions()})
		if err != nil {
			return nil, err
		}
		out[metric] = NumFlows + 1
		for i, d := range decs {
			if !d.Admitted {
				out[metric] = i + 1
				break
			}
		}
	}
	return out, nil
}
