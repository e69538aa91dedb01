package experiments

import (
	"context"
	"testing"

	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/memo"
	"abw/internal/routing"
)

// TestBackgroundIdlenessIsIdleRatiosOfSchedule pins the contract that
// lets a caller solve the background once: BackgroundIdleness equals
// estimate.NodeIdleRatios over BackgroundSchedule bit for bit, on an
// empty background (all ones) and on the Fig. 2 background, cold and
// through a memo cache (the second solve then answers from the cache).
func TestBackgroundIdlenessIsIdleRatiosOfSchedule(t *testing.T) {
	net, m, reqs, err := Fig2Setup()
	if err != nil {
		t.Fatal(err)
	}
	decisions, err := routing.SequentialAdmissionContext(context.Background(), net, m, routing.MetricAvgE2ED, reqs, routing.AdmissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fig2 []core.Flow
	for _, d := range decisions {
		if d.Admitted {
			fig2 = append(fig2, core.Flow{Path: d.Path, Demand: d.Request.Demand})
		}
	}
	if len(fig2) == 0 {
		t.Fatal("Fig. 2 setup admitted no flow")
	}

	for _, tc := range []struct {
		name       string
		background []core.Flow
		opts       core.Options
	}{
		{"empty", nil, core.Options{}},
		{"fig2", fig2, core.Options{}},
		{"fig2 cached", fig2, core.Options{Cache: memo.New(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idle, err := routing.BackgroundIdlenessContext(context.Background(), net, m, tc.background, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := routing.BackgroundScheduleContext(context.Background(), m, tc.background, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := estimate.NodeIdleRatios(net, sched)
			if len(idle) != len(want) || len(idle) != net.NumNodes() {
				t.Fatalf("got %d ratios, want %d for %d nodes", len(idle), len(want), net.NumNodes())
			}
			busy := false
			for i := range idle {
				if idle[i] != want[i] {
					t.Fatalf("node %d: BackgroundIdleness %v, NodeIdleRatios %v", i, idle[i], want[i])
				}
				if tc.background == nil && idle[i] != 1 {
					t.Fatalf("node %d idle %v on an empty background, want 1", i, idle[i])
				}
				busy = busy || idle[i] < 1
			}
			if tc.background != nil && !busy {
				t.Fatal("every node fully idle under the Fig. 2 background")
			}
		})
	}
}
