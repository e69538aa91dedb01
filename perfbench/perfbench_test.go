package main

import (
	"reflect"
	"testing"

	"abw/internal/obs"
)

// shortWork is a one-round instance of the workload.
func shortWork(t *testing.T, name string, seed int64) *work {
	t.Helper()
	w, err := newWork(name, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.rounds != 1 {
		t.Fatalf("%s: %d rounds for a zero-length run, want 1", name, w.rounds)
	}
	return w
}

func TestQueryListDeterministic(t *testing.T) {
	d, err := loadDeployment()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := d.queryList(7), d.queryList(7), d.queryList(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew two different query lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same query list")
	}
	seen := make(map[[2]int]bool)
	for _, q := range a {
		if q.src == q.dst || d.hops[q.src][q.dst] < 1 || seen[[2]int{q.src, q.dst}] {
			t.Fatalf("query %+v repeats a pair or cannot be routed", q)
		}
		seen[[2]int{q.src, q.dst}] = true
	}
}

// churnSequence generates one admit-churn round against a fresh server.
func churnSequence(t *testing.T, seed int64) []op {
	t.Helper()
	w := shortWork(t, admitChurn, seed)
	if _, err := w.run(&httpTarget{d: w.d, cache: true, obs: true}); err != nil {
		t.Fatal(err)
	}
	return w.churnOps[0]
}

func TestChurnDeterministic(t *testing.T) {
	a, b, c := churnSequence(t, 3), churnSequence(t, 3), churnSequence(t, 4)
	if len(a) != churnOps {
		t.Fatalf("round has %d operations, want %d", len(a), churnOps)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated two different churn sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 3 and 4 generated the same churn sequence")
	}
	kinds := make(map[opKind]int)
	for _, o := range a {
		kinds[o.kind]++
	}
	if kinds[opQuery] == 0 || kinds[opAdmit] == 0 || kinds[opDelete] == 0 {
		t.Errorf("churn mix %v lacks a kind of operation", kinds)
	}
}

// TestWorkloadsExercised runs each workload briefly and checks that it
// is correct and exercises what it claims.
func TestWorkloadsExercised(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			out, err := shortWork(t, name, 1).measure()
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || len(out.problems) != 0 {
				t.Fatalf("%d failed operations %v, problems %v", out.failed, out.errs, out.problems)
			}
			if len(out.metrics) != 8 {
				t.Errorf("%d end-to-end metrics, want 8", len(out.metrics))
			}
			for _, m := range out.metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want positive", m.name, m.Value)
				}
			}
		})
	}
}

// TestReplayMatchesHTTP runs the traced split briefly: the HTTP passes
// and the replay must give the same answer to every operation, and the
// replay's LP counts from obs spans must agree with the cache's own.
func TestReplayMatchesHTTP(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w := shortWork(t, name, 2)
			rec := newRecorder()
			cache := cached(name)
			t1 := &httpTarget{d: w.d, cache: cache, obs: true, spans: tracer{rec: rec, pass: 1}}
			t3 := newReplayTarget(w.d, cache, tracer{rec: rec, pass: 3})
			ps, err := w.run(t1, t3)
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range ps {
				if p.failed != 0 {
					t.Fatalf("pass %d: %d failed operations: %v", k+1, p.failed, p.errs)
				}
			}
			if len(ps[1].lat) != len(ps[0].lat) {
				t.Fatalf("replay ran %d operations, HTTP %d", len(ps[1].lat), len(ps[0].lat))
			}
			if t3.unexplained != 0 {
				t.Errorf("%d session lookups had no explicit lookup before them", t3.unexplained)
			}
			if !cache {
				return
			}
			st := ps[1].stats
			cold, warm := t3.stage(obs.StageLPSolve), t3.stage(obs.StageLPWarm)
			if cold.Pivots != st.ColdPivots || warm.Pivots != st.WarmPivots || warm.Calls != st.WarmResolves {
				t.Errorf("obs spans count cold %d, warm %d pivots in %d resolves; the cache counts %d, %d in %d",
					cold.Pivots, warm.Pivots, warm.Calls, st.ColdPivots, st.WarmPivots, st.WarmResolves)
			}
		})
	}
}

func TestTracedEmitsEveryLayerMetric(t *testing.T) {
	w := shortWork(t, admitChurn, 5)
	out, err := w.traced(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || len(out.problems) != 0 {
		t.Fatalf("%d failed operations %v, problems %v", out.failed, out.errs, out.problems)
	}
	if len(out.metrics) != 23 {
		t.Errorf("%d per-layer metrics, want 23", len(out.metrics))
	}
	for _, m := range out.metrics {
		switch m.name {
		case "memo.evictions", "indepset.explored_per_call":
		default:
			if m.Value == 0 {
				t.Errorf("admit-churn reports %s = 0", m.name)
			}
		}
	}
}
