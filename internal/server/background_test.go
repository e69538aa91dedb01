package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abw/internal/obs"
)

// gridNetworkBody is a 2x4 grid at 100 m spacing: enough alternative
// routes that the background's idle ratios steer the routed queries.
const gridNetworkBody = `{
  "nodes": [{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0},{"x":300,"y":0},
            {"x":0,"y":100},{"x":100,"y":100},{"x":200,"y":100},{"x":300,"y":100}]
}`

// postRaw sends body and returns the status and the raw response bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func admitFlow(t *testing.T, url, body string) {
	t.Helper()
	code, resp := doJSON(t, http.MethodPost, url+"/v1/flows", body)
	if code != http.StatusCreated {
		t.Fatalf("admit %s: %d %v", body, code, resp)
	}
}

// TestColdRoutedQuerySolvesBackgroundOnce pins the per-request saving:
// without a cache, a routed query over a non-empty background walks and
// solves its background once (shared by routing's idle ratios and the
// estimators), then grows that background's set family by its path's
// new links in one delta walk: one enumeration, one delta and two cold
// LPs.
func TestColdRoutedQuerySolvesBackgroundOnce(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	admitFlow(t, ts.URL, `{"src":0,"dst":2,"demandMbps":1.0}`)

	code, raw := postRaw(t, ts.URL+"/v1/query", `{"src":0,"dst":4,"trace":true}`)
	if code != http.StatusOK {
		t.Fatalf("traced query: %d %s", code, raw)
	}
	var resp struct {
		Trace obs.TraceData `json:"trace"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	calls := map[obs.Stage]int64{}
	for _, rec := range resp.Trace.Stages {
		calls[rec.Stage] = rec.Calls
	}
	want := map[obs.Stage]int64{
		obs.StageEnumerate: 1,
		obs.StageDelta:     1,
		obs.StageLPSolve:   2,
		obs.StageSchedule:  1,
		obs.StageEstimate:  1,
	}
	for stage, n := range want {
		if calls[stage] != n {
			t.Errorf("stage %s: %d calls, want %d (trace %s)", stage, calls[stage], n, raw)
		}
	}
}

// TestColdRoutedQueryStartsEq6 pins where a cold routed query's two
// LP solves start: the background's feasibility LP runs two-phase, and
// Eq. 6 runs phase 2 only, from the feasibility LP's optimal basis.
// The trace counts one started solve, and /metrics splits the pivots
// into cold and started with no start refused.
func TestColdRoutedQueryStartsEq6(t *testing.T) {
	_, ts, _ := newObsServer(t)
	install(t, ts)
	admitFlow(t, ts.URL, `{"src":0,"dst":2,"demandMbps":1.0}`)
	before := scrape(t, ts.URL)
	cold0, _ := metricValue(t, before, `abw_lp_pivots_total{mode="cold"}`)

	code, raw := postRaw(t, ts.URL+"/v1/query", `{"src":0,"dst":4,"trace":true}`)
	if code != http.StatusOK {
		t.Fatalf("traced query: %d %s", code, raw)
	}
	var resp struct {
		Trace obs.TraceData `json:"trace"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	var lpRec obs.StageRecord
	for _, rec := range resp.Trace.Stages {
		if rec.Stage == obs.StageLPSolve {
			lpRec = rec
		}
	}
	if lpRec.Calls != 2 || lpRec.Started != 1 || len(lpRec.StartFallbacks) != 0 || lpRec.StartedPivots <= 0 {
		t.Fatalf("lp_solve record %+v, want 2 calls: 1 started (with pivots) and 1 two-phase, no fallback", lpRec)
	}

	after := scrape(t, ts.URL)
	started, ok := metricValue(t, after, `abw_lp_pivots_total{mode="started"}`)
	if !ok || started != float64(lpRec.StartedPivots) {
		t.Fatalf("started pivots = %v (ok=%v), want %d\n%s", started, ok, lpRec.StartedPivots, after)
	}
	cold1, _ := metricValue(t, after, `abw_lp_pivots_total{mode="cold"}`)
	if got, want := cold1-cold0, float64(lpRec.Pivots-lpRec.StartedPivots); got != want {
		t.Fatalf("the query added %v cold pivots, want %v", got, want)
	}
	if strings.Contains(after, "abw_lp_start_fallbacks_total{") {
		t.Fatalf("a start was refused\n%s", after)
	}
}

// TestColdAdmissionSkipsEstimates pins that an admission computes only
// what its decision reads: routing's idle ratios and the Eq. 6 LP, never
// the Fig. 4 estimates a flowResponse has no field for.
func TestColdAdmissionSkipsEstimates(t *testing.T) {
	_, ts, _ := newObsServer(t)
	install(t, ts)
	admitFlow(t, ts.URL, `{"src":0,"dst":2,"demandMbps":1.0}`)
	admitFlow(t, ts.URL, `{"src":2,"dst":4,"demandMbps":0.5}`)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":50}`)
	if code != http.StatusOK || body["admitted"] != false {
		t.Fatalf("oversized admission: %d %v", code, body)
	}

	exp := scrape(t, ts.URL)
	if v, ok := metricValue(t, exp, `abw_stage_seconds_count{stage="route"}`); !ok || v != 3 {
		t.Fatalf("route stage count = %v (ok=%v), want 3\n%s", v, ok, exp)
	}
	if v, ok := metricValue(t, exp, `abw_stage_seconds_count{stage="estimate"}`); ok {
		t.Fatalf("admissions recorded the estimate stage %v times\n%s", v, exp)
	}
}

// TestColdAndCachedQueryBodiesAgree sends the same queries to a
// cache-off and a -cache server carrying the same background flows:
// their response bodies must agree byte for byte.
func TestColdAndCachedQueryBodiesAgree(t *testing.T) {
	plain := newTestServer(t)
	srv := New()
	srv.SetCacheBytes(0)
	cached := httptest.NewServer(srv.Handler())
	t.Cleanup(cached.Close)

	for _, url := range []string{plain.URL, cached.URL} {
		code, body := doJSON(t, http.MethodPut, url+"/v1/network", gridNetworkBody)
		if code != http.StatusOK {
			t.Fatalf("install: %d %v", code, body)
		}
		admitFlow(t, url, `{"src":0,"dst":3,"demandMbps":1.0}`)
		admitFlow(t, url, `{"src":4,"dst":6,"demandMbps":0.75}`)
	}

	queries := []string{
		`{"src":0,"dst":7,"demandMbps":1.0}`,
		`{"src":7,"dst":0}`,
		`{"src":1,"dst":6,"demandMbps":2.5,"metric":"e2eTD"}`,
		`{"src":4,"dst":3,"metric":"hop count"}`,
		`{"path":[0,1,2,3],"demandMbps":0.5}`,
		`{"path":[4,5,6,7]}`,
	}
	// Twice over, so the cached server answers the repeats from memo.
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			codeP, bodyP := postRaw(t, plain.URL+"/v1/query", q)
			codeC, bodyC := postRaw(t, cached.URL+"/v1/query", q)
			if codeP != http.StatusOK || codeC != http.StatusOK {
				t.Fatalf("round %d query %s: status %d plain, %d cached", round, q, codeP, codeC)
			}
			if !bytes.Equal(bodyP, bodyC) {
				t.Fatalf("round %d query %s: bodies differ\nplain:  %s\ncached: %s", round, q, bodyP, bodyC)
			}
		}
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("cached server never hit its cache: %+v", st)
	}
}

// TestBadPathSolvesNothing: a query whose explicit path does not parse
// answers 400 before the background is solved.
func TestBadPathSolvesNothing(t *testing.T) {
	_, ts, _ := newObsServer(t)
	install(t, ts)
	admitFlow(t, ts.URL, `{"src":0,"dst":2,"demandMbps":1.0}`)
	before, _ := metricValue(t, scrape(t, ts.URL), `abw_stage_seconds_count{stage="schedule"}`)
	for _, q := range []string{`{"path":[0,4]}`, `{"path":[3]}`, `{"src":0,"dst":4,"metric":"bogus"}`} {
		if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q); code != http.StatusBadRequest {
			t.Fatalf("query %s: %d %v, want 400", q, code, body)
		}
	}
	if after, _ := metricValue(t, scrape(t, ts.URL), `abw_stage_seconds_count{stage="schedule"}`); after != before {
		t.Fatalf("bad paths ran the schedule stage: %v calls before, %v after", before, after)
	}
}
