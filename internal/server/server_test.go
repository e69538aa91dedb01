package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"abw/internal/core"
	"abw/internal/routing"
	"abw/internal/topology"
)

// chainNetworkBody is a 5-node 100m chain (capacity 54/11 ~ 4.909 Mbps
// end to end).
const chainNetworkBody = `{
  "nodes": [{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0},{"x":300,"y":0},{"x":400,"y":0}]
}`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&out); err != nil {
		// Arrays decode separately; callers needing arrays use doJSONArray.
		return resp.StatusCode, nil
	}
	return resp.StatusCode, out
}

func doJSONArray(t *testing.T, method, url string) (int, []map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding array: %v", err)
	}
	return resp.StatusCode, out
}

func install(t *testing.T, ts *httptest.Server) {
	t.Helper()
	code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/network", chainNetworkBody)
	if code != http.StatusOK {
		t.Fatalf("install: %d %v", code, body)
	}
	if body["nodes"].(float64) != 5 {
		t.Fatalf("install summary: %v", body)
	}
}

func TestNetworkLifecycle(t *testing.T) {
	ts := newTestServer(t)
	// Before install: empty summary, queries rejected.
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/network", "")
	if code != http.StatusOK || body["installed"] != false {
		t.Fatalf("pre-install summary: %d %v", code, body)
	}
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/query", `{"src":0,"dst":4}`)
	if code != http.StatusConflict {
		t.Errorf("query without network: %d, want 409", code)
	}
	install(t, ts)
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/network", "")
	if code != http.StatusOK || body["installed"] != true || body["links"].(float64) != 8 {
		t.Errorf("post-install summary: %d %v", code, body)
	}
}

func TestQueryAvailability(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", `{"src":0,"dst":4,"demandMbps":2}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	if body["feasible"] != true {
		t.Errorf("feasible = %v", body["feasible"])
	}
	bw := body["bandwidthMbps"].(float64)
	if bw < 4.9 || bw > 4.92 {
		t.Errorf("bandwidth = %v, want ~54/11", bw)
	}
	if body["wouldAdmit"] != true {
		t.Errorf("wouldAdmit = %v", body["wouldAdmit"])
	}
	ests := body["estimates"].(map[string]interface{})
	if len(ests) != 5 {
		t.Errorf("estimates = %v", ests)
	}
	// Explicit path form.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", `{"path":[0,1,2]}`)
	if code != http.StatusOK || body["feasible"] != true {
		t.Errorf("explicit path query: %d %v", code, body)
	}
}

func TestFlowAdmissionAndTeardown(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)

	// Two 2 Mbps flows fit on the 4.909 Mbps chain; a third does not.
	var ids []int
	for i := 0; i < 2; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":2}`)
		if code != http.StatusCreated || body["admitted"] != true {
			t.Fatalf("flow %d: %d %v", i, code, body)
		}
		flow := body["flow"].(map[string]interface{})
		ids = append(ids, int(flow["id"].(float64)))
	}
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":2}`)
	if code != http.StatusOK || body["admitted"] != false {
		t.Fatalf("third flow should be rejected: %d %v", code, body)
	}
	if body["reason"] == "" {
		t.Error("rejection without reason")
	}

	// Listing shows both admitted flows.
	code, list := doJSONArray(t, http.MethodGet, ts.URL+"/v1/flows")
	if code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: %d %v", code, list)
	}

	// Teardown frees the bandwidth: the third flow now fits.
	code, _ = doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", ts.URL, ids[0]), "")
	if code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":2}`)
	if code != http.StatusCreated || body["admitted"] != true {
		t.Errorf("after teardown the flow should fit: %d %v", code, body)
	}
}

func TestFlowByIDErrors(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/flows/99", "")
	if code != http.StatusNotFound {
		t.Errorf("missing flow: %d, want 404", code)
	}
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/flows/abc", "")
	if code != http.StatusBadRequest {
		t.Errorf("bad id: %d, want 400", code)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/query", `{not json`, http.StatusBadRequest},
		{http.MethodPost, "/v1/query", `{"unknown":1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/query", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/query", `{"src":0,"dst":4,"metric":"bogus"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/flows", `{"src":0,"dst":4,"demandMbps":0}`, http.StatusBadRequest},
		{http.MethodPut, "/v1/network", `{"nodes":[]}`, http.StatusBadRequest},
		{http.MethodDelete, "/v1/network", ``, http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/flows", ``, http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/query", `{}`, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		code, _ := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: %d, want %d", tc.method, tc.path, code, tc.want)
		}
	}
}

// TestOversizedBodyIs413: a body over the 1 MiB limit answers 413, not
// 400, and installs nothing.
func TestOversizedBodyIs413(t *testing.T) {
	ts := newTestServer(t)
	body := `{"nodes":[` + strings.Repeat(`{"x":1,"y":2},`, 90000) + `{"x":0,"y":0}]}`
	if len(body) < 1200000 {
		t.Fatalf("body is %d bytes, want about 1.2 MB", len(body))
	}
	if code, resp := doJSON(t, http.MethodPut, ts.URL+"/v1/network", body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized network: %d %v, want 413", code, resp)
	}
	if _, summary := doJSON(t, http.MethodGet, ts.URL+"/v1/network", ""); summary["installed"] != false {
		t.Fatalf("an oversized body installed a network: %v", summary)
	}
}

func TestNetworkReplaceDropsFlows(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":1}`)
	if code != http.StatusCreated || body["admitted"] != true {
		t.Fatalf("admit: %d %v", code, body)
	}
	install(t, ts) // replace
	code, list := doJSONArray(t, http.MethodGet, ts.URL+"/v1/flows")
	if code != http.StatusOK || len(list) != 0 {
		t.Errorf("flows after replace: %d %v", code, list)
	}
}

// TestConcurrentAdmissions hammers the server with parallel admission
// requests: the final admitted set must still be schedulable (never
// over-admitted), proving decisions serialize correctly.
func TestConcurrentAdmissions(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	const workers = 8
	var wg sync.WaitGroup
	admitted := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/flows",
				bytes.NewBufferString(`{"src":0,"dst":4,"demandMbps":2}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]interface{}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Error(err)
				return
			}
			admitted[i] = body["admitted"] == true
		}(i)
	}
	wg.Wait()
	count := 0
	for _, ok := range admitted {
		if ok {
			count++
		}
	}
	// The 4.909 Mbps chain fits exactly two 2 Mbps flows no matter the
	// interleaving.
	if count != 2 {
		t.Errorf("admitted %d concurrent flows, want exactly 2", count)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":2}`)
	if code != http.StatusCreated || body["admitted"] != true {
		t.Fatalf("admit: %d %v", code, body)
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/schedule", "")
	if code != http.StatusOK {
		t.Fatalf("schedule: %d %v", code, body)
	}
	total := body["totalShare"].(float64)
	if total <= 0 || total > 1 {
		t.Errorf("totalShare = %v", total)
	}
	slots := body["schedule"].([]interface{})
	if len(slots) == 0 {
		t.Error("no slots in the schedule")
	}
	first := slots[0].(map[string]interface{})
	if _, ok := first["couples"]; !ok {
		t.Errorf("slot missing couples: %v", first)
	}
}

func TestFairshareEndpoint(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	// Empty fairshare before any admission.
	code, list := doJSONArray(t, http.MethodGet, ts.URL+"/v1/fairshare")
	if code != http.StatusOK || len(list) != 0 {
		t.Fatalf("empty fairshare: %d %v", code, list)
	}
	for i := 0; i < 2; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", `{"src":0,"dst":4,"demandMbps":2}`)
		if code != http.StatusCreated || body["admitted"] != true {
			t.Fatalf("admit %d: %d %v", i, code, body)
		}
	}
	code, list = doJSONArray(t, http.MethodGet, ts.URL+"/v1/fairshare")
	if code != http.StatusOK || len(list) != 2 {
		t.Fatalf("fairshare: %d %v", code, list)
	}
	for _, e := range list {
		share := e["fairShareMbps"].(float64)
		// Two identical flows on the 54/11 chain: 54/22 ~ 2.4545 each.
		if share < 2.40 || share > 2.51 {
			t.Errorf("fair share = %v, want ~2.4545", share)
		}
	}
}

// TestFlowSnapshotsNameLiveFlows churns several hundred admissions and
// deletions, keeping a few flows, and checks that every flow snapshot
// reads exactly the live ones in ascending ID order: the listing and
// the fair-share output name them, and the schedule is the one solved
// directly over them.
func TestFlowSnapshotsNameLiveFlows(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	install(t, ts)
	srv.mu.Lock()
	net, model := srv.net, srv.model
	srv.mu.Unlock()

	const churn = 300
	keep := map[int]bool{3: true, 128: true, 129: true, 297: true}
	ends := [][2]int{{0, 4}, {1, 3}, {0, 2}, {2, 4}}
	var want []int
	var live []core.Flow
	for i := 1; i <= churn; i++ {
		e := ends[i%len(ends)]
		body := fmt.Sprintf(`{"src":%d,"dst":%d,"demandMbps":0.01}`, e[0], e[1])
		code, resp := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", body)
		if code != http.StatusCreated || resp["admitted"] != true {
			t.Fatalf("admit %d: %d %v", i, code, resp)
		}
		flow := resp["flow"].(map[string]interface{})
		id := int(flow["id"].(float64))
		if id != i {
			t.Fatalf("admission %d got id %d", i, id)
		}
		if keep[id] {
			want = append(want, id)
			var nodes []topology.NodeID
			for _, n := range flow["pathNodes"].([]interface{}) {
				nodes = append(nodes, topology.NodeID(n.(float64)))
			}
			path, err := net.PathFromNodes(nodes)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, core.Flow{Path: path, Demand: 0.01})
			continue
		}
		if code, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", ts.URL, id), ""); code != http.StatusOK {
			t.Fatalf("delete %d: %d", id, code)
		}
	}

	ids := func(url, field string) []int {
		t.Helper()
		code, list := doJSONArray(t, http.MethodGet, url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		out := make([]int, 0, len(list))
		for _, e := range list {
			out = append(out, int(e[field].(float64)))
		}
		return out
	}
	if got := ids(ts.URL+"/v1/flows", "id"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("listing names flows %v, want %v", got, want)
	}
	if got := ids(ts.URL+"/v1/fairshare", "flow"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fair share names flows %v, want %v", got, want)
	}

	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct{ Schedule json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %v", resp.StatusCode, err)
	}
	ref, err := routing.SolveBackgroundContext(context.Background(), model, live, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSched, err := json.Marshal(ref.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, got.Schedule); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, wantSched); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("schedule after churn is not the live flows' schedule:\n got  %s\n want %s", a.String(), b.String())
	}
}
