package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"abw/internal/experiments"
	"abw/internal/obs"
)

// fig2Sequence is a fixed admit/query sequence over the Fig. 2
// deployment, as request bodies: each of the eight flow requests is
// queried and then admitted. It returns the network install body too.
func fig2Sequence(tb testing.TB) (network string, bodies []string) {
	tb.Helper()
	net, _, reqs, err := experiments.Fig2Setup()
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i, n := range net.Nodes() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%g,"y":%g}`, n.Pos.X, n.Pos.Y)
	}
	b.WriteString(`]}`)
	for _, r := range reqs {
		bodies = append(bodies, fmt.Sprintf(`{"src":%d,"dst":%d,"demandMbps":%g}`, r.Src, r.Dst, r.Demand))
	}
	return b.String(), bodies
}

// newFig2Server returns the handler of a -cache server with the Fig. 2
// network installed, with abwd's default metrics and request logger
// (to io.Discard) when withObs is set, and neither otherwise.
func newFig2Server(tb testing.TB, network string, withObs bool) http.Handler {
	tb.Helper()
	s := New()
	s.SetCacheBytes(0)
	if withObs {
		s.SetMetrics(obs.NewRegistry())
		s.SetLogger(obs.NewLogger(io.Discard, "info"))
	}
	h := s.Handler()
	if code := serve(tb, h, http.MethodPut, "/v1/network", network, nil); code != http.StatusOK {
		tb.Fatalf("installing the Fig. 2 network: %d", code)
	}
	return h
}

// serve serves one request on h and returns its status, decoding the
// body into out when out is non-nil.
func serve(tb testing.TB, h http.Handler, method, path, body string, out any) int {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// replayFig2 serves the sequence on each handler in turn, request by
// request, and then deletes every flow it admitted, so a replay leaves
// no flows behind. The handler that goes first alternates by request:
// the second to serve a request is measurably faster. timed, when
// non-nil, accumulates each handler's wall time. It returns the number
// of requests each handler served.
func replayFig2(tb testing.TB, hs []http.Handler, bodies []string, timed []time.Duration) int {
	tb.Helper()
	ids := make([][]int, len(hs))
	do := func(i int, method, path, body string, out any) int {
		watch := obs.StartWatch()
		code := serve(tb, hs[i], method, path, body, out)
		if timed != nil {
			timed[i] += watch.Elapsed()
		}
		return code
	}
	for k, body := range bodies {
		for j := range hs {
			i := (j + k) % len(hs)
			if code := do(i, http.MethodPost, "/v1/query", body, nil); code != http.StatusOK {
				tb.Fatalf("query %s: %d", body, code)
			}
			var resp flowResponse
			switch code := do(i, http.MethodPost, "/v1/flows", body, &resp); {
			case code == http.StatusCreated:
				ids[i] = append(ids[i], resp.Flow.ID)
			case code != http.StatusOK || resp.Admitted:
				tb.Fatalf("admission %s: %d", body, code)
			}
		}
	}
	// Every handler admitted the same flows under the same ids.
	for k, id := range ids[0] {
		for j := range hs {
			i := (j + k) % len(hs)
			if code := do(i, http.MethodDelete, fmt.Sprintf("/v1/flows/%d", id), "", nil); code != http.StatusOK {
				tb.Fatalf("deleting flow %d: %d", id, code)
			}
		}
	}
	return 2*len(bodies) + len(ids[0])
}

// BenchmarkServedObs measures what abwd's default instrumentation costs
// a served request. Each iteration builds two -cache servers on the
// Fig. 2 network, one with metrics and a request logger and one with
// neither, warms both with one untimed replay of the sequence, and then
// replays it once more, alternating the servers request by request so
// drift in machine speed reaches both alike. It reports the mean
// request time on each and their ratio.
func BenchmarkServedObs(b *testing.B) {
	network, bodies := fig2Sequence(b)
	timed := make([]time.Duration, 2)
	requests := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hs := []http.Handler{newFig2Server(b, network, true), newFig2Server(b, network, false)}
		replayFig2(b, hs, bodies, nil)
		b.StartTimer()
		requests += replayFig2(b, hs, bodies, timed)
	}
	b.ReportMetric(float64(timed[0].Nanoseconds())/float64(requests), "obs-on-ns/req")
	b.ReportMetric(float64(timed[1].Nanoseconds())/float64(requests), "obs-off-ns/req")
	b.ReportMetric(float64(timed[0])/float64(timed[1]), "on/off")
}

// TestServedRequestObsAllocs bounds what the instrumentation of one
// query allocates once its series are resolved: the request id, the
// span, and nothing for its stage timers, keyed counts, or the fold
// into the registry. A label string built per request, or a record
// allocated per stage, would fail it.
func TestServedRequestObsAllocs(t *testing.T) {
	s := New()
	s.SetMetrics(obs.NewRegistry())
	query := func() {
		span := s.querySpan(obs.NextRequestID(), false)
		for _, st := range []obs.Stage{obs.StageRoute, obs.StageSession, obs.StageMemo, obs.StageLPSolve, obs.StageEstimate} {
			tm := span.StartStage(st)
			tm.AddSets(3)
			tm.AddPivots(5)
			tm.SetOutcome("hit")
			tm.SetStartFallback("singular")
			tm.End()
		}
		tm := span.StartStage(obs.StageLPWarm)
		tm.SetStage(obs.StageLPSolve)
		tm.SetStarted(true)
		tm.AddPivots(2)
		tm.End()
		if td := s.finishQuerySpan(span, false); td != nil {
			t.Fatal("untraced query returned a trace block")
		}
	}
	query() // resolves the series
	// One for the request id's string, one for the span.
	const maxAllocs = 2
	if got := testing.AllocsPerRun(100, query); got > maxAllocs {
		t.Fatalf("an instrumented query allocates %v objects in obs and the fold, want at most %d", got, maxAllocs)
	}
}

// TestSeriesCacheResolvesOnce gets overlapping keys from many
// goroutines at once: each key must be resolved exactly once, and every
// caller must see the same series for it.
func TestSeriesCacheResolvesOnce(t *testing.T) {
	var mu sync.Mutex
	resolved := map[int]int{}
	c := seriesCache[int, obs.Counter]{resolve: func(k int) *obs.Counter {
		mu.Lock()
		defer mu.Unlock()
		resolved[k]++
		return new(obs.Counter)
	}}
	const goroutines, keys = 8, 16
	got := make([][keys]*obs.Counter, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*keys; i++ {
				k := (i*7 + g) % keys
				v := c.get(k)
				v.Inc()
				if got[g][k] != nil && got[g][k] != v {
					t.Errorf("goroutine %d: key %d resolved to two series", g, k)
				}
				got[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if resolved[k] != 1 {
			t.Errorf("key %d resolved %d times, want once", k, resolved[k])
		}
		for g := 1; g < goroutines; g++ {
			if got[g][k] != got[0][k] {
				t.Errorf("key %d: goroutines 0 and %d hold different series", k, g)
			}
		}
		if n := c.get(k).Value(); n != goroutines*4 {
			t.Errorf("key %d counted %d, want %d", k, n, goroutines*4)
		}
	}
}
