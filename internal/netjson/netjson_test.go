package netjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abw/internal/cancel"
)

// chainSpec is a 5-node 100m chain with a 2 Mbps background flow on the
// full path; the query asks about the same path.
const chainSpec = `{
  "nodes": [{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0},{"x":300,"y":0},{"x":400,"y":0}],
  "background": [{"path":[0,1,2,3,4],"demand":2}],
  "query": {"path":[0,1,2,3,4]}
}`

func TestSolveExplicitPath(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Feasible {
		t.Fatal("expected feasible")
	}
	// Chain capacity 54/11 minus the 2 Mbps background.
	want := 54.0/11 - 2
	if math.Abs(ans.Bandwidth-want) > 1e-6 {
		t.Errorf("bandwidth = %.6f, want %.6f", ans.Bandwidth, want)
	}
	if len(ans.PathNodes) != 5 || len(ans.PathLinks) != 4 {
		t.Errorf("path sizes: %d nodes, %d links", len(ans.PathNodes), len(ans.PathLinks))
	}
	if len(ans.Schedule) == 0 {
		t.Error("expected a schedule")
	}
	if len(ans.Estimates) != 5 {
		t.Errorf("got %d estimates, want 5", len(ans.Estimates))
	}
}

func TestSolveRoutedQuery(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
	  "nodes": [{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0}],
	  "query": {"src":0,"dst":2,"metric":"e2eTD"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Feasible || ans.Bandwidth <= 0 {
		t.Errorf("answer = %+v", ans)
	}
	if ans.PathNodes[0] != 0 || ans.PathNodes[len(ans.PathNodes)-1] != 2 {
		t.Errorf("routed path endpoints wrong: %v", ans.PathNodes)
	}
}

func TestSolveInfeasibleBackground(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
	  "nodes": [{"x":0,"y":0},{"x":100,"y":0}],
	  "background": [{"path":[0,1],"demand":100}],
	  "query": {"path":[0,1]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Feasible {
		t.Error("100 Mbps on an 18 Mbps link should be infeasible")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"unknown": 1, "nodes": [], "query": {}}`,
	}
	for i, doc := range bad {
		if _, err := ParseSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no nodes", `{"nodes": [], "query": {"path":[0,1]}}`},
		{"no query", `{"nodes": [{"x":0,"y":0},{"x":50,"y":0}], "query": {}}`},
		{"bad metric", `{"nodes": [{"x":0,"y":0},{"x":50,"y":0}], "query": {"src":0,"dst":1,"metric":"bogus"}}`},
		{"short path", `{"nodes": [{"x":0,"y":0},{"x":50,"y":0}], "query": {"path":[0]}}`},
		{"broken hop", `{"nodes": [{"x":0,"y":0},{"x":500,"y":0}], "query": {"path":[0,1]}}`},
		{"zero demand", `{"nodes": [{"x":0,"y":0},{"x":50,"y":0}], "background":[{"path":[0,1],"demand":0}], "query": {"path":[0,1]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec(strings.NewReader(tc.doc))
			if err != nil {
				t.Fatalf("spec itself should parse: %v", err)
			}
			if _, err := SolveContext(context.Background(), spec); err == nil {
				t.Error("expected solve error")
			}
		})
	}
}

func TestWriteAnswerRoundTrips(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAnswer(&buf, ans); err != nil {
		t.Fatal(err)
	}
	var back Answer
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("answer is not valid JSON: %v", err)
	}
	if math.Abs(back.Bandwidth-ans.Bandwidth) > 1e-12 {
		t.Error("bandwidth did not round-trip")
	}
}

func TestCSRangeFactorOverride(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
	  "nodes": [{"x":0,"y":0},{"x":100,"y":0}],
	  "csRangeFactor": 3.0,
	  "query": {"path":[0,1]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Profile().CSRange(); math.Abs(got-3*158) > 1e-9 {
		t.Errorf("CSRange = %g, want %g", got, 3*158.0)
	}
}

// TestCacheBytesImpliesCache pins the spec-level flag implication: a
// byte budget (or a spill directory) turns the cache on even when the
// "cache" field is absent, so the answer carries counters.
func TestCacheBytesImpliesCache(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.CacheBytes = 1 << 20
	ans, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheStats == nil {
		t.Fatal("cacheBytes alone should enable the cache and its stats")
	}
	if ans.CacheStats.Misses == 0 {
		t.Errorf("cache never engaged: %+v", ans.CacheStats)
	}
}

// TestCacheDirWarmsAcrossSpecs pins the on-disk spill end to end at the
// netjson layer: one spec populates the directory, a freshly parsed
// spec (a new in-memory cache, as a new process would have) answers
// from disk with zero enumerations and the identical bandwidth.
func TestCacheDirWarmsAcrossSpecs(t *testing.T) {
	dir := t.TempDir()
	cold, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	cold.CacheDir = dir
	want, err := SolveContext(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if want.CacheStats == nil || want.CacheStats.DiskMisses == 0 {
		t.Fatalf("cold solve should record disk misses: %+v", want.CacheStats)
	}

	warm, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	warm.CacheDir = dir
	got, err := SolveContext(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Bandwidth-want.Bandwidth) > 1e-12 {
		t.Errorf("warm bandwidth %.12g, cold %.12g", got.Bandwidth, want.Bandwidth)
	}
	st := got.CacheStats
	if st == nil || st.DiskHits == 0 {
		t.Fatalf("warm solve never hit the spill: %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("warm solve re-enumerated %d families: %+v", st.Misses, st)
	}
}

// TestCacheDirOpenErrorSurfaces pins that an unusable spill directory
// fails the solve up front rather than being silently dropped.
func TestCacheDirOpenErrorSurfaces(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.CacheDir = file
	if _, err := SolveContext(context.Background(), spec); err == nil {
		t.Error("Solve accepted a file as the cache directory")
	}
}

// TestSolveContextCancellation pins the queryTimeoutMs plumbing: a
// negative timeout is a spec error, a pre-cancelled context stops the
// solve with ErrCanceled, and a generous timeout changes nothing about
// the answer.
func TestSolveContextCancellation(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.QueryTimeoutMs = -1
	if _, err := SolveContext(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "queryTimeoutMs") {
		t.Fatalf("negative timeout: err = %v, want a queryTimeoutMs spec error", err)
	}

	spec.QueryTimeoutMs = 0
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	if _, err := SolveContext(ctx, spec); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("pre-cancelled solve: err = %v, want ErrCanceled", err)
	}

	ref, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.QueryTimeoutMs = 60_000
	timed, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if timed.Bandwidth != ref.Bandwidth || timed.Feasible != ref.Feasible {
		t.Fatalf("timeout changed the answer: %+v vs %+v", timed, ref)
	}
}

func TestTraceBlockInAnswer(t *testing.T) {
	parse := func(doc string) *Spec {
		t.Helper()
		spec, err := ParseSpec(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	plain, err := SolveContext(context.Background(), parse(chainSpec))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced answer carries a trace: %+v", plain.Trace)
	}

	spec := parse(chainSpec)
	spec.Trace = true
	traced, err := SolveContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || traced.Trace.TotalNs <= 0 || len(traced.Trace.Stages) == 0 {
		t.Fatalf("traced answer missing trace detail: %+v", traced.Trace)
	}
	seen := map[string]bool{}
	for _, st := range traced.Trace.Stages {
		seen[string(st.Stage)] = true
	}
	// The library layers record enumeration and LP stages; the
	// server-side schedule/estimate stages are not on this path.
	for _, want := range []string{"enumerate", "lp_solve"} {
		if !seen[want] {
			t.Fatalf("trace missing stage %q: %v", want, seen)
		}
	}
	// Tracing only observes the solve: the numbers are identical.
	if math.Float64bits(traced.Bandwidth) != math.Float64bits(plain.Bandwidth) ||
		traced.Feasible != plain.Feasible {
		t.Fatalf("traced answer differs: %+v vs %+v", traced, plain)
	}
}
