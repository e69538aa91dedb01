// Command perfbench is the repository's end-to-end benchmark: it drives
// abwd's HTTP handler in-process (httptest requests answered into a
// recorder, no sockets) with one closed-loop client, on the paper's
// Sec. 5.2 / Fig. 2 deployment, and verifies every answer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload query-warm --seed 1 --seconds 10 --trace 0
//
// --workload is query-warm, query-cold, admit-churn, or all. The seed
// generates the requests only; the network is the paper's. --seconds is
// the length of the timed phase, rounded up to whole rounds. With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// runs the traced three-pass split and prints the per-layer metrics.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Any wrong answer makes the
// exit code non-zero. BENCHMARK.md in this directory describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one workload's run.
type outcome struct {
	attempted, failed int
	metrics           []named
	// problems are reasons the run is not correct beyond failed
	// operations: unmet exercise assertions.
	problems []string
	// errs are the first failures; notes are extra lines for the
	// reader. Both go to standard error.
	errs, notes []string
}

type named struct {
	name string
	metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "query-warm, query-cold, admit-churn, or all")
	seed := fs.Int64("seed", 1, "workload seed: generates the requests")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer split instead")
	traceDir := fs.String("tracedir", ".bench_build/traces", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
			return 2
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The traced run makes three passes; each gets a third of the time.
	secs := float64(*seconds)
	if *trace == 1 {
		secs /= 3
	}
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, err := newWork(name, *seed, secs)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var out *outcome
		if *trace == 1 {
			out, err = w.traced(*traceDir)
		} else {
			out, err = w.measure()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, lines := range [][]string{out.problems, out.errs, out.notes} {
			for _, l := range lines {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", name, l)
			}
		}
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		rep.Correct = rep.Correct && out.failed == 0 && len(out.problems) == 0
		for _, m := range out.metrics {
			fmt.Fprintf(stdout, "%-12s %-32s %14.6f %s\n", name, m.name, m.Value, m.Unit)
			key := m.name
			if len(names) > 1 {
				key = name + "/" + m.name
			}
			rep.Metrics[key] = m.metric
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure is the untraced run: one HTTP pass under abwd's default
// configuration, every answer verified, the end-to-end metrics.
func (w *work) measure() (*outcome, error) {
	t := &httpTarget{d: w.d, cache: cached(w.name), obs: true, reuse: w.name != admitChurn}
	ps, err := w.run(t)
	if err != nil {
		return nil, err
	}
	p := ps[0]
	if err := w.verify(context.Background(), t, p); err != nil {
		return nil, err
	}
	ops := float64(len(p.lat))
	// Latency percentiles are taken per round, then their median over
	// rounds, so that a slow spell of the machine during one round does
	// not decide the tail.
	var p50, p90 []float64
	for n, i := w.roundOps(), 0; i+n <= len(p.lat); i += n {
		lat := sortedMillis(p.lat[i : i+n])
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	out := &outcome{attempted: len(p.lat), failed: p.failed, problems: w.exercised(p), errs: p.errs}
	out.metrics = []named{
		{"ops_per_s", metric{median(p.rate), "1/s"}},
		{"latency_p50_ms", metric{median(p50), "ms"}},
		{"latency_p90_ms", metric{median(p90), "ms"}},
		{"cpu_ms_per_op", metric{median(p.cpu), "ms"}},
		{"alloc_kb_per_op", metric{float64(p.alloc) / 1024 / ops, "KB"}},
		{"heap_live_mb", metric{median(p.heapLive), "MB"}},
		{"setup_s", metric{median(p.setup), "s"}},
		{"success_rate", metric{(ops - float64(p.failed)) / ops, "ratio"}},
	}
	return out, nil
}

// exercised checks that the pass did what its workload claims, from
// the memo-cache counter deltas of its timed phase.
func (w *work) exercised(p *pass) []string {
	var bad []string
	need := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	s := p.stats
	switch w.name {
	case queryWarm:
		need(s.Misses == 0 && s.DeltaHits == 0, "query-warm timed phase saw %d misses and %d delta hits, want none", s.Misses, s.DeltaHits)
		need(s.Hits > 0, "query-warm timed phase saw no cache hits")
	case queryCold:
		need(p.endStats.Lookups == 0, "query-cold consulted a cache %d times", p.endStats.Lookups)
	case admitChurn:
		need(s.Hits > 0 && s.DeltaHits > 0 && s.Misses > 0,
			"admit-churn needs hits, delta hits and misses, saw %d, %d, %d", s.Hits, s.DeltaHits, s.Misses)
		need(s.WarmPivots > 0, "admit-churn saw no warm pivots")
		need(p.rejections > 0, "admit-churn saw no rejected admission")
	}
	return bad
}

func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
