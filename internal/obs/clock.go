//lint:file-ignore abw/timenow observability is the one sanctioned clock reader: timestamps here measure latency for metrics, traces, and logs, and never feed a computation result (DESIGN.md Sec. 14)

package obs

import "time"

// now and since are the package's only wall-clock reads, kept in this
// file so the abw/timenow suppression covers exactly the telemetry
// clock and nothing else. Every other package stays clock-free and
// deterministic; they observe time only through the Span/Registry
// helpers defined here.
func now() time.Time { return time.Now() }

func since(t time.Time) time.Duration { return time.Since(t) }

// nanos is now as UnixNano. It is kept out of line so that
// Span.StartStage stays cheap enough to inline, which lets callers
// keep their StageTimer on the stack.
//
//go:noinline
func nanos() int64 { return time.Now().UnixNano() }

// procEpoch salts request ids so ids from different daemon runs are
// distinguishable in aggregated logs.
var procEpoch = now().UnixNano()

// Stopwatch measures one elapsed interval for callers outside this
// package (HTTP middleware, shutdown drain timing) without giving them
// a wall-clock read of their own: the zero Stopwatch is inert and
// reports zero elapsed.
type Stopwatch struct {
	t time.Time
}

// StartWatch starts a stopwatch.
func StartWatch() Stopwatch { return Stopwatch{t: now()} }

// Elapsed returns the time since StartWatch (zero for a zero value).
func (s Stopwatch) Elapsed() time.Duration {
	if s.t.IsZero() {
		return 0
	}
	return since(s.t)
}

// Seconds is Elapsed in float seconds — the unit every latency
// histogram records.
func (s Stopwatch) Seconds() float64 { return s.Elapsed().Seconds() }
