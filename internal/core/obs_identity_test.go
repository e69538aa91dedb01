package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abw/internal/conflict"
	"abw/internal/memo"
	"abw/internal/obs"
)

// TestTracedQueryByteIdentical pins the nil-span fast-path invariant
// from DESIGN.md Sec. 14: attaching a trace span to the context must
// not change a single bit of the answer — status, bandwidth (exact
// float bits), set family, link universe, and schedule — with and
// without a memo cache in the path.
func TestTracedQueryByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	net := sessionNetwork(t, 12, 99)
	m := conflict.NewPhysical(net)
	candidate := randomPath(rng, net)
	if len(candidate) == 0 {
		t.Skip("no candidate path in random topology")
	}
	background := []Flow{{Path: candidate, Demand: 0.5}}

	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			mkOpts := func() Options {
				var o Options
				if cached {
					o.Cache = memo.New(0)
				}
				return o
			}
			plain, err := AvailableBandwidthContext(context.Background(), m, background, candidate, mkOpts())
			if err != nil {
				t.Fatalf("uninstrumented: %v", err)
			}
			span := obs.NewSpan("identity")
			ctx := obs.WithSpan(context.Background(), span)
			traced, err := AvailableBandwidthContext(ctx, m, background, candidate, mkOpts())
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}

			if traced.Status != plain.Status {
				t.Fatalf("status %v != %v", traced.Status, plain.Status)
			}
			if math.Float64bits(traced.Bandwidth) != math.Float64bits(plain.Bandwidth) {
				t.Fatalf("bandwidth bits differ: %x != %x",
					math.Float64bits(traced.Bandwidth), math.Float64bits(plain.Bandwidth))
			}
			if len(traced.Sets) != len(plain.Sets) {
				t.Fatalf("%d sets != %d sets", len(traced.Sets), len(plain.Sets))
			}
			for i := range plain.Sets {
				if traced.Sets[i].Key() != plain.Sets[i].Key() {
					t.Fatalf("set %d: %s != %s", i, traced.Sets[i].Key(), plain.Sets[i].Key())
				}
			}
			if len(traced.Links) != len(plain.Links) {
				t.Fatalf("%d links != %d links", len(traced.Links), len(plain.Links))
			}
			for i := range plain.Links {
				if traced.Links[i] != plain.Links[i] {
					t.Fatalf("link %d: %d != %d", i, traced.Links[i], plain.Links[i])
				}
			}
			if len(traced.Schedule.Slots) != len(plain.Schedule.Slots) {
				t.Fatalf("%d slots != %d slots", len(traced.Schedule.Slots), len(plain.Schedule.Slots))
			}
			for i := range plain.Schedule.Slots {
				a, b := traced.Schedule.Slots[i], plain.Schedule.Slots[i]
				if a.Set.Key() != b.Set.Key() || math.Float64bits(a.Share) != math.Float64bits(b.Share) {
					t.Fatalf("slot %d differs: %+v != %+v", i, a, b)
				}
			}

			// And the span really did observe the work: the traced run
			// must have recorded the enumeration and LP stages.
			td := span.Trace()
			seen := map[obs.Stage]bool{}
			for _, rec := range td.Stages {
				seen[rec.Stage] = true
			}
			if !seen[obs.StageEnumerate] {
				t.Fatalf("trace missing enumerate stage: %v", span.StageNames())
			}
			if !seen[obs.StageLPSolve] {
				t.Fatalf("trace missing lp_solve stage: %v", span.StageNames())
			}
			if cached && !seen[obs.StageMemo] {
				t.Fatalf("trace missing memo stage with cache enabled: %v", span.StageNames())
			}
		})
	}
}

// TestSessionTracedQueryByteIdentical is the same invariant through the
// session (warm LP) path: a traced warm resolve answers exactly like an
// untraced one.
func TestSessionTracedQueryByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	net := sessionNetwork(t, 10, 17)
	m := conflict.NewPhysical(net)
	candidate := randomPath(rng, net)
	if len(candidate) == 0 {
		t.Skip("no candidate path in random topology")
	}

	run := func(ctx context.Context) []*Result {
		sess := NewSession(m, Options{Cache: memo.New(0)})
		var background []Flow
		var out []*Result
		for step := 0; step < 4; step++ {
			res, err := sess.AvailableBandwidthContext(ctx, background, candidate)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			out = append(out, res)
			background = append(background, Flow{Path: candidate, Demand: 0.1})
		}
		return out
	}

	plain := run(context.Background())
	span := obs.NewSpan("identity-session")
	traced := run(obs.WithSpan(context.Background(), span))

	for i := range plain {
		if traced[i].Status != plain[i].Status ||
			math.Float64bits(traced[i].Bandwidth) != math.Float64bits(plain[i].Bandwidth) {
			t.Fatalf("step %d: traced (%v, %x) != plain (%v, %x)", i,
				traced[i].Status, math.Float64bits(traced[i].Bandwidth),
				plain[i].Status, math.Float64bits(plain[i].Bandwidth))
		}
	}
	// The warm path must be visible in the trace: after the first cold
	// solve the remaining steps re-solve warm.
	td := span.Trace()
	var warm int64
	for _, rec := range td.Stages {
		if rec.Stage == obs.StageLPWarm {
			warm = rec.Warm
		}
	}
	if warm == 0 {
		t.Fatalf("trace recorded no warm resolves: %v", span.StageNames())
	}
}
