package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestNilSpanFastPath(t *testing.T) {
	var s *Span
	if s.ID() != "" {
		t.Fatal("nil span id must be empty")
	}
	tm := s.StartStage(StageEnumerate)
	if tm != nil {
		t.Fatal("nil span must hand out a nil timer")
	}
	// Every timer method must be a no-op on nil.
	tm.SetStage(StageLPSolve)
	tm.AddSets(5)
	tm.AddPivots(5)
	tm.SetWarm(true)
	tm.SetOutcome("hit")
	tm.End()
	if s.Trace() != nil {
		t.Fatal("nil span trace must be nil")
	}
	if s.StageNames() != nil {
		t.Fatal("nil span stage names must be nil")
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil {
		t.Fatal("empty context must yield nil span")
	}
	if WithSpan(ctx, nil) != ctx {
		t.Fatal("attaching nil span must return the context unchanged")
	}
	s := NewSpan("req-1")
	ctx = WithSpan(ctx, s)
	if got := SpanFrom(ctx); got != s {
		t.Fatal("span did not round-trip through context")
	}
}

func TestSpanAggregation(t *testing.T) {
	s := NewSpan("req-2")

	t1 := s.StartStage(StageEnumerate)
	t1.AddSets(10)
	t1.End()
	t1.End() // second End is a no-op

	t2 := s.StartStage(StageEnumerate)
	t2.AddSets(5)
	t2.End()

	t3 := s.StartStage(StageLPWarm)
	t3.AddPivots(7)
	t3.SetWarm(true)
	t3.End()

	t4 := s.StartStage(StageMemo)
	t4.SetOutcome("hit")
	t4.End()
	t5 := s.StartStage(StageMemo)
	t5.SetOutcome("miss")
	t5.End()

	// A warm attempt that fell back cold re-stages before End.
	t6 := s.StartStage(StageLPWarm)
	t6.SetStage(StageLPSolve)
	t6.AddPivots(11)
	t6.End()

	// A solve from a start basis, and one whose start was refused.
	t7 := s.StartStage(StageLPSolve)
	t7.AddPivots(3)
	t7.SetStarted(true)
	t7.End()
	t8 := s.StartStage(StageLPSolve)
	t8.AddPivots(13)
	t8.SetStartFallback("singular")
	t8.End()

	td := s.Trace()
	if td.RequestID != "req-2" {
		t.Fatalf("trace id = %q", td.RequestID)
	}
	if td.TotalNs < 0 {
		t.Fatalf("total = %d", td.TotalNs)
	}
	byStage := map[Stage]StageRecord{}
	for _, rec := range td.Stages {
		byStage[rec.Stage] = rec
	}
	enum := byStage[StageEnumerate]
	if enum.Calls != 2 || enum.Sets != 15 {
		t.Fatalf("enumerate record = %+v", enum)
	}
	warm := byStage[StageLPWarm]
	if warm.Calls != 1 || warm.Pivots != 7 || warm.Warm != 1 {
		t.Fatalf("lp_warm record = %+v", warm)
	}
	cold := byStage[StageLPSolve]
	if cold.Calls != 3 || cold.Pivots != 27 || cold.Warm != 0 || cold.Started != 1 || cold.StartedPivots != 3 ||
		len(cold.StartFallbacks) != 1 || cold.StartFallbacks["singular"] != 1 {
		t.Fatalf("lp_solve record = %+v", cold)
	}
	memo := byStage[StageMemo]
	if memo.Calls != 2 || memo.Cache["hit"] != 1 || memo.Cache["miss"] != 1 {
		t.Fatalf("memo record = %+v", memo)
	}
	if got := strings.Join(s.StageNames(), ","); got != "enumerate,lp_solve,lp_warm,memo" {
		t.Fatalf("stage names = %s", got)
	}
}

// TestSpanConcurrentTimers ends timers from many goroutines into one
// span; under -race this proves the span's aggregation is safe for the
// parallel-enumeration case.
func TestSpanConcurrentTimers(t *testing.T) {
	s := NewSpan("req-3")
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tm := s.StartStage(StageEnumerate)
				tm.AddSets(1)
				tm.End()
			}
		}()
	}
	wg.Wait()
	td := s.Trace()
	if len(td.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(td.Stages))
	}
	rec := td.Stages[0]
	if rec.Calls != goroutines*perG || rec.Sets != goroutines*perG {
		t.Fatalf("record = %+v, want %d calls/sets", rec, goroutines*perG)
	}
}

func TestRequestIDThreading(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" {
		t.Fatal("empty context must yield empty id")
	}
	if WithRequestID(ctx, "") != ctx {
		t.Fatal("empty id must leave context unchanged")
	}
	a, b := NextRequestID(), NextRequestID()
	if a == b || a == "" {
		t.Fatalf("request ids must be unique and non-empty: %q %q", a, b)
	}
	ctx = WithRequestID(ctx, a)
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("request id = %q, want %q", got, a)
	}
}
