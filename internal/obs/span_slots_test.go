package obs

import (
	"reflect"
	"testing"
)

// TestSpanFoldMatchesTrace checks that Fold reports what Trace builds:
// the same records in the same order, and the keyed counts that Trace
// puts in each record's Cache and StartFallbacks maps.
func TestSpanFoldMatchesTrace(t *testing.T) {
	s := NewSpan("req-fold")
	for i := 0; i < 3; i++ {
		for _, oc := range []string{"hit", "miss", "delta", "hit"} {
			tm := s.StartStage(StageMemo)
			tm.SetOutcome(oc)
			tm.AddSets(2)
			tm.End()
		}
		tm := s.StartStage(StageLPWarm)
		tm.SetStage(StageLPSolve)
		tm.SetStartFallback([]string{"singular", "unmapped", "infeasible"}[i])
		tm.AddPivots(4)
		tm.End()
		tm = s.StartStage(StageSession)
		tm.SetOutcome("hit")
		tm.End()
	}
	// More keyed counts than the inline table holds.
	for i := 0; i < 2*tallyCap; i++ {
		tm := s.StartStage(StageEstimate)
		tm.SetOutcome(string(rune('a' + i)))
		tm.End()
	}

	want := s.Trace().Stages
	var got []StageRecord
	s.Fold(func(rec StageRecord) { got = append(got, rec) }, func(tl Tally) {
		for i := range got {
			if got[i].Stage != tl.Stage {
				continue
			}
			m := &got[i].Cache
			if tl.Fallback {
				m = &got[i].StartFallbacks
			}
			if *m == nil {
				*m = map[string]int64{}
			}
			(*m)[tl.Key] += tl.N
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fold reported\n%+v\nTrace built\n%+v", got, want)
	}
	if memo := want[0]; memo.Stage != StageMemo || memo.Cache["hit"] != 6 || memo.Cache["delta"] != 3 || memo.Sets != 24 {
		t.Fatalf("memo record = %+v", memo)
	}
}

func TestUnknownStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ending a timer on a stage outside the vocabulary did not panic")
		}
	}()
	NewSpan("").StartStage(Stage("nope")).End()
}

// TestStageTimingAllocatesNothing pins that timing a stage, keyed counts
// included, allocates nothing once the span exists.
func TestStageTimingAllocatesNothing(t *testing.T) {
	s := NewSpan("req-allocs")
	got := testing.AllocsPerRun(100, func() {
		tm := s.StartStage(StageMemo)
		tm.SetOutcome("hit")
		tm.AddSets(1)
		tm.End()
		tm = s.StartStage(StageLPSolve)
		tm.SetStartFallback("singular")
		tm.End()
	})
	if got != 0 {
		t.Fatalf("timing a stage allocated %v objects, want 0", got)
	}
}
