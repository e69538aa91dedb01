package schedule

import (
	"encoding/json"
	"math"
	"testing"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/scenario"
	"abw/internal/topology"
)

// paperScheduleII builds the optimal Scenario II schedule from Sec. 5.1:
//
//	(0.1, {L1@54}), (0.3, {L2@54}), (0.3, {L3@54}), (0.3, {(L1,36),(L4,54)}).
func paperScheduleII(s *scenario.ScenarioII) Schedule {
	return Schedule{Slots: []Slot{
		{Share: 0.1, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(conflict.Couple{Link: s.L3, Rate: 54})},
		{Share: 0.3, Set: indepset.NewSet(
			conflict.Couple{Link: s.L1, Rate: 36},
			conflict.Couple{Link: s.L4, Rate: 54},
		)},
	}}
}

func TestPaperScheduleDelivers16_2(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := paperScheduleII(s)
	if err := sched.Validate(s.Model); err != nil {
		t.Fatalf("paper schedule invalid: %v", err)
	}
	for _, l := range s.Links() {
		if got := sched.Throughput(l); math.Abs(got-16.2) > 1e-9 {
			t.Errorf("throughput on L%d = %g, want 16.2", l+1, got)
		}
	}
	if got := sched.TotalShare(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("total share = %g, want 1", got)
	}
	demand := map[topology.LinkID]float64{s.L1: 16.2, s.L2: 16.2, s.L3: 16.2, s.L4: 16.2}
	if !sched.Delivers(demand, 1e-9) {
		t.Error("schedule should deliver 16.2 on all links")
	}
	if sched.Delivers(map[topology.LinkID]float64{s.L1: 16.3}, 1e-9) {
		t.Error("schedule cannot deliver 16.3")
	}
}

func TestValidateRejectsInfeasibleSlot(t *testing.T) {
	s := scenario.NewScenarioII()
	bad := Schedule{Slots: []Slot{{
		Share: 0.5,
		Set: indepset.NewSet(
			conflict.Couple{Link: s.L1, Rate: 54},
			conflict.Couple{Link: s.L2, Rate: 54},
		),
	}}}
	if err := bad.Validate(s.Model); err == nil {
		t.Error("L1+L2 concurrent: expected validation error")
	}
}

func TestValidateRejectsOverfullSchedule(t *testing.T) {
	s := scenario.NewScenarioII()
	bad := Schedule{Slots: []Slot{
		{Share: 0.7, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
		{Share: 0.7, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: 54})},
	}}
	if err := bad.Validate(s.Model); err == nil {
		t.Error("total share 1.4: expected validation error")
	}
	neg := Schedule{Slots: []Slot{{Share: -0.1, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})}}}
	if err := neg.Validate(nil); err == nil {
		t.Error("negative share: expected validation error")
	}
	nan := Schedule{Slots: []Slot{{Share: math.NaN()}}}
	if err := nan.Validate(nil); err == nil {
		t.Error("NaN share: expected validation error")
	}
}

func TestNormalized(t *testing.T) {
	s := scenario.NewScenarioII()
	set1 := indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})
	raw := Schedule{Slots: []Slot{
		{Share: 0.1, Set: set1},
		{Share: 0, Set: indepset.NewSet(conflict.Couple{Link: s.L2, Rate: 54})},
		{Share: 0.2, Set: set1},
	}}
	norm := raw.Normalized()
	if len(norm.Slots) != 1 {
		t.Fatalf("normalized slots = %d, want 1", len(norm.Slots))
	}
	if math.Abs(norm.Slots[0].Share-0.3) > 1e-12 {
		t.Errorf("merged share = %g, want 0.3", norm.Slots[0].Share)
	}
	// Throughput must be preserved.
	if math.Abs(raw.Throughput(s.L1)-norm.Throughput(s.L1)) > 1e-12 {
		t.Error("Normalized changed throughput")
	}
	// Equal couples in separate slices merge; the same link at another
	// rate is another set. First-seen order is kept.
	set36 := indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 36})
	mixed := Schedule{Slots: []Slot{
		{Share: 0.1, Set: set1},
		{Share: 0.2, Set: set36},
		{Share: 0.3, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
	}}
	norm = mixed.Normalized()
	if len(norm.Slots) != 2 || norm.Slots[0].Set.Rate(s.L1) != 54 || norm.Slots[1].Set.Rate(s.L1) != 36 {
		t.Fatalf("normalized = %v, want the 54 slot then the 36 slot", norm.Slots)
	}
	if math.Abs(norm.Slots[0].Share-0.4) > 1e-12 {
		t.Errorf("merged share = %g, want 0.4", norm.Slots[0].Share)
	}
}

func TestIdleShare(t *testing.T) {
	s := scenario.NewScenarioII()
	sched := Schedule{Slots: []Slot{
		{Share: 0.4, Set: indepset.NewSet(conflict.Couple{Link: s.L1, Rate: 54})},
	}}
	if got := sched.IdleShare(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("IdleShare = %g, want 0.6", got)
	}
	full := paperScheduleII(s)
	if got := full.IdleShare(); got != 0 {
		t.Errorf("IdleShare of full schedule = %g, want 0", got)
	}
}

func TestEmptySchedule(t *testing.T) {
	var s Schedule
	if err := s.Validate(nil); err != nil {
		t.Errorf("empty schedule should validate: %v", err)
	}
	if s.TotalShare() != 0 || s.IdleShare() != 1 {
		t.Error("empty schedule shares wrong")
	}
	if s.Throughput(0) != 0 {
		t.Error("empty schedule throughput should be 0")
	}
	if s.String() != "schedule{}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := scenario.NewScenarioII()
	orig := paperScheduleII(s)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Slots) != len(orig.Slots) {
		t.Fatalf("slots: %d vs %d", len(back.Slots), len(orig.Slots))
	}
	for _, l := range s.Links() {
		if math.Abs(back.Throughput(l)-orig.Throughput(l)) > 1e-12 {
			t.Errorf("throughput on %d changed across round trip", l)
		}
	}
	if err := back.Validate(s.Model); err != nil {
		t.Errorf("round-tripped schedule invalid: %v", err)
	}
}

func TestScheduleJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`[{"share":-1,"couples":[]}]`,
		`[{"share":0.5,"couples":[{"link":-1,"rateMbps":54}]}]`,
		`[{"share":0.5,"couples":[{"link":0,"rateMbps":0}]}]`,
	}
	for i, doc := range cases {
		var s Schedule
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("case %d: expected unmarshal error", i)
		}
	}
}
