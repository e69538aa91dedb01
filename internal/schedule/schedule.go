// Package schedule represents the paper's link schedules: collections
// S = {(E_i, R_i, lambda_i)} of concurrent transmission sets with time
// shares (Sec. 2.3). A demand vector f is feasible iff some schedule
// delivers it with total share at most one (Eq. 2/4); the core package
// produces such schedules from its LP solutions and the simulators
// execute them.
package schedule

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/topology"
)

// Slot is one concurrent transmission set scheduled for a fraction of
// the period.
type Slot struct {
	// Set is the concurrent transmission set with its rate vector.
	Set indepset.Set
	// Share is the fraction of the schedule period (lambda_i in the
	// paper), in [0, 1].
	Share float64
}

// Schedule is an ordered collection of slots. The zero value is an
// empty, valid schedule.
type Schedule struct {
	Slots []Slot
}

// TotalShare returns the sum of slot shares; feasible schedules keep it
// at or below one (Eq. 2).
func (s *Schedule) TotalShare() float64 {
	total := 0.0
	for _, slot := range s.Slots {
		total += slot.Share
	}
	return total
}

// IdleShare returns the unscheduled fraction of the period, clamped at
// zero.
func (s *Schedule) IdleShare() float64 {
	return math.Max(0, 1-s.TotalShare())
}

// Throughput returns the long-run throughput the schedule delivers on
// the given link: sum of share * rate over slots containing it.
func (s *Schedule) Throughput(link topology.LinkID) float64 {
	total := 0.0
	for _, slot := range s.Slots {
		if r := slot.Set.Rate(link); r > 0 {
			total += slot.Share * float64(r)
		}
	}
	return total
}

// Validate checks structural sanity and, when m is non-nil, that every
// slot's transmission set is feasible under the conflict model.
func (s *Schedule) Validate(m conflict.Model) error {
	for i, slot := range s.Slots {
		if slot.Share < -1e-12 || math.IsNaN(slot.Share) || math.IsInf(slot.Share, 0) {
			return fmt.Errorf("schedule: slot %d has invalid share %g", i, slot.Share)
		}
		if m != nil && slot.Set.Len() > 0 && !conflict.Feasible(m, slot.Set.Couples) {
			return fmt.Errorf("schedule: slot %d set %v is not feasible", i, slot.Set)
		}
	}
	if total := s.TotalShare(); total > 1+1e-9 {
		return fmt.Errorf("schedule: total share %.12f exceeds 1", total)
	}
	return nil
}

// Delivers reports whether the schedule meets every given link demand
// within tolerance.
func (s *Schedule) Delivers(demand map[topology.LinkID]float64, tol float64) bool {
	for link, d := range demand {
		if s.Throughput(link) < d-tol {
			return false
		}
	}
	return true
}

// Normalized returns a copy with zero-share slots dropped and slots of
// identical transmission sets merged, preserving first-seen order.
func (s *Schedule) Normalized() Schedule {
	var out Schedule
	for _, slot := range s.Slots {
		if slot.Share <= 1e-12 {
			continue
		}
		i := slices.IndexFunc(out.Slots, func(o Slot) bool {
			return slices.Equal(o.Set.Couples, slot.Set.Couples)
		})
		if i >= 0 {
			out.Slots[i].Share += slot.Share
			continue
		}
		out.Slots = append(out.Slots, Slot{Set: slot.Set, Share: slot.Share})
	}
	return out
}

// String implements fmt.Stringer.
func (s *Schedule) String() string {
	if len(s.Slots) == 0 {
		return "schedule{}"
	}
	var b strings.Builder
	b.WriteString("schedule{")
	for i, slot := range s.Slots {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4f:%s", slot.Share, slot.Set)
	}
	b.WriteString("}")
	return b.String()
}
