package conflict

import (
	"abw/internal/radio"
	"abw/internal/topology"
)

// FixedRates wraps a pairwise model and pins every listed link to a
// single rate — the "fixed rate assignment" regime the paper contrasts
// with link adaptation (Sec. 2.4, 3.1). A pinned link is usable iff the
// inner model declares the pinned rate for it; links outside the
// assignment support no rate at all. The result is itself pairwise: a
// link clears another couple exactly when the inner model clears it at
// the link's pin.
type FixedRates struct {
	inner PairwiseModel
	pins  map[topology.LinkID]radio.Rate // usable links only
}

var _ PairwiseModel = (*FixedRates)(nil)

// FixRates builds a FixedRates wrapper from one couple per link. An
// assigned link whose inner rates do not include its pin drops out, and
// a repeated link keeps its last assignment.
func FixRates(inner PairwiseModel, assignment []Couple) *FixedRates {
	pins := make(map[topology.LinkID]radio.Rate, len(assignment))
	for _, cp := range assignment {
		delete(pins, cp.Link)
		if cp.Rate > 0 && SupportsAlone(inner, cp.Link, cp.Rate) {
			pins[cp.Link] = cp.Rate
		}
	}
	return &FixedRates{inner: inner, pins: pins}
}

// MaxRate implements Model: the pinned rate when the inner model clears
// it against every concurrent couple, else 0.
func (m *FixedRates) MaxRate(link topology.LinkID, concurrent []Couple) radio.Rate {
	pin, ok := m.pins[link]
	if !ok {
		return 0
	}
	for _, c := range concurrent {
		if c.Link != link && !m.inner.RateClears(link, pin, c) {
			return 0
		}
	}
	return pin
}

// RateClears implements PairwiseModel: only the pinned rate of a usable
// link can clear, and it clears what the inner model clears.
func (m *FixedRates) RateClears(link topology.LinkID, r radio.Rate, other Couple) bool {
	pin, ok := m.pins[link]
	return ok && r == pin && m.inner.RateClears(link, pin, other)
}

// Rates implements Model.
func (m *FixedRates) Rates(link topology.LinkID) []radio.Rate {
	if pin, ok := m.pins[link]; ok {
		return []radio.Rate{pin}
	}
	return nil
}
