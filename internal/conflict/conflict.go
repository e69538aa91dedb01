// Package conflict decides which sets of concurrent transmissions are
// feasible in a multirate network. Its central abstraction follows the
// paper's observation that interference relations depend on the *rates*
// links use, not just on which links transmit: every question is asked
// about (link, rate) couples.
//
// Three models are provided, plus fixed rate assignments over them:
//
//   - Physical: cumulative-interference SINR model (paper Eq. 1/3). The
//     maximum rate a link supports in a concurrent set depends only on
//     set membership (interference power is rate-independent), which is
//     what makes maximum supported rate vectors well-defined (Sec. 2.3).
//   - Protocol: pairwise rate-dependent interference ranges — a cheaper
//     model for baselines and tests.
//   - Table: explicitly enumerated pairwise conflicts, used to encode
//     the paper's worked examples (Fig. 1) exactly as stated.
//   - Fixed rates (Sec. 2.4, 3.1): FixRates pins a PairwiseModel's
//     links to one rate each and stays pairwise.
package conflict

import (
	"cmp"
	"fmt"

	"abw/internal/radio"
	"abw/internal/topology"
)

// Couple pairs a link with the rate it transmits at — the unit of the
// paper's rate-coupled independent sets and cliques.
type Couple struct {
	Link topology.LinkID
	Rate radio.Rate
}

// String implements fmt.Stringer.
func (c Couple) String() string {
	return fmt.Sprintf("(L%d, %v)", c.Link, c.Rate)
}

// CompareCouples is the one order over couple lists, and so over the
// families of independent sets and cliques built from them (Eq. 6 needs
// a fixed order, not a particular one). It compares the link IDs
// lexicographically as integers, a list before its extensions; lists
// over the same links then compare their rates in turn, numerically
// (cmp.Compare: NaN first, -0 equal to +0). A sequential full physical
// walk emits its sets in this order, so sorting them is one linear
// pass.
func CompareCouples(a, b []Couple) int {
	for i := range min(len(a), len(b)) {
		if c := cmp.Compare(a[i].Link, b[i].Link); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i := range a {
		if c := cmp.Compare(a[i].Rate, b[i].Rate); c != 0 {
			return c
		}
	}
	return 0
}

// Model answers rate-feasibility questions about concurrent
// transmissions.
type Model interface {
	// MaxRate returns the maximum rate link can sustain while every
	// couple in concurrent transmits simultaneously, or 0 if it cannot
	// transmit at all. Couples in concurrent referring to link itself
	// are ignored.
	MaxRate(link topology.LinkID, concurrent []Couple) radio.Rate

	// Rates returns the rates link may use when transmitting alone, in
	// descending order. An empty slice means the link is unusable.
	Rates(link topology.LinkID) []radio.Rate
}

// PairwiseModel is implemented by models whose feasibility decomposes
// into independent pairwise constraints between couples: a rate r of a
// link is usable in a concurrent set exactly when RateClears(link, r, y)
// holds for every other couple y in the set, so that
//
//	MaxRate(link, concurrent) == max{r in Rates(link) :
//	        RateClears(link, r, y) for every y in concurrent, y.Link != link}
//
// (or 0 when no rate clears). Table, Protocol and FixedRates satisfy
// this; Physical does not — its cumulative interference sum couples all
// members at once. Enumeration exploits the decomposition to check
// feasibility incrementally: only the newly added couple needs to be
// tested against the current members.
type PairwiseModel interface {
	Model

	// RateClears reports whether link can transmit at rate r while the
	// single couple other transmits concurrently. Half-duplex node
	// exclusivity, where the model enforces it, must be folded in
	// (report false for every rate). Couples on link itself are never
	// passed.
	RateClears(link topology.LinkID, r radio.Rate, other Couple) bool
}

// Feasible reports whether all couples can transmit concurrently: every
// couple's rate must be within the maximum rate the model allows it given
// the others (the paper's independent-set condition, Sec. 2.4). Sets
// containing the same link twice are infeasible.
func Feasible(m Model, couples []Couple) bool {
	seen := make(map[topology.LinkID]bool, len(couples))
	for _, c := range couples {
		if seen[c.Link] {
			return false
		}
		seen[c.Link] = true
	}
	others := make([]Couple, 0, len(couples)-1)
	for i, c := range couples {
		if c.Rate <= 0 {
			return false
		}
		others = others[:0]
		for j, o := range couples {
			if j != i {
				others = append(others, o)
			}
		}
		if m.MaxRate(c.Link, others) < c.Rate {
			return false
		}
	}
	return true
}

// Interferes reports whether the two couples cannot both succeed when
// transmitting simultaneously — the paper's clique edge relation
// (Sec. 3.1).
func Interferes(m Model, a, b Couple) bool {
	if a.Link == b.Link {
		return true
	}
	return !Feasible(m, []Couple{a, b})
}

// SupportsAlone reports whether link can transmit at rate r with no
// concurrent traffic.
func SupportsAlone(m Model, link topology.LinkID, r radio.Rate) bool {
	for _, avail := range m.Rates(link) {
		if avail == r {
			return true
		}
	}
	return false
}

// AloneMaxRate returns the highest rate link supports when transmitting
// alone, or 0 if none. A *Physical answers without allocating: routing
// asks once per edge relaxation.
func AloneMaxRate(m Model, link topology.LinkID) radio.Rate {
	if p, ok := m.(*Physical); ok {
		return p.AloneMaxRate(link)
	}
	rates := m.Rates(link)
	if len(rates) == 0 {
		return 0
	}
	return rates[0]
}

// SharesNode reports whether two links share an endpoint — the
// half-duplex constraint: a node cannot take part in two simultaneous
// transmissions.
func SharesNode(a, b topology.Link) bool {
	return a.Tx == b.Tx || a.Tx == b.Rx || a.Rx == b.Tx || a.Rx == b.Rx
}
