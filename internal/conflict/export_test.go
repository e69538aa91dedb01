package conflict

import (
	"abw/internal/radio"
	"abw/internal/topology"
)

// SignalPower returns the received signal power at link's receiver.
func (p *Physical) SignalPower(link topology.LinkID) float64 {
	if link < 0 || int(link) >= len(p.signal) {
		return 0
	}
	return p.signal[link]
}

// NewSetTracker builds a tracker with an empty member set over fresh
// tables for the given universe (see NewSetTables).
func (p *Physical) NewSetTracker(universe []topology.LinkID) *SetTracker {
	return p.NewSetTables(universe).NewTracker()
}

// MaxRateVector returns the maximum supported rate vector of a concurrent
// transmission set (paper Sec. 2.3): the i-th entry is the highest rate
// links[i] sustains while all the other listed links transmit. The
// second return is false if any link in the set cannot transmit at all
// (the set is not an independent set).
func (p *Physical) MaxRateVector(links []topology.LinkID) ([]radio.Rate, bool) {
	t := p.NewSetTracker(links)
	for i := range links {
		t.Push(i)
	}
	rates := make([]radio.Rate, len(links))
	ok := true
	for i := range links {
		rates[i] = t.MaxRate(i)
		if rates[i] == 0 {
			ok = false
		}
	}
	return rates, ok
}

// Depth returns the number of members currently pushed.
func (t *SetTracker) Depth() int { return len(t.members) }

// MaxRateJoinedUnblocked returns the maximum rate member i would
// sustain if position j (not currently a member) also transmitted, for
// a joiner j that no member blocks (MaxRate(j) > 0 implies it): no
// member, i included, then shares a node with j, so no sharer test is
// needed. Other arguments get no meaningful answer.
func (t *SetTracker) MaxRateJoinedUnblocked(i, j int) radio.Rate {
	if t.blocked(i) {
		return 0
	}
	return t.s.rateAt(i, t.JoinedLevel(i, j))
}
