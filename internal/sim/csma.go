package sim

import (
	"fmt"
	"math"
	"math/rand"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// Hearing reports whether link a's transmitter senses link b's
// transmission — the carrier-sensing relation of Sec. 4. It need not be
// symmetric.
type Hearing func(a, b topology.LinkID) bool

// ModelHearing derives hearing from a conflict model with no geometry
// (table scenarios): a link hears exactly the transmissions that would
// interfere with it at the given rates.
func ModelHearing(m conflict.Model, rateOf func(topology.LinkID) radio.Rate) Hearing {
	return func(a, b topology.LinkID) bool {
		return conflict.Interferes(m,
			conflict.Couple{Link: a, Rate: rateOf(a)},
			conflict.Couple{Link: b, Rate: rateOf(b)})
	}
}

// CSMALink is one contender in a CSMA simulation.
type CSMALink struct {
	Link topology.LinkID
	// Rate is the channel rate the link transmits at.
	Rate radio.Rate
	// OfferedMbps is the arrival rate of traffic to send; zero or
	// negative means saturated (always backlogged).
	OfferedMbps float64
	// ListenOnly makes the link a passive observer: it never transmits
	// but still measures channel idleness — how a node probes the
	// channel before requesting admission (Sec. 4).
	ListenOnly bool
}

// CSMAConfig configures the slotted CSMA/CA MAC.
type CSMAConfig struct {
	// SlotMicros is the backoff slot duration in microseconds
	// (default 20, the 802.11a slot time rounded up).
	SlotMicros float64
	// PacketBits is the payload per transmission (default 8000 bits).
	PacketBits float64
	// CWMin and CWMax bound the binary-exponential contention window
	// (defaults 16 and 1024).
	CWMin, CWMax int
	// RetryLimit drops a packet after this many failed attempts
	// (default 7).
	RetryLimit int
	// RTSCTS enables the virtual-carrier-sensing handshake: a winning
	// transmission silences every link it would collide with for its
	// duration (hidden terminals included), at the cost of
	// RTSCTSOverheadSlots extra airtime per packet. Transmissions
	// starting in the same slot still collide (RTS collisions).
	RTSCTS bool
	// RTSCTSOverheadSlots is the handshake overhead in slots
	// (default 2 when RTSCTS is on).
	RTSCTSOverheadSlots int
	// Seed drives the backoff RNG.
	Seed int64
}

func (c CSMAConfig) withDefaults() CSMAConfig {
	if c.SlotMicros <= 0 {
		c.SlotMicros = 20
	}
	if c.PacketBits <= 0 {
		c.PacketBits = 8000
	}
	if c.CWMin <= 0 {
		c.CWMin = 16
	}
	if c.CWMax < c.CWMin {
		c.CWMax = 1024
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 7
	}
	if c.RTSCTS && c.RTSCTSOverheadSlots <= 0 {
		c.RTSCTSOverheadSlots = 2
	}
	return c
}

// CSMAReport is the outcome of a CSMA simulation.
type CSMAReport struct {
	// Throughput is successfully delivered goodput per link in Mbps.
	Throughput map[topology.LinkID]float64
	// IdleRatio is the fraction of slots each link's transmitter sensed
	// the channel idle while not transmitting itself — the lambda_idle
	// the paper's distributed estimators measure.
	IdleRatio map[topology.LinkID]float64
	// Attempts and Collisions count transmissions started and failed.
	Attempts   map[topology.LinkID]int
	Collisions map[topology.LinkID]int
	// DurationMs echoes the simulated time.
	DurationMs float64
}

type csmaState struct {
	link     CSMALink
	slots    int // packet airtime in slots at this link's rate
	backlog  float64
	backoff  int
	cw       int
	retries  int
	txLeft   int  // slots remaining of the current transmission
	txFailed bool // the current transmission has already been corrupted
	nav      int  // RTS/CTS virtual-carrier-sense countdown
	idle     int
	bits     float64
	attempts int
	fails    int
}

// RunCSMA simulates slotted CSMA/CA with binary exponential backoff:
// each backlogged link counts down its backoff while it senses the
// channel idle, transmits a packet when the countdown hits zero, and
// succeeds iff the conflict model sustains its rate against every
// concurrent transmission in every slot of the packet (SINR capture).
func RunCSMA(m conflict.Model, hearing Hearing, links []CSMALink, durationMs float64, cfg CSMAConfig) (*CSMAReport, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("sim: no links")
	}
	if hearing == nil {
		return nil, fmt.Errorf("sim: nil hearing relation")
	}
	if durationMs <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %g", durationMs)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	states := make([]*csmaState, 0, len(links))
	seen := make(map[topology.LinkID]bool, len(links))
	for i, l := range links {
		if l.Rate <= 0 {
			return nil, fmt.Errorf("sim: link %d has non-positive rate", i)
		}
		if seen[l.Link] {
			return nil, fmt.Errorf("sim: link %d listed twice", l.Link)
		}
		seen[l.Link] = true
		airMicros := cfg.PacketBits / float64(l.Rate) // bits / (Mbps) = microseconds
		st := &csmaState{
			link:  l,
			slots: int(math.Ceil(airMicros/cfg.SlotMicros)) + cfg.RTSCTSOverheadSlots,
			cw:    cfg.CWMin,
		}
		st.backoff = rng.Intn(st.cw)
		if l.OfferedMbps <= 0 {
			st.backlog = math.Inf(1)
		}
		states = append(states, st)
	}

	totalSlots := int(durationMs * 1000 / cfg.SlotMicros)
	bitsPerSlot := make([]float64, len(states)) // arrivals per slot
	for i, st := range states {
		if st.link.OfferedMbps > 0 {
			bitsPerSlot[i] = st.link.OfferedMbps * cfg.SlotMicros // Mbps * us = bits
		}
	}

	transmitting := make([]bool, len(states))
	for slot := 0; slot < totalSlots; slot++ {
		for i, st := range states {
			if bitsPerSlot[i] > 0 {
				st.backlog += bitsPerSlot[i]
			}
			transmitting[i] = st.txLeft > 0
		}
		// Sensing and backoff decisions use last slot's channel state;
		// links starting now all see the channel as it was.
		var starting []int
		for i, st := range states {
			if st.txLeft > 0 {
				continue
			}
			if st.nav > 0 {
				st.nav--
				continue // virtually reserved: defer, channel counts busy
			}
			busy := false
			for j, other := range states {
				if i == j || !transmitting[j] {
					continue
				}
				if hearing(st.link.Link, other.link.Link) {
					busy = true
					break
				}
			}
			if busy {
				continue
			}
			st.idle++
			if st.link.ListenOnly || st.backlog < cfg.PacketBits {
				continue
			}
			if st.backoff > 0 {
				st.backoff--
				continue
			}
			starting = append(starting, i)
		}
		for _, i := range starting {
			st := states[i]
			st.txLeft = st.slots
			st.txFailed = false
			st.attempts++
			transmitting[i] = true
		}
		// RTS/CTS: each fresh transmission silences every link it would
		// collide with (virtual carrier sensing reaches hidden
		// terminals). Same-slot starters are not protected — their RTS
		// frames collided already.
		if cfg.RTSCTS {
			for _, i := range starting {
				winner := states[i]
				for j, other := range states {
					if j == i || other.txLeft > 0 {
						continue
					}
					self := conflict.Couple{Link: winner.link.Link, Rate: winner.link.Rate}
					peer := conflict.Couple{Link: other.link.Link, Rate: other.link.Rate}
					if hearing(other.link.Link, winner.link.Link) || conflict.Interferes(m, self, peer) {
						if winner.txLeft > other.nav {
							other.nav = winner.txLeft
						}
					}
				}
			}
		}
		// Evaluate capture for every active transmission this slot.
		var active []conflict.Couple
		for _, st := range states {
			if st.txLeft > 0 {
				active = append(active, conflict.Couple{Link: st.link.Link, Rate: st.link.Rate})
			}
		}
		if len(active) > 1 {
			for _, st := range states {
				if st.txLeft <= 0 || st.txFailed {
					continue
				}
				others := make([]conflict.Couple, 0, len(active)-1)
				for _, c := range active {
					if c.Link != st.link.Link {
						others = append(others, c)
					}
				}
				if m.MaxRate(st.link.Link, others) < st.link.Rate {
					st.txFailed = true
				}
			}
		}
		// Advance transmissions; settle completions.
		for _, st := range states {
			if st.txLeft == 0 {
				continue
			}
			st.txLeft--
			if st.txLeft > 0 {
				continue
			}
			if st.txFailed {
				st.fails++
				st.retries++
				st.cw = minInt(st.cw*2, cfg.CWMax)
				if st.retries >= cfg.RetryLimit {
					// Drop the packet.
					st.backlog = math.Max(0, st.backlog-cfg.PacketBits)
					if math.IsInf(st.backlog, 1) {
						st.backlog = math.Inf(1)
					}
					st.retries = 0
					st.cw = cfg.CWMin
				}
			} else {
				st.bits += cfg.PacketBits
				if !math.IsInf(st.backlog, 1) {
					st.backlog = math.Max(0, st.backlog-cfg.PacketBits)
				}
				st.retries = 0
				st.cw = cfg.CWMin
			}
			st.backoff = rng.Intn(st.cw)
		}
	}

	durationUs := float64(totalSlots) * cfg.SlotMicros
	out := &CSMAReport{
		Throughput: make(map[topology.LinkID]float64, len(states)),
		IdleRatio:  make(map[topology.LinkID]float64, len(states)),
		Attempts:   make(map[topology.LinkID]int, len(states)),
		Collisions: make(map[topology.LinkID]int, len(states)),
		DurationMs: durationUs / 1000,
	}
	for _, st := range states {
		out.Throughput[st.link.Link] = st.bits / durationUs // bits/us = Mbps
		out.IdleRatio[st.link.Link] = float64(st.idle) / float64(totalSlots)
		out.Attempts[st.link.Link] = st.attempts
		out.Collisions[st.link.Link] = st.fails
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
