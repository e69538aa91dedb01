package conflict

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"sync"

	"abw/internal/topology"
)

// Fingerprinter is implemented by conflict models that can name their
// own identity with a canonical content fingerprint: two models answer
// every MaxRate/Rates question identically whenever their fingerprints
// are equal, and models built from different parameters (a moved node,
// a changed link rate, a different profile) fingerprint differently.
//
// The fingerprint is what keys the set-family cache (internal/memo):
// it must be stable across processes and independent of construction
// order. Physical, Protocol and Table implement it;
// FixedRates does not, so its enumerations bypass the cache.
//
// Models are immutable after construction (the package-wide contract
// enumeration already relies on); the fingerprint is computed lazily on
// first use and memoized, so a Table must receive all of its SetRates /
// AddConflict calls before the first Fingerprint call.
type Fingerprinter interface {
	// Fingerprint returns the canonical content fingerprint, a short
	// hex string safe to embed in composite cache keys.
	Fingerprint() string
}

var (
	_ Fingerprinter = (*Physical)(nil)
	_ Fingerprinter = (*Protocol)(nil)
	_ Fingerprinter = (*Table)(nil)
)

// fpWriter accumulates canonical content into a sha256 state. All
// floats are written as their IEEE-754 bit patterns, so the fingerprint
// distinguishes exactly the values the model computes with.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newFPWriter() *fpWriter { return &fpWriter{h: sha256.New()} }

func (w *fpWriter) str(s string) {
	w.int(len(s))
	w.h.Write([]byte(s))
}

func (w *fpWriter) int(v int) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(int64(v)))
	w.h.Write(w.buf[:])
}

func (w *fpWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:], math.Float64bits(v))
	w.h.Write(w.buf[:])
}

func (w *fpWriter) sum() string {
	return hex.EncodeToString(w.h.Sum(nil)[:16])
}

// network writes everything model behavior can depend on about a
// network: the calibrated profile (classes with their thresholds, the
// path-loss exponent, powers, the noise floor, the carrier-sense
// range), node positions, and every link with its endpoints, length and
// alone-maximum rate.
func (w *fpWriter) network(net *topology.Network) {
	prof := net.Profile()
	w.int(prof.NumClasses())
	for i := 0; i < prof.NumClasses(); i++ {
		c := prof.Class(i)
		w.f64(float64(c.Rate))
		w.f64(c.Range)
		w.f64(c.SINRdB)
		sens, _ := prof.Sensitivity(c.Rate)
		thr, _ := prof.SINRThreshold(c.Rate)
		w.f64(sens)
		w.f64(thr)
	}
	w.f64(prof.Exponent())
	w.f64(prof.TxPower())
	w.f64(prof.Noise())
	w.f64(prof.CSRange())
	nodes := net.Nodes()
	w.int(len(nodes))
	for _, n := range nodes {
		w.int(int(n.ID))
		w.f64(n.Pos.X)
		w.f64(n.Pos.Y)
	}
	links := net.Links()
	w.int(len(links))
	for _, l := range links {
		w.int(int(l.ID))
		w.int(int(l.Tx))
		w.int(int(l.Rx))
		w.f64(l.Dist)
		w.f64(float64(l.MaxRate))
	}
}

// Physical fingerprint state, memoized on first use.
type fpMemo struct {
	once sync.Once
	fp   string
}

func (m *fpMemo) get(compute func() string) string {
	m.once.Do(func() { m.fp = compute() })
	return m.fp
}

// Fingerprint implements Fingerprinter: the canonical identity of the
// SINR model is its network (profile, positions, links).
func (p *Physical) Fingerprint() string {
	return p.fp.get(func() string {
		w := newFPWriter()
		w.str("conflict.Physical/v1")
		w.network(p.net)
		return w.sum()
	})
}

// Fingerprint implements Fingerprinter: the canonical identity of the
// interference-range model is its network (profile, positions, links).
// The leading tag keeps a Physical and a Protocol over the same network
// — which answer differently — from colliding.
func (p *Protocol) Fingerprint() string {
	return p.fp.get(func() string {
		w := newFPWriter()
		w.str("conflict.Protocol/v1")
		w.network(p.net)
		return w.sum()
	})
}

// Fingerprint implements Fingerprinter: the declared rate lists and the
// conflict pairs, serialized in sorted order so the fingerprint does not
// depend on declaration order. The table must be fully built (all
// SetRates/AddConflict calls done) before the first Fingerprint call.
func (t *Table) Fingerprint() string {
	return t.fp.get(func() string {
		w := newFPWriter()
		w.str("conflict.Table/v1")
		links := t.Links()
		w.int(len(links))
		for _, l := range links {
			w.int(int(l))
			rs := t.rates[l]
			w.int(len(rs))
			for _, r := range rs {
				w.f64(float64(r))
			}
		}
		pairs := make([]pairKey, 0, len(t.conflicts))
		for pk, on := range t.conflicts {
			if on {
				pairs = append(pairs, pk)
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
		w.int(len(pairs))
		for _, pk := range pairs {
			w.int(int(pk.a.link))
			w.f64(float64(pk.a.rate))
			w.int(int(pk.b.link))
			w.f64(float64(pk.b.rate))
		}
		return w.sum()
	})
}

func pairLess(x, y pairKey) bool {
	if x.a.link != y.a.link {
		return x.a.link < y.a.link
	}
	if x.a.rate != y.a.rate {
		return x.a.rate < y.a.rate
	}
	if x.b.link != y.b.link {
		return x.b.link < y.b.link
	}
	return x.b.rate < y.b.rate
}

// FallbackFingerprint returns the fingerprint of m when it implements
// Fingerprinter and "" otherwise; callers use the empty result to
// bypass caching rather than risk keying distinct models together.
func FallbackFingerprint(m Model) string {
	if f, ok := m.(Fingerprinter); ok {
		return f.Fingerprint()
	}
	return ""
}
