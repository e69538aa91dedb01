// Package radio models the multirate physical layer of the paper: a set
// of discrete channel rates, each with a receiver sensitivity and a SINR
// requirement (paper Eq. 1), over a log-distance path-loss channel.
//
// Powers are expressed in normalized linear units with transmit power 1.0
// unless configured otherwise; only power *ratios* matter to the model,
// so the normalization is lossless. Sensitivities are calibrated so each
// rate's maximum transmission distance matches the paper exactly
// (59/79/119/158 m for 54/36/18/6 Mbps with path-loss exponent 4); the
// noise floor is set to the largest value for which the noise-only SINR
// at every rate's boundary distance still meets that rate's requirement.
package radio

import (
	"fmt"
	"math"
	"sort"
)

// Rate is a channel rate in Mbps. The zero value means "no rate": the
// link cannot transmit at all under the current conditions.
type Rate float64

// String implements fmt.Stringer.
func (r Rate) String() string {
	return fmt.Sprintf("%gMbps", float64(r))
}

// RateClass describes one discrete rate supported by the PHY.
type RateClass struct {
	// Rate is the channel rate in Mbps.
	Rate Rate
	// Range is the maximum transmission distance in meters at which a
	// receiver can decode this rate with no interference.
	Range float64
	// SINRdB is the signal-to-interference-plus-noise requirement in dB.
	SINRdB float64
}

// Profile is a calibrated multirate PHY model. Construct one with
// NewProfile or NewProfile80211a; the zero value is not usable.
type Profile struct {
	classes  []RateClass // sorted by descending rate
	exponent float64
	txPower  float64
	noise    float64
	csRange  float64
	sens     []float64 // receiver sensitivity per class, same order
	sinrLin  []float64 // linear SINR threshold per class, same order
}

// Option configures a Profile.
type Option func(*options)

type options struct {
	csRangeFactor float64
	noiseMarginDB float64
}

// WithCSRangeFactor sets the carrier-sense range as a multiple of the
// longest rate range (default 1.5, i.e. 237 m for the paper profile).
func WithCSRangeFactor(f float64) Option {
	return func(o *options) { o.csRangeFactor = f }
}

// WithNoiseMarginDB lowers the calibrated noise floor by the given margin
// in dB, giving every rate extra SINR headroom at its boundary distance
// (default 0 dB).
func WithNoiseMarginDB(db float64) Option {
	return func(o *options) { o.noiseMarginDB = db }
}

// NewProfile builds a calibrated profile from rate classes and a
// path-loss exponent. Classes may be given in any order; they are sorted
// by descending rate. It returns an error if the classes are not
// physically consistent (a higher rate must have a shorter range).
func NewProfile(classes []RateClass, exponent float64, opts ...Option) (*Profile, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("radio: profile needs at least one rate class")
	}
	if exponent <= 0 {
		return nil, fmt.Errorf("radio: path-loss exponent must be positive, got %g", exponent)
	}
	o := options{csRangeFactor: 1.5}
	for _, opt := range opts {
		opt(&o)
	}

	cs := make([]RateClass, len(classes))
	copy(cs, classes)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Rate > cs[j].Rate })
	for i, c := range cs {
		if c.Rate <= 0 || c.Range <= 0 {
			return nil, fmt.Errorf("radio: class %d has non-positive rate or range", i)
		}
		if i > 0 && cs[i-1].Range >= c.Range {
			return nil, fmt.Errorf("radio: rate %v (range %gm) must out-range higher rate %v (range %gm)",
				c.Rate, c.Range, cs[i-1].Rate, cs[i-1].Range)
		}
	}

	p := &Profile{
		classes:  cs,
		exponent: exponent,
		txPower:  1.0,
		csRange:  o.csRangeFactor * cs[len(cs)-1].Range,
		sens:     make([]float64, len(cs)),
		sinrLin:  make([]float64, len(cs)),
	}
	// Calibrate sensitivities so each rate decodes exactly out to its
	// published range, and the noise floor so the noise-only SINR at the
	// boundary still meets the per-rate requirement (paper Eq. 1 holds
	// with equality for the tightest rate).
	noise := math.Inf(1)
	for i, c := range cs {
		p.sens[i] = p.txPower * math.Pow(c.Range, -exponent)
		p.sinrLin[i] = math.Pow(10, c.SINRdB/10)
		if n := p.sens[i] / p.sinrLin[i]; n < noise {
			noise = n
		}
	}
	p.noise = noise * math.Pow(10, -o.noiseMarginDB/10)
	return p, nil
}

// NewProfile80211a returns the four-rate 802.11a profile used throughout
// the paper's evaluation (Sec. 5.2): rates 54/36/18/6 Mbps with maximum
// transmission distances 59/79/119/158 m, SINR requirements
// 24.56/18.80/10.79/6.02 dB, and path-loss exponent 4.
func NewProfile80211a(opts ...Option) *Profile {
	p, err := NewProfile([]RateClass{
		{Rate: 54, Range: 59, SINRdB: 24.56},
		{Rate: 36, Range: 79, SINRdB: 18.80},
		{Rate: 18, Range: 119, SINRdB: 10.79},
		{Rate: 6, Range: 158, SINRdB: 6.02},
	}, 4, opts...)
	if err != nil {
		// The constants above are valid by construction; reaching here
		// means the package itself is broken.
		panic(fmt.Sprintf("radio: building 802.11a profile: %v", err))
	}
	return p
}

// NewSingleRateProfile returns a profile restricted to one rate class —
// the "fixed rate" regime used as an ablation baseline.
func NewSingleRateProfile(class RateClass, exponent float64, opts ...Option) (*Profile, error) {
	return NewProfile([]RateClass{class}, exponent, opts...)
}

// Rates returns the supported rates in descending order. The returned
// slice is a copy.
func (p *Profile) Rates() []Rate {
	out := make([]Rate, len(p.classes))
	for i, c := range p.classes {
		out[i] = c.Rate
	}
	return out
}

// NumClasses returns the number of rate classes.
func (p *Profile) NumClasses() int { return len(p.classes) }

// Class returns the i-th rate class in descending rate order.
func (p *Profile) Class(i int) RateClass { return p.classes[i] }

// Exponent returns the path-loss exponent.
func (p *Profile) Exponent() float64 { return p.exponent }

// TxPower returns the transmit power in linear units: 1, the reference
// the sensitivities and the noise floor are calibrated against.
func (p *Profile) TxPower() float64 { return p.txPower }

// Noise returns the calibrated noise floor in linear units.
func (p *Profile) Noise() float64 { return p.noise }

// CSRange returns the carrier-sense range in meters: a node senses the
// channel busy whenever some transmitter is within this distance.
func (p *Profile) CSRange() float64 { return p.csRange }

// RxPower returns the received power at distance d meters from a
// transmitter using this profile's transmit power. Distances below one
// meter are clamped to one meter to keep the near field finite.
func (p *Profile) RxPower(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return p.txPower * math.Pow(d, -p.exponent)
}

// Sensitivity returns the receiver sensitivity of rate r in linear units
// and true, or 0 and false if r is not a rate of this profile.
func (p *Profile) Sensitivity(r Rate) (float64, bool) {
	for i, c := range p.classes {
		if c.Rate == r {
			return p.sens[i], true
		}
	}
	return 0, false
}

// SINRThreshold returns the linear SINR requirement of rate r and true,
// or 0 and false if r is not a rate of this profile.
func (p *Profile) SINRThreshold(r Rate) (float64, bool) {
	for i, c := range p.classes {
		if c.Rate == r {
			return p.sinrLin[i], true
		}
	}
	return 0, false
}

// MaxRateAtDistance returns the highest rate decodable at distance d with
// no interference (both conditions of paper Eq. 1 with zero interference
// power), or 0 and false if no rate reaches that far.
func (p *Profile) MaxRateAtDistance(d float64) (Rate, bool) {
	return p.MaxRate(p.RxPower(d), 0)
}

// MaxRate returns the highest rate whose receiver sensitivity and SINR
// requirement are both met for the given received signal power and total
// interference power (paper Eq. 1), or 0 and false if none is.
func (p *Profile) MaxRate(prSignal, prInterference float64) (Rate, bool) {
	sinr := prSignal / (prInterference + p.noise)
	for i, c := range p.classes {
		if prSignal >= p.sens[i] && sinr >= p.sinrLin[i] {
			return c.Rate, true
		}
	}
	return 0, false
}

// Senses reports whether a node at distance d from a transmitter senses
// the channel busy (carrier sensing, Sec. 4 of the paper).
func (p *Profile) Senses(d float64) bool {
	return d <= p.csRange
}
