package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewProfile80211aRanges(t *testing.T) {
	p := NewProfile80211a()
	tests := []struct {
		name string
		d    float64
		want Rate
		ok   bool
	}{
		{"point blank", 1, 54, true},
		{"54 boundary", 59, 54, true},
		{"just past 54", 59.5, 36, true},
		{"36 boundary", 79, 36, true},
		{"just past 36", 79.5, 18, true},
		{"18 boundary", 119, 18, true},
		{"just past 18", 119.5, 6, true},
		{"6 boundary", 158, 6, true},
		{"out of range", 158.5, 0, false},
		{"far out of range", 500, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := p.MaxRateAtDistance(tt.d)
			if got != tt.want || ok != tt.ok {
				t.Errorf("MaxRateAtDistance(%g) = (%v, %v), want (%v, %v)", tt.d, got, ok, tt.want, tt.ok)
			}
		})
	}
}

func TestNewProfile80211aRatesDescending(t *testing.T) {
	p := NewProfile80211a()
	rates := p.Rates()
	want := []Rate{54, 36, 18, 6}
	if len(rates) != len(want) {
		t.Fatalf("got %d rates, want %d", len(rates), len(want))
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Errorf("rate %d = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestNoiseCalibration(t *testing.T) {
	// At every rate's boundary distance with zero interference, the
	// noise-only SINR must still meet that rate's requirement: the noise
	// floor is calibrated to the tightest rate.
	p := NewProfile80211a()
	for _, c := range p.Classes() {
		pr := p.RxPower(c.Range)
		thr, ok := p.SINRThreshold(c.Rate)
		if !ok {
			t.Fatalf("missing SINR threshold for %v", c.Rate)
		}
		if sinr := pr / p.Noise(); sinr < thr-1e-9 {
			t.Errorf("rate %v at boundary: noise-only SINR %.3f below threshold %.3f", c.Rate, sinr, thr)
		}
	}
}

func TestSensitivityAtExactRange(t *testing.T) {
	p := NewProfile80211a()
	for _, c := range p.Classes() {
		sens, ok := p.Sensitivity(c.Rate)
		if !ok {
			t.Fatalf("missing sensitivity for %v", c.Rate)
		}
		if pr := p.RxPower(c.Range); math.Abs(pr-sens)/sens > 1e-12 {
			t.Errorf("rate %v: RxPower(range)=%g != sensitivity %g", c.Rate, pr, sens)
		}
	}
}

func TestMaxRateWithInterference(t *testing.T) {
	p := NewProfile80211a()
	// Close receiver: signal power is high. With no interference it gets
	// 54 Mbps; with increasing interference the rate degrades stepwise.
	sig := p.RxPower(30)
	r0, ok := p.MaxRate(sig, 0)
	if !ok || r0 != 54 {
		t.Fatalf("MaxRate(no interference) = %v, want 54", r0)
	}
	// Find an interference level that kills 54 but not 36.
	thr54, _ := p.SINRThreshold(54)
	thr36, _ := p.SINRThreshold(36)
	inf := sig/thr54 - p.Noise() + sig*1e-9 // just above the 54 budget
	r1, ok := p.MaxRate(sig, inf)
	if !ok || r1 != 36 {
		t.Fatalf("MaxRate(mid interference) = %v (ok=%v), want 36", r1, ok)
	}
	// Massive interference kills everything.
	inf = sig / (0.5 * math.Min(thr36, 1))
	if r2, ok := p.MaxRate(sig, inf*1e6); ok {
		t.Fatalf("MaxRate(huge interference) = %v, want none", r2)
	}
}

func TestMaxRateMonotoneInInterference(t *testing.T) {
	p := NewProfile80211a()
	f := func(dRaw, iRaw float64) bool {
		d := 1 + math.Abs(math.Mod(dRaw, 200))
		i1 := math.Abs(math.Mod(iRaw, 1))
		i2 := i1 * 2
		sig := p.RxPower(d)
		r1, _ := p.MaxRate(sig, i1)
		r2, _ := p.MaxRate(sig, i2)
		return r2 <= r1 // more interference never raises the rate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxRateMonotoneInDistance(t *testing.T) {
	p := NewProfile80211a()
	f := func(dRaw float64) bool {
		d := 1 + math.Abs(math.Mod(dRaw, 300))
		r1, _ := p.MaxRateAtDistance(d)
		r2, _ := p.MaxRateAtDistance(d + 10)
		return r2 <= r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRangeDefault(t *testing.T) {
	p := NewProfile80211a()
	if got, want := p.CSRange(), 1.5*158.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("CSRange = %g, want %g", got, want)
	}
	if !p.Senses(200) {
		t.Error("Senses(200m) should be true with default CS range 237m")
	}
	if p.Senses(238) {
		t.Error("Senses(238m) should be false")
	}
}

func TestOptions(t *testing.T) {
	p := NewProfile80211a(WithCSRangeFactor(2), WithNoiseMarginDB(3))
	if got, want := p.CSRange(), 2*158.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("CSRange = %g, want %g", got, want)
	}
	// Noise margin lowers the floor by 3 dB relative to the default.
	def := NewProfile80211a()
	if ratio := def.Noise() / p.Noise(); math.Abs(ratio-math.Pow(10, 0.3)) > 1e-9 {
		t.Errorf("noise margin ratio = %g, want 10^0.3", ratio)
	}
}

func TestNewProfileValidation(t *testing.T) {
	tests := []struct {
		name    string
		classes []RateClass
		exp     float64
	}{
		{"empty", nil, 4},
		{"bad exponent", []RateClass{{Rate: 54, Range: 59, SINRdB: 24}}, 0},
		{"zero rate", []RateClass{{Rate: 0, Range: 59, SINRdB: 24}}, 4},
		{"zero range", []RateClass{{Rate: 54, Range: 0, SINRdB: 24}}, 4},
		{
			"inverted ranges",
			[]RateClass{{Rate: 54, Range: 100, SINRdB: 24}, {Rate: 36, Range: 50, SINRdB: 18}},
			4,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewProfile(tt.classes, tt.exp); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestRxPowerClampsNearField(t *testing.T) {
	p := NewProfile80211a()
	if p.RxPower(0) != p.RxPower(0.5) || p.RxPower(0) != p.RxPower(1) {
		t.Error("RxPower should clamp distances below 1m to 1m")
	}
	if math.IsInf(p.RxPower(0), 1) {
		t.Error("RxPower(0) must be finite")
	}
}

func TestRateString(t *testing.T) {
	if got := Rate(54).String(); got != "54Mbps" {
		t.Errorf("Rate.String = %q, want 54Mbps", got)
	}
}

func TestNewSingleRateProfile(t *testing.T) {
	p, err := NewSingleRateProfile(RateClass{Rate: 54, Range: 59, SINRdB: 24.56}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Rates(); len(got) != 1 || got[0] != 54 {
		t.Errorf("Rates = %v, want [54]", got)
	}
	if _, ok := p.MaxRateAtDistance(60); ok {
		t.Error("60m should be out of range for the single 54 class")
	}
	if _, err := NewSingleRateProfile(RateClass{Rate: 0, Range: 59, SINRdB: 24}, 4); err == nil {
		t.Error("invalid class: expected error")
	}
}
