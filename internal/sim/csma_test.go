package sim

import (
	"testing"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/scenario"
	"abw/internal/topology"
)

func scenarioIHearing(s *scenario.ScenarioI) Hearing {
	return ModelHearing(s.Model, func(topology.LinkID) radio.Rate { return s.Rate })
}

// TestCSMAScenarioIIdleMeasurement reproduces the paper's E10 story: a
// listener at L3 hears both background links L1 and L2, which do not
// hear each other and therefore transmit independently. The measured
// idle ratio lands well below the true available share (1 - lambda_eff):
// idle-time admission is conservative.
func TestCSMAScenarioIIdleMeasurement(t *testing.T) {
	s := scenario.NewScenarioI(54)
	const offered = 16.2 // lambda=0.3 of a 54 Mbps channel
	links := []CSMALink{
		{Link: s.L1, Rate: 54, OfferedMbps: offered},
		{Link: s.L2, Rate: 54, OfferedMbps: offered},
		{Link: s.L3, Rate: 54, ListenOnly: true},
	}
	rep, err := RunCSMA(s.Model, scenarioIHearing(s), links, 2000, CSMAConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Background links are uncontended (they do not hear each other or
	// the silent listener): they must carry their offered load.
	for _, l := range []topology.LinkID{s.L1, s.L2} {
		if got := rep.Throughput[l]; got < 0.95*offered {
			t.Errorf("background link %d carried %.2f Mbps, want ~%.2f", l, got, offered)
		}
	}
	// Effective busy share per background link (slot-quantized airtime).
	busy1 := 1 - rep.IdleRatio[s.L1]
	idle3 := rep.IdleRatio[s.L3]
	// L3 hears both: idle3 is at most the non-overlap product and at
	// least the disjoint-share floor.
	floor := 1 - 2*busy1
	ceil := 1 - busy1 // what a globally optimal overlap would leave
	if idle3 < floor-0.05 {
		t.Errorf("idle(L3) = %.3f below the disjoint floor %.3f", idle3, floor)
	}
	if idle3 > ceil-0.02 {
		t.Errorf("idle(L3) = %.3f should sit clearly below the optimal-overlap ceiling %.3f", idle3, ceil)
	}
}

// TestCSMASaturatedNewcomerGrabsResidual lets L3 transmit with
// saturation: CSMA shares the channel and L3 obtains real residual
// bandwidth while the background keeps (most of) its load.
func TestCSMASaturatedNewcomerGrabsResidual(t *testing.T) {
	s := scenario.NewScenarioI(54)
	const offered = 10.0
	links := []CSMALink{
		{Link: s.L1, Rate: 54, OfferedMbps: offered},
		{Link: s.L2, Rate: 54, OfferedMbps: offered},
		{Link: s.L3, Rate: 54}, // saturated
	}
	rep, err := RunCSMA(s.Model, scenarioIHearing(s), links, 2000, CSMAConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Throughput[s.L3]; got < 5 {
		t.Errorf("saturated L3 got only %.2f Mbps of residual bandwidth", got)
	}
	for _, l := range []topology.LinkID{s.L1, s.L2} {
		if got := rep.Throughput[l]; got < 0.7*offered {
			t.Errorf("background link %d starved: %.2f of %.2f Mbps", l, got, offered)
		}
	}
}

// TestCSMAHiddenTerminalCollides builds two mutually conflicting links
// that cannot hear each other: both saturated, they collide massively.
func TestCSMAHiddenTerminalCollides(t *testing.T) {
	tb := conflict.NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 54)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	deaf := func(a, b topology.LinkID) bool { return false }
	links := []CSMALink{
		{Link: 0, Rate: 54},
		{Link: 1, Rate: 54},
	}
	rep, err := RunCSMA(tb, deaf, links, 500, CSMAConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collisions[0] == 0 && rep.Collisions[1] == 0 {
		t.Error("hidden terminals should collide")
	}
	// With every overlap fatal and both saturated, goodput collapses
	// far below the channel rate.
	if rep.Throughput[0]+rep.Throughput[1] > 27 {
		t.Errorf("hidden-terminal goodput %.2f Mbps suspiciously high", rep.Throughput[0]+rep.Throughput[1])
	}
}

// TestCSMACoordinatedNeighborsAvoidCollisions is the control for the
// hidden-terminal case: same conflict, but the links hear each other.
func TestCSMACoordinatedNeighborsAvoidCollisions(t *testing.T) {
	tb := conflict.NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 54)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	hears := func(a, b topology.LinkID) bool { return true }
	links := []CSMALink{
		{Link: 0, Rate: 54},
		{Link: 1, Rate: 54},
	}
	rep, err := RunCSMA(tb, hears, links, 500, CSMAConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Throughput[0] + rep.Throughput[1]
	if total < 30 {
		t.Errorf("coordinated links should share the channel efficiently, got %.2f Mbps", total)
	}
	collisionRate := float64(rep.Collisions[0]+rep.Collisions[1]) /
		float64(maxInt(1, rep.Attempts[0]+rep.Attempts[1]))
	if collisionRate > 0.25 {
		t.Errorf("collision rate %.2f too high for carrier-sensing neighbors", collisionRate)
	}
}

func TestCSMAValidation(t *testing.T) {
	s := scenario.NewScenarioI(54)
	h := scenarioIHearing(s)
	if _, err := RunCSMA(s.Model, h, nil, 100, CSMAConfig{}); err == nil {
		t.Error("no links: expected error")
	}
	if _, err := RunCSMA(s.Model, nil, []CSMALink{{Link: s.L1, Rate: 54}}, 100, CSMAConfig{}); err == nil {
		t.Error("nil hearing: expected error")
	}
	if _, err := RunCSMA(s.Model, h, []CSMALink{{Link: s.L1, Rate: 54}}, 0, CSMAConfig{}); err == nil {
		t.Error("zero duration: expected error")
	}
	if _, err := RunCSMA(s.Model, h, []CSMALink{{Link: s.L1, Rate: 0}}, 100, CSMAConfig{}); err == nil {
		t.Error("zero rate: expected error")
	}
	dup := []CSMALink{{Link: s.L1, Rate: 54}, {Link: s.L1, Rate: 36}}
	if _, err := RunCSMA(s.Model, h, dup, 100, CSMAConfig{}); err == nil {
		t.Error("duplicate link: expected error")
	}
}

func TestCSMADeterministicAcrossSeeds(t *testing.T) {
	s := scenario.NewScenarioI(54)
	links := []CSMALink{
		{Link: s.L1, Rate: 54, OfferedMbps: 10},
		{Link: s.L3, Rate: 54},
	}
	a, err := RunCSMA(s.Model, scenarioIHearing(s), links, 200, CSMAConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCSMA(s.Model, scenarioIHearing(s), links, 200, CSMAConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput[s.L3] != b.Throughput[s.L3] || a.IdleRatio[s.L1] != b.IdleRatio[s.L1] {
		t.Error("identical seeds must reproduce identical results")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestCSMARTSCTSFixesHiddenTerminal repeats the hidden-terminal fixture
// with the virtual-carrier-sensing handshake: collisions drop sharply
// and goodput recovers.
func TestCSMARTSCTSFixesHiddenTerminal(t *testing.T) {
	tb := conflict.NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 54)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	deaf := func(a, b topology.LinkID) bool { return false }
	links := []CSMALink{
		{Link: 0, Rate: 54},
		{Link: 1, Rate: 54},
	}
	plain, err := RunCSMA(tb, deaf, links, 500, CSMAConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	protected, err := RunCSMA(tb, deaf, links, 500, CSMAConfig{Seed: 3, RTSCTS: true})
	if err != nil {
		t.Fatal(err)
	}
	plainGoodput := plain.Throughput[0] + plain.Throughput[1]
	protGoodput := protected.Throughput[0] + protected.Throughput[1]
	if protGoodput <= plainGoodput {
		t.Errorf("RTS/CTS goodput %.2f should beat plain %.2f under hidden terminals", protGoodput, plainGoodput)
	}
	plainColl := plain.Collisions[0] + plain.Collisions[1]
	protColl := protected.Collisions[0] + protected.Collisions[1]
	if protColl >= plainColl {
		t.Errorf("RTS/CTS collisions %d should be far below plain %d", protColl, plainColl)
	}
	if protGoodput < 25 {
		t.Errorf("RTS/CTS goodput %.2f Mbps too low for a 54 Mbps channel", protGoodput)
	}
}

// TestCSMARTSCTSOverheadCosts verifies the handshake is not free: with
// NO hidden terminals (everyone hears everyone) RTS/CTS only adds
// per-packet overhead and goodput drops slightly.
func TestCSMARTSCTSOverheadCosts(t *testing.T) {
	tb := conflict.NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 54)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	hears := func(a, b topology.LinkID) bool { return true }
	links := []CSMALink{
		{Link: 0, Rate: 54},
		{Link: 1, Rate: 54},
	}
	plain, err := RunCSMA(tb, hears, links, 500, CSMAConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	protected, err := RunCSMA(tb, hears, links, 500, CSMAConfig{Seed: 5, RTSCTS: true})
	if err != nil {
		t.Fatal(err)
	}
	plainGoodput := plain.Throughput[0] + plain.Throughput[1]
	protGoodput := protected.Throughput[0] + protected.Throughput[1]
	if protGoodput >= plainGoodput {
		t.Errorf("with no hidden terminals RTS/CTS goodput %.2f should be below plain %.2f (overhead)", protGoodput, plainGoodput)
	}
}

// TestCSMAMixedRatesShareAirtime checks the classic rate-anomaly
// effect: a slow link and a fast link that hear each other get roughly
// equal PACKET shares, so the fast link's goodput is dragged far below
// half its rate.
func TestCSMAMixedRatesShareAirtime(t *testing.T) {
	tb := conflict.NewTable()
	tb.SetRates(0, 54)
	tb.SetRates(1, 6)
	if err := tb.AddConflictAllRates(0, 1); err != nil {
		t.Fatal(err)
	}
	hears := func(a, b topology.LinkID) bool { return true }
	links := []CSMALink{
		{Link: 0, Rate: 54},
		{Link: 1, Rate: 6},
	}
	rep, err := RunCSMA(tb, hears, links, 2000, CSMAConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := rep.Throughput[0], rep.Throughput[1]
	if slow <= 0 || fast <= 0 {
		t.Fatalf("throughputs: fast %.2f slow %.2f", fast, slow)
	}
	// Packet parity: goodput ratio tracks the rate ratio only weakly;
	// the slow link eats most of the airtime. Fast goodput must be well
	// below half of 54.
	if fast > 20 {
		t.Errorf("fast link %.2f Mbps — rate anomaly should cap it well below 27", fast)
	}
	airFast := float64(rep.Attempts[0]) / float64(rep.Attempts[0]+rep.Attempts[1])
	if airFast < 0.35 || airFast > 0.65 {
		t.Errorf("attempt share %.2f should be near packet parity", airFast)
	}
}
