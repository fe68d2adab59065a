package policy

import (
	"bytes"
	"math"
	"testing"

	"nektar/internal/engine"
)

func TestConfigValidate(t *testing.T) {
	for _, prior := range []float64{0, -1, math.NaN()} {
		if err := (Config{PriorMTBFS: prior}).Validate(); err == nil {
			t.Errorf("prior %v must be rejected", prior)
		}
	}
	if err := (Config{PriorMTBFS: 100}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMTBFEstimator(t *testing.T) {
	e := NewMTBFEstimator(1000, 0.5)
	if got := e.MTBFS(); got != 1000 {
		t.Fatalf("prior MTBF = %v, want 1000", got)
	}
	// Failures every 100s pull the EW mean from the prior toward 100.
	e.ObserveFailure(100)
	e.ObserveFailure(200)
	e.ObserveFailure(300)
	if got := e.MTBFS(); got >= 1000 || got <= 100 {
		t.Errorf("MTBF = %v after 100s-interval failures, want in (100, 1000)", got)
	}
	prev := e.MTBFS()
	for tt := 400.0; tt <= 1200; tt += 100 {
		e.ObserveFailure(tt)
	}
	if got := e.MTBFS(); got >= prev || math.Abs(got-100) > 50 {
		t.Errorf("MTBF = %v after many 100s intervals, want converging toward 100", got)
	}
}

func TestMTBFEstimatorFloorsBursts(t *testing.T) {
	e := NewMTBFEstimator(10, 1) // alpha 1: newest observation wins
	e.ObserveFailure(50)
	e.ObserveFailure(50) // simultaneous: zero interval
	if got := e.MTBFS(); got < minMTBFS {
		t.Errorf("MTBF = %v below floor after burst", got)
	}
}

func TestYoungFormulas(t *testing.T) {
	const delta, theta = 2.0, 400.0
	opt := YoungInterval(delta, theta)
	if want := math.Sqrt(2 * delta * theta); math.Abs(opt-want) > 1e-12 {
		t.Fatalf("YoungInterval = %v, want %v", opt, want)
	}
	// The optimum minimizes the first-order overhead.
	at := YoungOverhead(delta, opt, theta)
	if YoungOverhead(delta, opt/2, theta) <= at || YoungOverhead(delta, opt*2, theta) <= at {
		t.Error("overhead not minimized at Young's interval")
	}
	if YoungInterval(0, theta) != 0 || YoungInterval(delta, 0) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
}

func TestCadenceMatchesStaticGrid(t *testing.T) {
	c := NewCadence(Config{PriorMTBFS: 1}, nil, 7, 0)
	for step := 1; step <= 50; step++ {
		if got, want := c.ShouldCheckpoint(step), step%7 == 0; got != want {
			t.Fatalf("step %d: ShouldCheckpoint = %v, want static %v", step, got, want)
		}
	}
}

func TestCadenceRetunesByYoung(t *testing.T) {
	var buf bytes.Buffer
	c := NewCadence(Config{PriorMTBFS: 1, Alpha: 1}, engine.NewTracer(&buf), 10, 0)
	// delta=2s, theta=400s, step=1s -> tau_opt = 40s -> 40 steps.
	c.Observe(10, 2, 1, 400)
	if got := c.Interval(); got != 40 {
		t.Fatalf("Interval = %d after observe, want Young's 40", got)
	}
	if c.Anchor() != 10 {
		t.Errorf("Anchor = %d, want the retune step 10", c.Anchor())
	}
	// Next fire is one new interval past the retune step.
	if c.ShouldCheckpoint(40) || !c.ShouldCheckpoint(50) {
		t.Error("firing grid not re-anchored at the retune step")
	}
	evs, err := engine.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Ev != engine.EvPolicySwitch || evs[0].Policy != "cadence" ||
		evs[0].From != "10" || evs[0].To != "40" || evs[0].MTBFS != 400 {
		t.Errorf("policy_switch event = %+v", evs)
	}
}

func TestCadenceClampsAndHysteresis(t *testing.T) {
	cfg := Config{PriorMTBFS: 1, Alpha: 1}
	c := NewCadence(cfg, nil, 10, 0)
	// Absurdly cheap checkpoints + huge MTBF -> clamp at maxInterval.
	c.Observe(10, 1e-6, 1, 1e12)
	if got := c.Interval(); got != maxInterval {
		t.Fatalf("Interval = %d, want the maxInterval clamp %d", got, maxInterval)
	}
	// Absurdly expensive failures -> clamp at minInterval.
	c.Observe(50, 10, 1, 1e-6)
	if got := c.Interval(); got != minInterval {
		t.Fatalf("Interval = %d, want the minInterval clamp %d", got, minInterval)
	}
	// A retune within the hysteresis band is suppressed: current 10,
	// band = ceil(0.25*10) = 3, so tau_opt = sqrt(2*2*36) = 12s -> 12
	// steps is a move of 2 and must be ignored.
	c2 := NewCadence(cfg, nil, 10, 0)
	c2.Observe(10, 2, 1, 36)
	if got := c2.Interval(); got != 10 {
		t.Fatalf("Interval = %d, hysteresis must hold 10", got)
	}
}

// A controller built from a previous attempt's (interval, anchor)
// adopts that grid, so a retune survives a restart.
func TestCadenceAdopt(t *testing.T) {
	c := NewCadence(Config{PriorMTBFS: 1}, nil, 8, 24)
	if c.Interval() != 8 || c.Anchor() != 24 {
		t.Fatalf("built at interval %d anchor %d, want 8, 24", c.Interval(), c.Anchor())
	}
	if c.ShouldCheckpoint(24) || !c.ShouldCheckpoint(32) {
		t.Error("adopted grid must fire at anchor + k*interval only")
	}
}
