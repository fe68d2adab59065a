package policy

import (
	"bytes"
	"math"
	"testing"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
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
	c := NewCadence(Config{PriorMTBFS: 1}, 0, 7, 0)
	for step := 1; step <= 50; step++ {
		if got, want := c.ShouldCheckpoint(step), step%7 == 0; got != want {
			t.Fatalf("step %d: ShouldCheckpoint = %v, want static %v", step, got, want)
		}
	}
}

func TestCadenceRetunesByYoung(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{PriorMTBFS: 1, Alpha: 1, Trace: engine.NewTracer(&buf)}
	c := NewCadence(cfg, 0, 10, 0)
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
	c := NewCadence(cfg, 0, 10, 0)
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
	c2 := NewCadence(cfg, 0, 10, 0)
	c2.Observe(10, 2, 1, 36)
	if got := c2.Interval(); got != 10 {
		t.Fatalf("Interval = %d, hysteresis must hold 10", got)
	}
}

// A controller built from a previous attempt's (interval, anchor)
// adopts that grid, so a retune survives rollback.
func TestCadenceAdopt(t *testing.T) {
	c := NewCadence(Config{PriorMTBFS: 1}, 0, 8, 24)
	if c.Interval() != 8 || c.Anchor() != 24 {
		t.Fatalf("built at interval %d anchor %d, want 8, 24", c.Interval(), c.Anchor())
	}
	if c.ShouldCheckpoint(24) || !c.ShouldCheckpoint(32) {
		t.Error("adopted grid must fire at anchor + k*interval only")
	}
}

func TestLadderEscalates(t *testing.T) {
	var buf bytes.Buffer
	l := NewLadder(Config{Trace: engine.NewTracer(&buf)})
	wantActions := []Action{ActionRollback, ActionConvict, ActionConvict}
	for i, want := range wantActions {
		if got := l.Decide(i, 3, 100+i); got != want {
			t.Fatalf("trip %d: decision %v, want %v", i, got, want)
		}
	}
	evs, err := engine.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(wantActions) {
		t.Fatalf("%d escalate events, want %d", len(evs), len(wantActions))
	}
	for i, e := range evs {
		if e.Ev != engine.EvEscalate || e.To != wantActions[i].String() || e.Rank != 3 {
			t.Errorf("event %d = %+v", i, e)
		}
	}
}

// runSelector writes submits checkpoints on the given fabric through a
// SimWriter whose mode a SimSelector (built with the campaign's probed
// flag) controls, and returns rank 0's final write mode and the
// striped/local cost ratio of the last record.
func runSelector(t *testing.T, model *simnet.Model, probed bool, submits int) (string, float64) {
	t.Helper()
	var wmode string
	var penalty float64
	_, _, err := simnet.Run(4, model, func(n *simnet.Node) {
		comm := mpi.World(n)
		w := &ckpt.SimWriter{Kind: "t", Comm: comm, DiskMBs: 20}
		sel := NewSimSelector(Config{PriorMTBFS: 1}, probed)
		// Incompressible payload (LCG fill), so the framed record keeps
		// its size and disk time — not per-message latency — dominates
		// the write, as with real solver states.
		state := make([]byte, 100_000)
		x := uint32(n.Rank + 1)
		for i := range state {
			x = x*1664525 + 1013904223
			state[i] = byte(x >> 24)
		}
		for i := 1; i <= submits; i++ {
			if err := w.Submit(i*5, state, false); err != nil {
				panic(err)
			}
			sel.Observe(w, i*5)
		}
		costs := comm.Allreduce([]float64{w.Price(ckpt.WriteLocal), w.Price(ckpt.WriteStriped)}, mpi.Max)
		if comm.Rank() == 0 {
			wmode, penalty = w.Mode.String(), costs[1]/costs[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return wmode, penalty
}

func TestSimSelectorRejectsStripingOnEthernet(t *testing.T) {
	mach, err := machine.ByName("RoadRunner-eth")
	if err != nil {
		t.Fatal(err)
	}
	mode, penalty := runSelector(t, mach.Net, false, 3)
	if mode != "local" {
		t.Fatalf("write mode %q on Ethernet, want local (penalty %.2f)", mode, penalty)
	}
	if penalty <= 2 {
		t.Errorf("measured striping penalty %.2f on Ethernet, expected > 2x", penalty)
	}
}

func TestSimSelectorPromotesOnFastFabric(t *testing.T) {
	// A kernel-bypass-class fabric: microsecond latency, memory-bus
	// bandwidth — striping costs barely more than the local write.
	fast := &simnet.Model{
		Name:  "fast-fabric",
		Inter: simnet.LinkModel{LatencyUS: 2, BandwidthMBs: 10_000},
	}
	mode, penalty := runSelector(t, fast, false, 3)
	if mode != "striped" {
		t.Fatalf("write mode %q on fast fabric (penalty %.2f), want striped", mode, penalty)
	}
	if penalty <= 0 || penalty > 2 {
		t.Errorf("penalty %.2f out of promotion range", penalty)
	}
	// Two checkpoints are not enough evidence to probe.
	if mode, _ := runSelector(t, fast, false, 2); mode != "local" {
		t.Errorf("write mode %q before the probe, want local", mode)
	}
}

// The probe runs once per campaign: an attempt whose campaign already
// probed keeps the writer's mode however cheap striping would be.
func TestSimSelectorProbesOncePerCampaign(t *testing.T) {
	fast := &simnet.Model{Name: "fast", Inter: simnet.LinkModel{LatencyUS: 2, BandwidthMBs: 10_000}}
	if mode, _ := runSelector(t, fast, true, 4); mode != "local" {
		t.Fatalf("an already-probed campaign switched to %q", mode)
	}
}
