package supervisor_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/mpi"
	"nektar/internal/policy"
	"nektar/internal/supervisor"
)

// An adaptive campaign under real crashes: the estimator feeds on the
// failures, the cadence retunes by Young's formula (visible as a
// policy_switch trace event), and the trajectory still matches the
// unfaulted static reference bit for bit.
func TestAdaptiveCrashCampaignRetunes(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	cfg.Steps = 12
	ref := runReference(t, cfg)

	var trace bytes.Buffer
	adaptive := cfg
	adaptive.Faults = fault.NewPlan(3).Crash(1, 0.45*ref.VirtualWall)
	// Prior chosen so Young's interval differs clearly from the seeded
	// cadence of 2 steps: with delta = 1e-4 s and theta = 100 s,
	// tau_opt = sqrt(2*1e-4*100) ~= 0.14 s, far above the ~ms step
	// time, so the controller must retune upward.
	adaptive.Adapt = &policy.Config{PriorMTBFS: 100, Trace: engine.NewTracer(&trace)}
	tuneDetector(&adaptive, ref)
	got, err := supervisor.Run(adaptive)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	assertBitIdentical(t, ref, got)
	if len(got.Failures) == 0 || got.Failures[0].Cause != supervisor.CauseCrash {
		t.Fatalf("failures = %+v, want the injected crash handled", got.Failures)
	}
	// The estimator saw the crash: the estimate moved off the prior.
	if got.MTBFEstimateS <= 0 || got.MTBFEstimateS == 100 {
		t.Errorf("MTBFEstimateS = %v, want updated from the prior", got.MTBFEstimateS)
	}
	if got.FinalInterval <= cfg.CheckpointEvery {
		t.Errorf("FinalInterval = %d, want retuned above the seeded %d", got.FinalInterval, cfg.CheckpointEvery)
	}
	evs, err := engine.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	var switches int
	for _, e := range evs {
		if e.Ev == engine.EvPolicySwitch && e.Policy == "cadence" {
			switches++
			if e.MTBFS <= 0 || e.DeltaS <= 0 || e.Interval <= 0 {
				t.Errorf("cadence switch without evidence: %+v", e)
			}
		}
	}
	if switches == 0 {
		t.Error("no cadence policy_switch event traced")
	}
}

// tinyMTBFS is a prior so pessimistic that Young's interval clamps to
// one step at the first checkpoint; watchdog trips do not feed the
// estimator, so the ladder tests run at a known cadence.
const tinyMTBFS = 1e-6

// tunableCorruptingSolver trips the watchdog only while the ladder has
// not yet reduced dt — the instability a smaller time step cures.
type tunableCorruptingSolver struct {
	supervisor.Solver
	ns     *core.NSF
	atStep int
	sick   bool
}

func (c *tunableCorruptingSolver) Step() {
	c.Solver.Step()
	if c.sick && c.Solver.StepCount() == c.atStep {
		c.ns.U[0][0][0] = math.NaN()
	}
}

// The ladder's first rung: one watchdog trip answered by a dt-reduced
// retry that completes the run, recorded as an escalation and an
// escalate trace event.
func TestLadderRetryDtCuresInstability(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	var trace bytes.Buffer
	cfg.NewSolver = nil
	cfg.NewTunedSolver = func(comm *mpi.Comm, dtScale float64) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil {
			return nil, err
		}
		if comm.Rank() == 1 {
			// dtScale < 1 models the reduced time step taming the
			// blow-up; the solver itself is unchanged so the recovered
			// trajectory still matches the reference bit for bit.
			return &tunableCorruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, sick: dtScale >= 1}, nil
		}
		return s, nil
	}
	cfg.Adapt = &policy.Config{PriorMTBFS: tinyMTBFS, Trace: engine.NewTracer(&trace)}
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 || len(got.Trips) != 1 {
		t.Fatalf("attempts=%d trips=%d, want one trip and one dt-reduced retry", got.Attempts, len(got.Trips))
	}
	if len(got.Escalations) != 1 {
		t.Fatalf("escalations = %+v, want exactly one", got.Escalations)
	}
	esc := got.Escalations[0]
	if esc.Action != "retry-dt" || esc.DtScale != 0.5 || esc.Rank != 1 || esc.Step != 5 {
		t.Fatalf("escalation = %+v, want retry-dt at half dt for rank 1 step 5", esc)
	}
	if len(got.Replacements) != 0 {
		t.Errorf("first-rung escalation consumed hardware: %+v", got.Replacements)
	}
	assertBitIdentical(t, ref, got)
	evs, err := engine.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	var seen bool
	for _, e := range evs {
		if e.Ev == engine.EvEscalate && e.To == "retry-dt" && e.DtScale == 0.5 {
			seen = true
		}
	}
	if !seen {
		t.Error("no escalate trace event for the retry-dt rung")
	}
}

// A persistently sick rank climbs the whole ladder: dt retries, then a
// deeper rollback, then conviction (the node is replaced even though
// the hardware never crashed), and finally a structured give-up.
func TestLadderEscalatesToConviction(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	cfg.NewSolver = func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil {
			return nil, err
		}
		if comm.Rank() == 1 {
			return &tunableCorruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, sick: true}, nil
		}
		return s, nil
	}
	// The ladder's budgets: two dt retries (attempts 0-1), one deeper
	// rollback (attempt 2), then conviction (attempt 3).
	cfg.Adapt = &policy.Config{PriorMTBFS: tinyMTBFS}
	cfg.MaxRestarts = 3
	var trace bytes.Buffer
	cfg.Trace = engine.NewTracer(&trace)
	tuneDetector(&cfg, ref)
	_, err := supervisor.Run(cfg)
	var re *supervisor.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError after the ladder runs out", err)
	}
	// Checkpoints land at steps 2, 3 and 4 (the controller retunes to
	// every step at step 2). The rollback rung demotes the step-4
	// commit on the default in-memory store: attempts 1 and 2 resume
	// from step 4, attempt 3 from the older step-3 checkpoint.
	resumedFrom := map[int]int{}
	for _, m := range rollbackMarks(t, &trace) {
		resumedFrom[m.Attempt] = m.Step
	}
	if resumedFrom[1] != 4 || resumedFrom[2] != 4 || resumedFrom[3] != 3 {
		t.Errorf("attempts resumed from steps %v, want 4, 4, then 3 after the deeper rollback", resumedFrom)
	}
	// The ladder's decisions are visible in the failure log: the
	// convicted attempts carry a replacement node where plain watchdog
	// rollbacks carry -1.
	var convicted int
	for _, f := range re.Failures {
		if f.Cause == supervisor.CauseWatchdog && f.NewNode >= 0 {
			convicted++
		}
	}
	if convicted == 0 {
		t.Fatalf("failures = %+v, want at least one convicted (re-homed) watchdog trip", re.Failures)
	}
}

// An adaptive campaign prices each checkpoint from the record its store
// kept, not from a second framing of the state: a store reporting
// twice the framed size is charged twice the disk time, visible as the
// delta evidence of the first cadence retune.
func TestAdaptivePricesStoredRecord(t *testing.T) {
	const diskMBs = 20
	cfg := baseConfig(2, nsfFactory(t))
	cfg.CheckpointCostS = 0
	store := newSizeStore(func(stored int) int { return 2 * stored })
	cfg.Store, cfg.Kind = store, "nsf"
	cfg.SimDiskMBs = diskMBs
	var trace bytes.Buffer
	// Alpha 1 makes delta the first checkpoint's cost; a huge prior
	// makes Young retune at that checkpoint.
	cfg.Adapt = &policy.Config{PriorMTBFS: 1e9, Alpha: 1, Trace: engine.NewTracer(&trace)}
	if _, err := supervisor.Run(cfg); err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	evs, err := engine.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Ev != engine.EvPolicySwitch || e.Policy != "cadence" {
			continue
		}
		want := 2 * float64(store.largest[e.Step]) / (diskMBs * 1e6)
		if math.Abs(e.DeltaS-want) > 1e-9*want {
			t.Fatalf("checkpoint at step %d priced %.9g s, want %.9g s: twice the stored record over the disk", e.Step, e.DeltaS, want)
		}
		return
	}
	t.Fatal("no cadence policy_switch event traced")
}

func TestAdaptiveNeedsPrior(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	cfg.Adapt = &policy.Config{} // no PriorMTBFS
	if _, err := supervisor.Run(cfg); err == nil {
		t.Fatal("adaptive run without an MTBF prior must be rejected")
	}
}
