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
	adaptive.Trace = engine.NewTracer(&trace)
	// Prior chosen so Young's interval differs clearly from the seeded
	// cadence of 2 steps: with delta = 1e-4 s and theta = 100 s,
	// tau_opt = sqrt(2*1e-4*100) ~= 0.14 s, far above the ~ms step
	// time, so the controller must retune upward.
	adaptive.Adapt = &policy.Config{PriorMTBFS: 100}
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
// estimator, so the trip test runs at a known cadence.
const tinyMTBFS = 1e-6

// A trip that recurs at the same step on every attempt is deterministic
// arithmetic, not a flaky node: the adaptive layer rolls back to the
// newest verified commit and retries exactly like a static campaign,
// retires no hardware, and gives up when the retry budget runs out.
// Each failure names the step the next attempt really resumed from.
func TestAdaptiveDeterministicTripRetiresNoHardware(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	active := true
	cfg.NewSolver = func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil || comm.Rank() != 1 {
			return s, err
		}
		return &corruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, active: &active}, nil
	}
	cfg.Adapt = &policy.Config{PriorMTBFS: tinyMTBFS}
	cfg.MaxRestarts = 2
	var trace bytes.Buffer
	cfg.Trace = engine.NewTracer(&trace)
	tuneDetector(&cfg, ref)
	_, err := supervisor.Run(cfg)
	var re *supervisor.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Reason != "retry budget exhausted" || re.Attempts != 3 || len(re.Failures) != 3 {
		t.Fatalf("RetryError = %+v, want the retry budget exhausted after 3 attempts, one failure each", re)
	}
	resumedFrom := map[int]int{}
	for _, m := range rollbackMarks(t, &trace) {
		resumedFrom[m.Attempt] = m.Step
	}
	for _, f := range re.Failures {
		if f.Cause != supervisor.CauseWatchdog || f.Rank != 1 || f.TripStep != 5 {
			t.Errorf("failure %+v, want rank 1's watchdog trip at step 5", f)
		}
		if f.NewNode != -1 {
			t.Errorf("failure %+v retired rank 1's node onto spare %d", f, f.NewNode)
		}
		if next, ok := resumedFrom[f.Attempt+1]; ok && next != f.RestartStep {
			t.Errorf("attempt %d failure says restart from step %d, attempt %d resumed from %d",
				f.Attempt, f.RestartStep, f.Attempt+1, next)
		}
	}
	if len(resumedFrom) != 2 {
		t.Errorf("rollback marks for attempts %v, want attempts 1 and 2", resumedFrom)
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
	cfg.Adapt = &policy.Config{PriorMTBFS: 1e9, Alpha: 1}
	cfg.Trace = engine.NewTracer(&trace)
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
