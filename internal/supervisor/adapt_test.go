package supervisor_test

import (
	"bytes"
	"errors"
	"fmt"
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

// convictWatch is a trace sink that clears *sick once the ladder
// convicts a node: the rank re-homed onto a spare leaves the faulty
// hardware behind.
type convictWatch struct{ sick *bool }

func (w convictWatch) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"to":"convict"`)) {
		*w.sick = false
	}
	return len(p), nil
}

// A node that corrupts rank 1's fields at the same step on every
// attempt climbs the ladder without a wasted attempt: the first trip
// rolls back one commit deeper, the second convicts the node, and the
// rank re-homed onto a spare finishes bit-identical to the reference —
// three attempts, escalations [rollback convict].
func TestLadderRollsBackThenConvicts(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	sick := true
	cfg.NewSolver = func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil || comm.Rank() != 1 {
			return s, err
		}
		return &corruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, active: &sick}, nil
	}
	cfg.Adapt = &policy.Config{PriorMTBFS: tinyMTBFS, Trace: engine.NewTracer(convictWatch{&sick})}
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	var actions []string
	for _, e := range got.Escalations {
		if e.Rank != 1 || e.Step != 5 {
			t.Errorf("escalation %+v, want rank 1 at step 5", e)
		}
		actions = append(actions, e.Action)
	}
	if fmt.Sprint(actions) != "[rollback convict]" {
		t.Fatalf("escalations %v, want [rollback convict]", actions)
	}
	if got.Attempts != 3 || len(got.Trips) != 2 {
		t.Fatalf("attempts=%d trips=%d, want three attempts and two trips", got.Attempts, len(got.Trips))
	}
	if len(got.Replacements) != 1 {
		t.Errorf("replacements %+v, want the convicted node's", got.Replacements)
	}
	assertBitIdentical(t, ref, got)
}

// A persistently sick rank climbs the whole ladder: a deeper rollback,
// then conviction (the node is replaced even though the hardware never
// crashed), and finally a structured give-up.
func TestLadderEscalatesToConviction(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	sick := true
	cfg.NewSolver = func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil || comm.Rank() != 1 {
			return s, err
		}
		return &corruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, active: &sick}, nil
	}
	// The ladder's budget: one deeper rollback (attempt 0's trip), then
	// conviction (attempts 1 and 2).
	cfg.Adapt = &policy.Config{PriorMTBFS: tinyMTBFS}
	cfg.MaxRestarts = 2
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
	// commit on the default in-memory store, so attempt 1 resumes from
	// the older step-3 checkpoint; it rewrites step 4 before tripping
	// again, and attempt 2 resumes from there.
	resumedFrom := map[int]int{}
	for _, m := range rollbackMarks(t, &trace) {
		resumedFrom[m.Attempt] = m.Step
	}
	if resumedFrom[1] != 3 || resumedFrom[2] != 4 {
		t.Errorf("attempts resumed from steps %v, want 3 after the deeper rollback, then 4", resumedFrom)
	}
	// The ladder's decisions are visible in the failure log: the
	// convicted attempts carry a replacement node where the rolled-back
	// one carries -1.
	var convicted int
	for _, f := range re.Failures {
		if f.Cause == supervisor.CauseWatchdog && f.NewNode >= 0 {
			convicted++
		}
	}
	if len(re.Failures) != 3 || re.Failures[0].NewNode != -1 || convicted != 2 {
		t.Fatalf("failures = %+v, want one rollback then two convicted (re-homed) watchdog trips", re.Failures)
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
