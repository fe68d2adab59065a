package supervisor_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/policy"
	"nektar/internal/simnet"
	"nektar/internal/supervisor"
)

func testNet() *simnet.Model {
	return &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1, EagerLimit: 32 << 10},
	}
}

func channelMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := mesh.RectQuad(4, 3, 2, 0, 3, -1, 1, func(x, y, z float64) string {
		switch {
		case y <= -0.999 || y >= 0.999:
			return "wall"
		case x <= 1e-9:
			return "inflow"
		default:
			return "outflow"
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func nsfFactory(t *testing.T) func(comm *mpi.Comm) (supervisor.Solver, error) {
	t.Helper()
	cfg := core.NSFConfig{
		Nu: 0.1, Dt: 2e-3, Order: 2, Lz: 2 * math.Pi,
		VelDirichlet: map[string]core.VelBC{
			"wall":   core.ConstantVel(0, 0),
			"inflow": func(x, y float64) (float64, float64) { return 1 - y*y, 0 },
		},
		PresDirichlet: map[string]bool{"outflow": true},
	}
	return func(comm *mpi.Comm) (supervisor.Solver, error) {
		ns, err := core.NewNSF(channelMesh(t), cfg, comm, nil)
		if err != nil {
			return nil, err
		}
		ns.SetUniformInitial(1, 0)
		return ns, nil
	}
}

func aleFactory(t *testing.T) func(comm *mpi.Comm) (supervisor.Solver, error) {
	t.Helper()
	cfg := core.ALEConfig{
		Nu: 0.05, Dt: 2e-3, Order: 2,
		FarfieldVel: [3]float64{1, 0, 0},
		WallVelocity: func(tm float64) [3]float64 {
			return [3]float64{0, 0.3 * math.Cos(2*math.Pi*tm), 0}
		},
		MoveMesh: true,
	}
	return func(comm *mpi.Comm) (supervisor.Solver, error) {
		m2, err := mesh.WingSection(2, 12, 2)
		if err != nil {
			return nil, err
		}
		m3, err := mesh.ExtrudeQuads(m2, 2, 2, 0, 1)
		if err != nil {
			return nil, err
		}
		ns, err := core.NewNSALE(m3, cfg, comm, nil)
		if err != nil {
			return nil, err
		}
		ns.SetUniformInitial(1, 0, 0)
		return ns, nil
	}
}

func baseConfig(procs int, factory func(comm *mpi.Comm) (supervisor.Solver, error)) supervisor.Config {
	return supervisor.Config{
		Procs:           procs,
		Spares:          2,
		Model:           testNet(),
		NewSolver:       factory,
		Steps:           8,
		CheckpointEvery: 2,
		CheckpointCostS: 1e-4,
		MaxRestarts:     3,
	}
}

// runReference executes the fault-free supervised run the faulted
// campaigns must match bit-for-bit.
func runReference(t *testing.T, cfg supervisor.Config) *supervisor.Result {
	t.Helper()
	ref, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Attempts != 1 || len(ref.Failures) != 0 {
		t.Fatalf("reference run not clean: %d attempts, %d failures", ref.Attempts, len(ref.Failures))
	}
	return ref
}

func assertBitIdentical(t *testing.T, ref, got *supervisor.Result) {
	t.Helper()
	if len(got.FinalStates) != len(ref.FinalStates) {
		t.Fatalf("final state count %d, want %d", len(got.FinalStates), len(ref.FinalStates))
	}
	for r := range ref.FinalStates {
		if !bytes.Equal(ref.FinalStates[r], got.FinalStates[r]) {
			t.Fatalf("rank %d: final state differs from the unfaulted reference (not bit-identical)", r)
		}
	}
}

// tuneDetector scales the detector seed to the workload's actual step
// cadence, measured from the reference run.
func tuneDetector(cfg *supervisor.Config, ref *supervisor.Result) {
	cfg.Heartbeat.InitialInterval = ref.VirtualWall / float64(cfg.Steps)
}

func testCrashRecovery(t *testing.T, factory func(comm *mpi.Comm) (supervisor.Solver, error), steps int) {
	cfg := baseConfig(2, factory)
	cfg.Steps = steps
	ref := runReference(t, cfg)

	// Kill rank 1's node (physical node 1) mid-way through an
	// odd-numbered step: the newest committed checkpoint (even steps,
	// CheckpointEvery=2) is then a step behind, so the rollback has to
	// recompute work.
	target := steps/2 | 1
	crashT := (float64(target) + 0.5) / float64(steps) * ref.VirtualWall
	cfg.Faults = fault.NewPlan(1).Crash(1, crashT)
	var trace bytes.Buffer
	cfg.Trace = engine.NewTracer(&trace)
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 {
		t.Fatalf("supervised run took %d attempts, want 2", got.Attempts)
	}
	if len(got.Failures) != 1 {
		t.Fatalf("recorded %d failures, want 1: %+v", len(got.Failures), got.Failures)
	}
	f := got.Failures[0]
	if f.Rank != 1 || f.Cause != supervisor.CauseCrash {
		t.Fatalf("failure = %+v, want rank 1 crash", f)
	}
	// The traced stream marks the rollback once per rank, at the step
	// and attempt the campaign actually resumed from.
	if marks := rollbackMarks(t, &trace); len(marks) != cfg.Procs ||
		marks[0] != (rollbackMark{Attempt: 1, Step: f.RestartStep}) || marks[1] != marks[0] {
		t.Errorf("rollback markers = %+v, want one per rank at attempt 1, step %d", marks, f.RestartStep)
	}
	if f.DetectedAt < crashT {
		t.Errorf("detected at t=%.6g, before the crash at t=%.6g", f.DetectedAt, crashT)
	}
	if f.NewNode != 2 {
		t.Errorf("rank 1 moved to node %d, want the first spare (2)", f.NewNode)
	}
	if len(got.Replacements) != 1 || got.Replacements[0] != (simnet.Replacement{Rank: 1, OldNode: 1, NewNode: 2}) {
		t.Errorf("replacement log = %+v", got.Replacements)
	}
	if got.StepsComputed <= steps {
		t.Errorf("no recomputation recorded (%d steps total); crash too late to matter", got.StepsComputed)
	}
	if got.VirtualWall <= ref.VirtualWall {
		t.Errorf("recovery wall %v not larger than reference %v", got.VirtualWall, ref.VirtualWall)
	}
	assertBitIdentical(t, ref, got)
}

type rollbackMark struct{ Attempt, Step int }

// rollbackMarks lists the rollback markers of a traced campaign, in
// emission order.
func rollbackMarks(t *testing.T, trace *bytes.Buffer) []rollbackMark {
	t.Helper()
	evs, err := engine.ReadEvents(trace)
	if err != nil {
		t.Fatal(err)
	}
	var marks []rollbackMark
	for _, e := range evs {
		if e.Ev == engine.EvRollback {
			marks = append(marks, rollbackMark{Attempt: e.Attempt, Step: e.Step})
		}
	}
	return marks
}

func testStallRecovery(t *testing.T, factory func(comm *mpi.Comm) (supervisor.Solver, error), steps int) {
	cfg := baseConfig(2, factory)
	cfg.Steps = steps
	ref := runReference(t, cfg)

	// Freeze rank 1's process for a virtual megasecond: it goes silent
	// but never dies, so only the heartbeat detector can catch it.
	stallT := 0.4 * ref.VirtualWall
	cfg.Faults = fault.NewPlan(1).StallRank(1, stallT, 1e6)
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 {
		t.Fatalf("supervised run took %d attempts, want 2", got.Attempts)
	}
	if len(got.Failures) != 1 {
		t.Fatalf("recorded %d failures, want 1: %+v", len(got.Failures), got.Failures)
	}
	f := got.Failures[0]
	if f.Rank != 1 || f.Cause != supervisor.CauseStall {
		t.Fatalf("failure = %+v, want rank 1 stall", f)
	}
	if f.DetectedAt < stallT {
		t.Errorf("detected at t=%.6g, before the stall at t=%.6g", f.DetectedAt, stallT)
	}
	// The campaign wall charges the attempt up to the detection verdict,
	// not the simulation's post-verdict drain of the frozen rank.
	if got.VirtualWall > 1e5 {
		t.Errorf("campaign wall %.4g includes the stall drain; want the verdict-time cutoff", got.VirtualWall)
	}
	assertBitIdentical(t, ref, got)
}

func TestSupervisedNSFCrashBitIdentical(t *testing.T) {
	testCrashRecovery(t, nsfFactory(t), 8)
}

func TestSupervisedNSFStallBitIdentical(t *testing.T) {
	testStallRecovery(t, nsfFactory(t), 8)
}

func TestSupervisedNSALECrashBitIdentical(t *testing.T) {
	testCrashRecovery(t, aleFactory(t), 6)
}

func TestSupervisedNSALEStallBitIdentical(t *testing.T) {
	testStallRecovery(t, aleFactory(t), 6)
}

func TestSupervisedNS2DCrashRecovery(t *testing.T) {
	// The serial solver under the same runner: one solver rank plus the
	// monitor; the crash consumes the single spare.
	cfg2d := core.NS2DConfig{
		Nu: 0.1, Dt: 2e-3, Order: 2,
		VelDirichlet: map[string]core.VelBC{
			"wall":   core.ConstantVel(0, 0),
			"inflow": func(x, y float64) (float64, float64) { return 1 - y*y, 0 },
		},
		PresDirichlet: map[string]bool{"outflow": true},
	}
	factory := func(comm *mpi.Comm) (supervisor.Solver, error) {
		ns, err := core.NewNS2D(channelMesh(t), cfg2d)
		if err != nil {
			return nil, err
		}
		ns.SetUniformInitial(1, 0)
		return ns, nil
	}
	cfg := baseConfig(1, factory)
	cfg.Spares = 1
	ref := runReference(t, cfg)

	cfg.Faults = fault.NewPlan(1).Crash(0, 0.5*ref.VirtualWall)
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 || len(got.Failures) != 1 || got.Failures[0].Cause != supervisor.CauseCrash {
		t.Fatalf("attempts=%d failures=%+v, want one crash and one retry", got.Attempts, got.Failures)
	}
	assertBitIdentical(t, ref, got)
}

// corruptingSolver injects a NaN into the NSF fields right after a
// chosen step, while *active is set — the numerical blow-up the
// watchdog must catch before it reaches a checkpoint. With once set it
// clears *active after injecting, so the retry runs clean.
type corruptingSolver struct {
	supervisor.Solver
	ns     *core.NSF
	atStep int
	active *bool
	once   bool
}

func (c *corruptingSolver) Step() {
	c.Solver.Step()
	if *c.active && c.Solver.StepCount() == c.atStep {
		c.ns.U[0][0][0] = math.NaN()
		if c.once {
			*c.active = false
		}
	}
}

func TestWatchdogNaNRollbackBitIdentical(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	// Corrupt rank 1 at step 5 (checkpoints land at 2 and 4), once: the
	// instability is transient, so the retry is clean.
	active := true
	corrupting := func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil {
			return nil, err
		}
		if comm.Rank() == 1 {
			return &corruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, active: &active, once: true}, nil
		}
		return s, nil
	}
	cfg.NewSolver = corrupting
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 {
		t.Fatalf("took %d attempts, want 2", got.Attempts)
	}
	// Detected within one step of the injection: the corrupt step
	// itself, before any further stepping; the healthy peer is halted,
	// not blamed.
	if len(got.Failures) != 1 {
		t.Fatalf("failures = %+v, want one watchdog failure", got.Failures)
	}
	if f := got.Failures[0]; f.Cause != supervisor.CauseWatchdog || f.Rank != 1 || f.TripStep != 5 || f.Attempt != 0 {
		t.Fatalf("failure = %+v, want rank 1's watchdog trip at step 5 in attempt 0", f)
	}
	if got.Failures[0].RestartStep != 4 {
		t.Errorf("restarted from step %d, want the last pre-corruption checkpoint (4)", got.Failures[0].RestartStep)
	}
	if got.Failures[0].NewNode != -1 || len(got.Replacements) != 0 {
		t.Errorf("watchdog trip consumed hardware: %+v, %+v", got.Failures[0], got.Replacements)
	}
	assertBitIdentical(t, ref, got)
}

func TestWatchdogRetryBudgetExhausted(t *testing.T) {
	clean := nsfFactory(t)
	cfg := baseConfig(2, clean)
	ref := runReference(t, cfg)

	// The corruption never goes away: every attempt trips at step 5,
	// and the budget must produce a structured error — no panic, no
	// hang.
	active := true
	corrupting := func(comm *mpi.Comm) (supervisor.Solver, error) {
		s, err := clean(comm)
		if err != nil {
			return nil, err
		}
		if comm.Rank() == 1 {
			return &corruptingSolver{Solver: s, ns: s.(*core.NSF), atStep: 5, active: &active}, nil
		}
		return s, nil
	}
	cfg.NewSolver = corrupting
	cfg.MaxRestarts = 2
	tuneDetector(&cfg, ref)
	_, err := supervisor.Run(cfg)
	var re *supervisor.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Reason != "retry budget exhausted" || re.Attempts != 3 {
		t.Fatalf("RetryError = %+v, want retry budget exhausted after 3 attempts", re)
	}
	if len(re.Failures) != 3 {
		t.Fatalf("recorded %d failures, want one watchdog trip per attempt", len(re.Failures))
	}
	for _, f := range re.Failures {
		if f.Cause != supervisor.CauseWatchdog {
			t.Fatalf("failure %+v, want watchdog", f)
		}
	}
}

func TestSparePoolExhausted(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	cfg.Spares = 0
	cfg.Faults = fault.NewPlan(1).Crash(1, 0.4*ref.VirtualWall)
	tuneDetector(&cfg, ref)
	_, err := supervisor.Run(cfg)
	var re *supervisor.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Reason != "spare pool exhausted" {
		t.Fatalf("reason = %q, want spare pool exhausted", re.Reason)
	}
}

func TestSupervisedCrashAndStallCampaign(t *testing.T) {
	// One campaign, two independent hardware failures: node 0 freezes
	// early, node 1 dies later. Both ranks end up on spares and the
	// trajectory still matches the unfaulted reference bit-for-bit.
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	cfg.Faults = fault.NewPlan(7).
		StallRank(0, 0.25*ref.VirtualWall, 1e6).
		Crash(1, 0.6*ref.VirtualWall)
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if len(got.Failures) < 2 {
		t.Fatalf("failures = %+v, want both the stall and the crash handled", got.Failures)
	}
	causes := map[supervisor.Cause]bool{}
	for _, f := range got.Failures {
		causes[f.Cause] = true
	}
	if !causes[supervisor.CauseStall] || !causes[supervisor.CauseCrash] {
		t.Fatalf("causes = %+v, want both stall and crash", got.Failures)
	}
	if len(got.Replacements) != 2 {
		t.Fatalf("replacements = %+v, want both ranks moved to spares", got.Replacements)
	}
	assertBitIdentical(t, ref, got)
}

func TestRunRejectsBadConfig(t *testing.T) {
	factory := nsfFactory(t)
	for name, cfg := range map[string]supervisor.Config{
		"no ranks":     {Procs: 0, Steps: 1, Model: testNet(), NewSolver: factory},
		"no steps":     {Procs: 2, Steps: 0, Model: testNet(), NewSolver: factory},
		"no solver":    {Procs: 2, Steps: 1, Model: testNet()},
		"no model":     {Procs: 2, Steps: 1, NewSolver: factory},
		"neg spares":   {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, Spares: -1},
		"placed model": {Procs: 2, Steps: 1, Model: &simnet.Model{RanksPerNode: 2}, NewSolver: factory},
		"neg interval": {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, CheckpointEvery: -2},
		"neg restarts": {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, MaxRestarts: -1},
		"NaN cost":     {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, CheckpointCostS: math.NaN()},
		"neg cost":     {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, CheckpointCostS: -1e-4},
		"Inf disk": {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, SimDiskMBs: math.Inf(1),
			Adapt: &policy.Config{PriorMTBFS: 100}},
		"neg disk": {Procs: 2, Steps: 1, Model: testNet(), NewSolver: factory, SimDiskMBs: -20,
			Adapt: &policy.Config{PriorMTBFS: 100}},
	} {
		// A bad configuration is named before any rank starts — not
		// reported as a rank panic "outside the fault model".
		if _, err := supervisor.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", name)
		} else if strings.Contains(err.Error(), "fault model") {
			t.Errorf("%s: rejected only once ranks were running: %v", name, err)
		}
	}
}
