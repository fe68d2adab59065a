// Package engine is the one time-stepping driver shared by every
// Nektar solver configuration. The paper evaluates a single
// spectral/hp Navier-Stokes code in three configurations — serial 2D
// (Table 1), Fourier-parallel 3D (Table 2), and ALE moving-mesh
// (Table 3) — and this package holds the loop they all run under:
// stepping, per-stage accounting, checkpoint cadence, the
// numerical-health watchdog, and the halt hook the job farm drains
// through. A solver plugs in by implementing Solver; everything above
// it (internal/bench, internal/farm, the commands) drives the
// interface and never switches on the concrete solver type, so adding
// a fourth workload is a one-file job.
//
// The driver can also emit a structured per-step trace (trace.go): one
// JSONL event per step, per stage-with-work, per checkpoint, and per
// watchdog trip or halt, which internal/report consumes to rebuild the
// paper's per-stage breakdowns from a recorded run.
package engine

import (
	"fmt"
	"io"

	"nektar/internal/timing"
)

// Solver is one rank of a time-stepping solver. NS2D, NSF, and NSALE
// (internal/core) implement it.
type Solver interface {
	// Step advances the solution by one time step.
	Step()
	// StepCount reports the number of steps taken since construction
	// or the last Restore.
	StepCount() int
	// Stages exposes the per-stage instrumentation the step loop
	// charges work to.
	Stages() *timing.Stages
	// Checkpoint serializes the complete time-stepping state; Restore
	// loads it into a solver built with the same configuration, after
	// which stepping resumes bit-identically.
	Checkpoint(w io.Writer) error
	Restore(r io.Reader) error
	// HealthSample reports rank-local numerical health: the largest
	// field magnitude and whether every sampled value is finite.
	HealthSample() (maxAbs float64, finite bool)
}

// Watchdog configures the loop's numerical-health check, sampled after
// every step before any state is checkpointed. The verdict is
// rank-local: a rank that trips leaves the loop alone, and its peers
// would block in their next collective, so parallel runs set Disabled.
type Watchdog struct {
	// Disabled turns the watchdog off entirely.
	Disabled bool
	// MaxAbs trips when any field magnitude exceeds it (0 = no limit;
	// NaN/Inf always trip).
	MaxAbs float64
}

// Outcome classifies how a Loop run ended.
type Outcome int

const (
	// Completed: the solver reached the target step count.
	Completed Outcome = iota
	// Halted: Poll ordered the loop to stop at a step boundary.
	Halted
	// Tripped: the watchdog verdict ended the run before the corrupt
	// state could reach a checkpoint.
	Tripped
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Halted:
		return "halted"
	case Tripped:
		return "tripped"
	}
	return "unknown"
}

// Result reports a finished Loop run.
type Result struct {
	Outcome Outcome
	// StepsRun counts the steps this run executed (excluding any steps
	// already on the solver's counter from a restored checkpoint).
	StepsRun int
	// Final is the solver's serialized end state (Completed runs only).
	Final []byte
}

// Loop is the driver: one configured step loop over a Solver. The
// zero value of every optional field means "feature off", so a bare
// Loop{Solver: s, Steps: n} is a plain step loop.
//
// Per-step order: Poll (halt check) -> Step -> OnStep -> watchdog
// sample -> checkpoint. A watchdog trip exits before the checkpoint
// stage, so corrupt state is never staged.
type Loop struct {
	Solver Solver
	// Steps is the absolute target: the loop runs until
	// Solver.StepCount() reaches it.
	Steps int
	// Rank labels trace events (0 for serial runs).
	Rank int

	// CheckpointEvery stages a checkpoint every so many steps (0
	// disables; the final state is not handed to OnCheckpoint).
	// OnCheckpoint receives the serialized state and owns staging it
	// and charging any I/O cost.
	CheckpointEvery int
	OnCheckpoint    func(step int, state []byte)
	// Sink, when set, receives every marshalled snapshot — the mid-run
	// checkpoints and the final state — for durable storage (see
	// internal/ckpt). The loop drains it on every exit path, so a
	// returned Run means every submitted snapshot is on the medium.
	Sink CheckpointSink

	// Poll is the pre-step halt check; returning true ends the loop
	// with Outcome Halted.
	Poll func() bool
	// FinalOnHalt makes a Poll-ordered halt take the same snapshot path
	// as completion: the state at the halted step boundary is marshalled
	// into Result.Final and submitted to the Sink (marked final), so a
	// drained run can be parked durably and resumed later. Off by
	// default — a plain halt leaves only the cadence checkpoints. A
	// watchdog trip never snapshots regardless: corrupt state must not
	// reach the store.
	FinalOnHalt bool
	// OnStep fires immediately after each Step, before the watchdog.
	OnStep func(step int)

	Watchdog Watchdog

	// Trace, when set, receives the structured per-step event stream.
	Trace *Tracer
}

// CheckpointSink receives marshalled snapshots for durable storage off
// the step loop's critical path. Submit may buffer (an asynchronous
// writer) or persist inline (a synchronous one); final marks the run's
// end-state snapshot. Drain blocks until everything submitted is
// durable and returns the first write error. internal/ckpt provides
// the implementations.
type CheckpointSink interface {
	Submit(step int, state []byte, final bool) error
	Drain() error
}

// Validate checks the loop configuration and returns a descriptive
// error for each way a run cannot work: a nil Solver or a negative
// checkpoint interval (a negative modulus would checkpoint on
// arbitrary steps instead of never).
func (l *Loop) Validate() error {
	if l.Solver == nil {
		return fmt.Errorf("engine: Loop.Solver is nil — the loop has nothing to step")
	}
	if l.CheckpointEvery < 0 {
		return fmt.Errorf("engine: negative CheckpointEvery %d — use 0 to disable checkpointing", l.CheckpointEvery)
	}
	return nil
}

// Run executes the loop to its outcome. Errors are configuration,
// serialization, or checkpoint-sink failures only; solver and
// communication failures panic, and the simulated cluster reports a
// rank's panic as the run's error. When a Sink is configured it is
// drained on every exit path, so a returned Run means every submitted
// snapshot is durable.
func (l *Loop) Run() (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	res, err := l.run()
	if l.Sink != nil {
		if derr := l.Sink.Drain(); derr != nil && err == nil {
			err = derr
		}
	}
	return res, err
}

func (l *Loop) run() (Result, error) {
	s := l.Solver
	res := Result{}
	// snap/cur are a reused snapshot pair: traceStep refills cur and the
	// swap makes it the next step's baseline, so tracing allocates
	// nothing per step.
	var snap, cur timing.Snapshot
	if l.Trace != nil {
		s.Stages().SnapshotInto(&snap)
	}
	for s.StepCount() < l.Steps {
		if l.Poll != nil && l.Poll() {
			res.Outcome = Halted
			if l.FinalOnHalt {
				final, err := l.snapshot(s.StepCount(), true)
				if err != nil {
					return res, err
				}
				res.Final = final
			}
			l.trace(Event{Ev: EvHalt, Rank: l.Rank, Step: s.StepCount()})
			return res, nil
		}
		s.Step()
		step := s.StepCount()
		res.StepsRun++
		if l.OnStep != nil {
			l.OnStep(step)
		}
		if l.Trace != nil {
			l.traceStep(step, &snap, &cur)
			snap, cur = cur, snap
		}

		if !l.Watchdog.Disabled {
			maxAbs, finite := s.HealthSample()
			if !finite || (l.Watchdog.MaxAbs > 0 && maxAbs > l.Watchdog.MaxAbs) {
				res.Outcome = Tripped
				l.trace(Event{Ev: EvTrip, Rank: l.Rank, Step: step, MaxAbs: maxAbs, Finite: &finite})
				return res, nil
			}
		}
		if step < l.Steps && l.CheckpointEvery > 0 && step%l.CheckpointEvery == 0 {
			if _, err := l.snapshot(step, false); err != nil {
				return res, err
			}
		}
	}
	// The final state takes the same marshal/trace/sink path as a
	// mid-run checkpoint (marked final) — it is not an untraced special
	// case — but is returned in the Result rather than handed to
	// OnCheckpoint, whose contract is mid-run staging only.
	final, err := l.snapshot(s.StepCount(), true)
	if err != nil {
		return res, err
	}
	res.Final = final
	res.Outcome = Completed
	l.trace(Event{Ev: EvDone, Rank: l.Rank, Step: s.StepCount()})
	return res, nil
}

// snapshot is the one marshal path: it serializes the solver, emits
// the checkpoint trace event, and feeds the sink (ckpt_begin marks the
// hand-off; the sink emits ckpt_done when the record is durable).
func (l *Loop) snapshot(step int, final bool) ([]byte, error) {
	state, err := Marshal(l.Solver)
	if err != nil {
		return nil, err
	}
	l.trace(Event{Ev: EvCheckpoint, Rank: l.Rank, Step: step, Bytes: len(state), Final: final})
	if l.Sink != nil {
		l.trace(Event{Ev: EvCkptBegin, Rank: l.Rank, Step: step, Bytes: len(state), Final: final})
		if err := l.Sink.Submit(step, state, final); err != nil {
			return nil, err
		}
	}
	if !final && l.OnCheckpoint != nil {
		l.OnCheckpoint(step, state)
	}
	return state, nil
}

// trace emits e when tracing is on.
func (l *Loop) trace(e Event) {
	if l.Trace != nil {
		l.Trace.Emit(e)
	}
}

// traceStep emits the step event plus one stage event per stage that
// did work this step. prev holds the accumulators at the previous step
// boundary; cur is a scratch snapshot refilled here (the caller swaps
// the pair afterwards).
func (l *Loop) traceStep(step int, prev, cur *timing.Snapshot) {
	st := l.Solver.Stages()
	st.SnapshotInto(cur)
	var hostS, pricedS, wallS float64
	for i, name := range st.Names {
		dh := cur.Seconds[i] - prev.Seconds[i]
		dp := cur.Priced[i] - prev.Priced[i]
		dw := 0.0
		if i < len(cur.Wall) && i < len(prev.Wall) {
			dw = cur.Wall[i] - prev.Wall[i]
		}
		hostS += dh
		pricedS += dp
		wallS += dw
		if dh == 0 && dp == 0 && dw == 0 {
			continue
		}
		l.Trace.Emit(Event{
			Ev: EvStage, Rank: l.Rank, Step: step, Stage: name,
			HostS: dh, PricedS: dp, WallS: dw,
		})
	}
	l.Trace.Emit(Event{
		Ev: EvStep, Rank: l.Rank, Step: step,
		HostS: hostS, PricedS: pricedS, WallS: wallS,
	})
}
