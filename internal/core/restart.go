package core

import (
	"errors"
	"fmt"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// Crash-recovery harness: runs a solver on the simulated cluster under
// a fault plan, checkpointing every K steps into (in-memory) per-rank
// restart files. When an injected node crash kills the run, the
// harness restarts it from the last checkpoint every rank completed,
// exactly as the paper's 250-CPU-hour production runs survived
// commodity hardware: "restart files". Because the solver state
// round-trips bit-identically and the arithmetic does not depend on
// the virtual clock, the recovered trajectory matches an unfaulted
// reference run exactly. The attempt loop drives any engine.Solver, and
// package supervisor builds the fully-automatic version (failure
// detection, hot spares, watchdog) on the same checkpoint-commit rule
// (ckpt.Latest / ckpt.LatestStaged).

// Recovery is the solver-agnostic fault-tolerant run: the attempt
// loop, per-rank checkpoint staging, and the commit rule (newest step
// present on every rank).
type Recovery struct {
	Procs int
	Model *simnet.Model

	// NewSolver builds (or rebuilds) one rank's solver at the start of
	// each attempt.
	NewSolver func(rank int, comm *mpi.Comm) (engine.Solver, error)

	// Steps is the target step count; CheckpointEvery the interval in
	// steps (0 disables checkpointing and therefore recovery).
	Steps           int
	CheckpointEvery int
	// CheckpointCostS charges each checkpoint as blocking I/O on every
	// rank's virtual wall clock (no CPU), e.g. bytes/diskBandwidth.
	CheckpointCostS float64

	// Plans[i] is the fault plan for attempt i (nil = fault-free); a
	// re-run after a crash must not replay the same crash, so each
	// attempt gets its own plan. Attempts beyond len(Plans) run
	// fault-free.
	Plans []simnet.Injector
	// Rel enables reliable MPI delivery (needed when a plan drops
	// messages; crashes alone do not require it).
	Rel *mpi.Reliability
	// MaxAttempts bounds the total runs (default len(Plans)+1).
	MaxAttempts int

	// Trace receives the engine's per-step event stream plus rollback
	// markers when attempts resume from a committed checkpoint.
	Trace *engine.Tracer

	// Store, when set, makes every staged checkpoint durable (framed,
	// compressed, CRC-protected — see internal/ckpt) and the commit
	// rule corruption-aware: an attempt resumes from the newest step
	// whose records verify on every rank, falling back past torn or
	// bit-flipped records. A pre-populated store also warm-starts the
	// whole run (cross-process resume). Kind tags the records.
	Store ckpt.Store
	Kind  string
}

// RecoveryResult reports how a fault-tolerant run went.
type RecoveryResult struct {
	// Attempts is the number of runs launched (1 = no failures).
	Attempts int
	// Crashes records the error of each failed attempt.
	Crashes []error
	// StepsComputed counts solver steps executed on rank 0 across all
	// attempts; minus Steps, that is the recomputation wasted by
	// rolling back to checkpoints.
	StepsComputed int
	// VirtualWall sums the maximum per-rank virtual wall clock over
	// all attempts: the wall time the whole campaign took, including
	// checkpoint I/O, lost work, and the recovery re-runs.
	VirtualWall float64
	// Final holds each rank's final serialized solver state (gob is
	// deterministic, so equal trajectories give equal bytes).
	Final [][]byte
}

// RunRecovery executes the configured run to completion, restarting
// from the last complete checkpoint after every injected crash. It
// fails if a non-crash error occurs or MaxAttempts is exhausted.
func RunRecovery(rc Recovery) (*RecoveryResult, error) {
	if rc.Procs < 1 || rc.Steps < 1 {
		return nil, fmt.Errorf("core: recovery needs at least one rank and one step")
	}
	if rc.NewSolver == nil {
		return nil, fmt.Errorf("core: recovery needs a solver factory")
	}
	maxAttempts := rc.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(rc.Plans) + 1
	}
	res := &RecoveryResult{}
	// The committed checkpoint: the newest step every rank has staged.
	committedStep := -1
	var committed [][]byte
	// A durable store may already hold a usable checkpoint from an
	// earlier (killed) process — resume from it.
	if rc.Store != nil {
		s, states, serr := ckpt.Latest(rc.Store, rc.Procs)
		if serr != nil {
			return nil, fmt.Errorf("core: reading checkpoint store: %w", serr)
		}
		if s >= 0 {
			committedStep, committed = s, states
		}
	}

	for attempt := 0; attempt < maxAttempts; attempt++ {
		var inj simnet.Injector
		if attempt < len(rc.Plans) {
			inj = rc.Plans[attempt]
		}
		// Per-rank staging area for this attempt's checkpoints. Each
		// rank writes only its own map, and the scheduler serializes
		// rank execution, so no locking is needed; the harness reads
		// them only after the run ends.
		staged := make([]map[int][]byte, rc.Procs)
		final := make([][]byte, rc.Procs)
		stepsRun := make([]int, rc.Procs)

		wall, _, err := simnet.RunWithFaults(rc.Procs, rc.Model, inj, func(n *simnet.Node) {
			comm := mpi.World(n)
			if rc.Rel != nil {
				comm.SetReliability(rc.Rel)
			}
			s, serr := rc.NewSolver(n.Rank, comm)
			if serr != nil {
				panic(serr)
			}
			staged[n.Rank] = map[int][]byte{}
			if committedStep >= 0 {
				if lerr := engine.Restore(s, committed[n.Rank]); lerr != nil {
					panic(lerr)
				}
				if rc.Trace != nil {
					rc.Trace.Emit(engine.Event{
						Ev: engine.EvRollback, Rank: n.Rank,
						Step: committedStep, Attempt: attempt,
					})
				}
			}
			loop := engine.Loop{
				Solver: s, Steps: rc.Steps, Rank: n.Rank,
				CheckpointEvery: rc.CheckpointEvery,
				OnCheckpoint: func(step int, state []byte) {
					staged[n.Rank][step] = state
					if rc.Store != nil {
						if _, perr := rc.Store.Put(ckpt.Meta{Kind: rc.Kind, Rank: n.Rank, Step: step}, state); perr != nil {
							panic(perr)
						}
					}
					if rc.CheckpointCostS > 0 {
						comm.Sleep(rc.CheckpointCostS)
					}
				},
				OnStep:   func(int) { stepsRun[n.Rank]++ },
				Watchdog: engine.Watchdog{Disabled: true},
				Trace:    rc.Trace,
			}
			lres, lerr := loop.Run()
			if lerr != nil {
				panic(lerr)
			}
			final[n.Rank] = lres.Final
		})
		res.Attempts++
		res.StepsComputed += stepsRun[0]
		res.VirtualWall += maxFloat(wall)

		if err == nil {
			res.Final = final
			return res, nil
		}
		var ce *simnet.CrashError
		if !errors.As(err, &ce) {
			return nil, fmt.Errorf("core: recovery attempt %d failed without a crash: %w", attempt, err)
		}
		res.Crashes = append(res.Crashes, ce)
		if rc.Store != nil {
			// Re-read through the store so the commit is what actually
			// verifies on disk: a torn or bit-flipped record demotes its
			// step and Latest falls back to the previous complete one.
			s, states, serr := ckpt.Latest(rc.Store, rc.Procs)
			if serr != nil {
				return nil, fmt.Errorf("core: reading checkpoint store after crash: %w", serr)
			}
			if s > committedStep {
				committedStep, committed = s, states
			}
		} else if s, states := ckpt.LatestStaged(staged); s > committedStep {
			committedStep, committed = s, states
		}
		// Without any usable checkpoint the next attempt restarts from
		// step 0 — still correct, just maximally wasteful.
	}
	return nil, fmt.Errorf("core: recovery exhausted %d attempts (%d crashes)", maxAttempts, len(res.Crashes))
}

func maxFloat(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
