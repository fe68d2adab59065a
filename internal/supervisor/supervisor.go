// Package supervisor is the self-healing cluster runtime for the
// simulated Beowulf: it runs any of the Nektar solvers under automatic
// fault management, closing the loop the paper's operators closed by
// hand (notice the dead PC, swap it, restart from restart files).
//
// A supervised run adds one extra simulated rank — the monitor — to
// the solver's world. Solver ranks send a tiny eager heartbeat
// (simnet.SendControl) after every step; the monitor feeds a
// per-rank phi-accrual detector (detector.go) and, when a rank goes
// silent past the adaptive timeout, broadcasts a halt order, so every
// survivor stops at a consistent step boundary. The supervisor then
// identifies the failed ranks (crash unwinding, or the stall schedule
// for frozen-but-alive processes), moves them onto hot-spare nodes
// (simnet.SparePool), and relaunches the whole run from the last
// globally-committed checkpoint — repeating until completion or until
// the retry budget or the spare pool is exhausted, both of which
// return a structured *RetryError.
//
// A numerical-health watchdog rides the same step boundary: each rank
// samples its solver fields (Solver.HealthSample) after every step and
// the ranks agree on a verdict with a one-flag Allreduce, so a NaN/Inf
// makes every rank stop at the same step — before the corrupt state
// can be staged into a checkpoint. A trip is answered like a crash
// minus the spare: roll back to the newest verified commit and retry,
// within the same retry budget.
//
// Because solver arithmetic never depends on the virtual clock, a
// supervised run that survives any number of crashes, stalls, and
// rollbacks finishes bit-identical to a fault-free supervised run.
package supervisor

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
	"nektar/internal/policy"
	"nektar/internal/simnet"
)

// Solver is the engine's solver interface: the supervisor drives any
// solver through it (NS2D, NSF, and NSALE all implement it) and never
// switches on the concrete type.
type Solver = engine.Solver

// HeartbeatConfig tunes the failure detector. Solver ranks heartbeat
// after every step; the detector keeps a window of the newest
// detectorWindow intervals.
type HeartbeatConfig struct {
	// InitialInterval primes the detector before the first heartbeat
	// (virtual seconds; default 1). Pick the expected step duration —
	// too large only delays the first possible detection.
	InitialInterval float64
	// Threshold is the phi level at which a silent rank becomes a
	// suspect (default 8).
	Threshold float64
}

// detectorWindow is the phi detector's sliding interval window.
const detectorWindow = 32

// Config describes a supervised run.
type Config struct {
	// Procs is the solver's rank count; the monitor occupies one extra
	// simulated rank (id Procs) on its own head node.
	Procs int
	// Spares is the number of hot-spare nodes behind the initial
	// placement.
	Spares int
	// Model is the cluster network; the supervisor overrides its rank
	// placement (one rank per physical node plus spares and the head
	// node), so RanksPerNode/NodeMap must be unset.
	Model *simnet.Model
	// NewSolver builds (or rebuilds) one rank's solver at the start of
	// each attempt. The communicator spans exactly the solver ranks.
	NewSolver func(comm *mpi.Comm) (Solver, error)

	// Steps is the target step count; CheckpointEvery the checkpoint
	// interval in steps (0 disables checkpointing: recovery then always
	// restarts from step 0). CheckpointCostS charges each checkpoint a
	// flat blocking-I/O cost on the virtual wall clock, on top of the
	// SimDiskMBs-priced write.
	Steps           int
	CheckpointEvery int
	CheckpointCostS float64

	// Faults is the campaign's fault plan, keyed by PHYSICAL NODE id in
	// [0, Procs+Spares) — a crash follows the broken hardware, not the
	// logical rank, so a rank moved onto a spare sheds the old node's
	// faults. Nil means fault-free. The plan applies to every attempt;
	// fault times are relative to each attempt's start.
	Faults simnet.Injector

	// MaxRestarts is the retry budget: the number of failed attempts
	// tolerated before giving up (default Spares+3).
	MaxRestarts int

	Heartbeat HeartbeatConfig

	// Store holds every checkpoint of the campaign as a framed,
	// compressed, CRC-protected record (internal/ckpt), written by one
	// ckpt.SimWriter per rank, and is the only commit path: after a
	// failure the supervisor resumes from the newest step whose records
	// verify on every rank, falling back past torn or bit-flipped
	// records. A pre-populated store warm-starts the whole campaign
	// (cross-process resume). Nil means a fresh in-memory store that
	// lives as long as the Run call. Kind tags the records.
	Store ckpt.Store
	Kind  string

	// Trace, when set, receives the engine's per-step event stream from
	// every solver rank, plus a rollback marker per rank whenever an
	// attempt resumes from a committed checkpoint.
	Trace *engine.Tracer

	// Adapt, when set, turns on the adaptive-resilience layer
	// (internal/policy): the live Young's-formula cadence replaces
	// CheckpointEvery (which then seeds the initial interval), and the
	// MTBF estimator feeds on the campaign's crash and stall history.
	// Its cadence retunes go to Trace as policy_switch events.
	Adapt *policy.Config
	// SimDiskMBs, when > 0, prices each checkpoint from the record's
	// stored size through the cluster's calibrated disk model, as a
	// node-local write. 0 = free disk.
	SimDiskMBs float64
}

// validate returns a descriptive error for each configuration that
// cannot run, before any rank starts.
func (cfg *Config) validate() error {
	switch {
	case cfg.Procs < 1 || cfg.Steps < 1:
		return fmt.Errorf("supervisor: need at least one rank and one step")
	case cfg.NewSolver == nil:
		return fmt.Errorf("supervisor: NewSolver is required")
	case cfg.Model == nil:
		return fmt.Errorf("supervisor: Model is required")
	case cfg.Model.RanksPerNode > 1 || cfg.Model.NodeMap != nil:
		return fmt.Errorf("supervisor: Model must leave rank placement to the supervisor (RanksPerNode <= 1, NodeMap nil)")
	case cfg.Spares < 0:
		return fmt.Errorf("supervisor: negative spare count %d", cfg.Spares)
	case cfg.CheckpointEvery < 0:
		return fmt.Errorf("supervisor: negative CheckpointEvery %d — use 0 to disable checkpointing", cfg.CheckpointEvery)
	case cfg.MaxRestarts < 0:
		return fmt.Errorf("supervisor: negative MaxRestarts %d — use 0 for the default budget (Spares+3)", cfg.MaxRestarts)
	case !(cfg.CheckpointCostS >= 0) || math.IsInf(cfg.CheckpointCostS, 0):
		return fmt.Errorf("supervisor: CheckpointCostS %g must be a finite, non-negative number of seconds", cfg.CheckpointCostS)
	case !(cfg.SimDiskMBs >= 0) || math.IsInf(cfg.SimDiskMBs, 0):
		return fmt.Errorf("supervisor: SimDiskMBs %g must be a finite, non-negative bandwidth", cfg.SimDiskMBs)
	}
	return nil
}

// Cause classifies a failure.
type Cause int

const (
	// CauseCrash: the rank's node died (simnet crash fault).
	CauseCrash Cause = iota
	// CauseStall: the rank's process froze past the detector timeout.
	CauseStall
	// CauseWatchdog: the rank's fields went non-finite; the hardware
	// is fine, so no spare is consumed.
	CauseWatchdog
)

func (c Cause) String() string {
	switch c {
	case CauseCrash:
		return "crash"
	case CauseStall:
		return "stall"
	case CauseWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Failure records one detected-and-handled rank failure.
type Failure struct {
	Attempt int
	Rank    int
	Cause   Cause
	// DetectedAt is the monitor's verdict time (virtual seconds into
	// the attempt).
	DetectedAt float64
	// RestartStep is the committed checkpoint step the next attempt
	// resumed from (-1 = from scratch).
	RestartStep int
	// NewNode is the spare the rank moved to (-1 for watchdog trips,
	// which do not consume hardware).
	NewNode int
	// TripStep is the step whose fields tripped the watchdog (-1 for
	// crashes and stalls). The trace's trip event carries the evidence.
	TripStep int
}

// Result reports a completed supervised run.
type Result struct {
	// Attempts is the number of runs launched (1 = no failures).
	Attempts int
	// Failures lists every handled failure, in detection order.
	Failures []Failure
	// StepsComputed counts rank-0 solver steps across all attempts.
	StepsComputed int
	// VirtualWall is the campaign's total virtual wall time: for each
	// attempt, the time to completion or to the monitor's failure
	// verdict (at which point a real supervisor kills the job).
	VirtualWall float64
	// FinalStates holds each rank's final serialized solver state;
	// bit-identical trajectories give byte-identical states.
	FinalStates [][]byte
	// Replacements is the spare-pool history of the campaign.
	Replacements []simnet.Replacement

	// MTBFEstimateS and FinalInterval snapshot the adaptive layer's end
	// state: the cluster MTBF estimate (virtual seconds) and the
	// cadence in force (adaptive runs only; zero values otherwise).
	MTBFEstimateS float64
	FinalInterval int
}

// RetryError is the structured give-up error: the retry budget or the
// spare pool ran out before the run completed.
type RetryError struct {
	Reason   string
	Attempts int
	Failures []Failure
}

func (e *RetryError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "supervisor: %s after %d attempt(s)", e.Reason, e.Attempts)
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "; attempt %d: rank %d %s at t=%.4gs", f.Attempt, f.Rank, f.Cause, f.DetectedAt)
	}
	return b.String()
}

// Run executes a supervised run to completion, recovering from crashes,
// stalls, and watchdog trips automatically. It returns a *RetryError
// when the retry budget or the spare pool is exhausted, and a plain
// error for failures outside the fault model (a solver bug, an invalid
// configuration).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = ckpt.NewMemStore()
	}
	maxAttempts := cfg.MaxRestarts + 1
	if cfg.MaxRestarts == 0 {
		maxAttempts = cfg.Spares + 4
	}
	pool, err := simnet.NewSparePool(cfg.Procs, cfg.Spares)
	if err != nil {
		return nil, err
	}

	// Adaptive layer: campaign-level controller state (nil = static).
	var rt *adaptRuntime
	if cfg.Adapt != nil {
		if rt, err = newAdaptRuntime(*cfg.Adapt, cfg.CheckpointEvery); err != nil {
			return nil, err
		}
	}

	res := &Result{}
	// The store may already hold a usable checkpoint from an earlier
	// (killed) process — resume the campaign from it.
	committedStep, committed, err := ckpt.Latest(cfg.Store, cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("supervisor: reading checkpoint store: %w", err)
	}

	for attemptNo := 0; attemptNo < maxAttempts; attemptNo++ {
		a := newAttempt(&cfg, pool, attemptNo, committedStep, committed)
		if rt != nil {
			a.ad = rt.attemptState()
		}
		wall, _, runErr := simnet.RunWithFaults(cfg.Procs+1, a.model, a.inj, a.body)
		res.Attempts++
		res.StepsComputed += a.stepsRun[0]
		res.VirtualWall += a.attemptWall(wall)
		if rt != nil {
			rt.absorb(a.ad)
		}

		var ce *simnet.CrashError
		isCrash := errors.As(runErr, &ce)
		if runErr != nil && !isCrash {
			return nil, fmt.Errorf("supervisor: attempt %d failed outside the fault model: %w", attemptNo, runErr)
		}
		if runErr == nil && a.completed() {
			res.FinalStates = a.final
			res.Replacements = pool.Replacements()
			if rt != nil {
				res.MTBFEstimateS = rt.est.MTBFS()
				res.FinalInterval = rt.interval
			}
			return res, nil
		}

		// Failed attempt. Identify the failed ranks: the detector's
		// suspicion is in-band (heartbeat silence); the diagnosis below
		// is the out-of-band node inspection a real supervisor performs
		// before allocating hardware (IPMI says the node died; the
		// process is alive but frozen; the fields went non-finite).
		// A watchdog trip is recorded against the tripping rank only:
		// the halted peers are healthy.
		detectedAt := math.NaN()
		if a.verdict != nil {
			detectedAt = a.verdict.at
		}
		cause := map[int]Cause{}
		if isCrash {
			for _, r := range ce.Ranks {
				cause[r] = CauseCrash
			}
		}
		for r := 0; r < cfg.Procs; r++ {
			if _, dead := cause[r]; dead {
				continue
			}
			if a.stallFired(r, wall[r]) {
				cause[r] = CauseStall
			} else if a.trips[r] != nil {
				cause[r] = CauseWatchdog
			}
		}
		if len(cause) == 0 {
			return nil, fmt.Errorf(
				"supervisor: attempt %d halted (verdict %v) but no crash, stall, or watchdog trip explains it — detector threshold too tight for this workload?",
				attemptNo, a.verdictRanks())
		}

		// Commit the newest checkpoint that verifies on every rank; a
		// trip exits before staging, so corrupt state never gets here.
		// Doing this before recording failures lets each Failure carry
		// the step the next attempt actually resumes from. The commit
		// re-reads through CRC verification, so a torn or bit-flipped
		// record demotes its step and the rollback lands on the previous
		// complete checkpoint.
		s, states, serr := ckpt.Latest(cfg.Store, cfg.Procs)
		if serr != nil {
			return nil, fmt.Errorf("supervisor: reading checkpoint store after failure: %w", serr)
		}
		if s > committedStep {
			committedStep, committed = s, states
		}

		// Hardware failures consume spares; the rank keeps its id and
		// moves onto the replacement node for the next attempt. A
		// watchdog trip keeps its node: the retry from the commit above
		// is the whole response.
		for r := 0; r < cfg.Procs; r++ {
			c, failed := cause[r]
			if !failed {
				continue
			}
			f := Failure{
				Attempt: attemptNo, Rank: r, Cause: c,
				DetectedAt: detectedAt, RestartStep: committedStep, NewNode: -1, TripStep: -1,
			}
			if c == CauseWatchdog {
				f.TripStep = a.trips[r].Step
				res.Failures = append(res.Failures, f)
				continue
			}
			newNode, rerr := pool.Replace(r)
			if rerr != nil {
				res.Failures = append(res.Failures, f)
				return nil, &RetryError{Reason: "spare pool exhausted", Attempts: res.Attempts, Failures: res.Failures}
			}
			f.NewNode = newNode
			res.Failures = append(res.Failures, f)
			// Hardware failures feed the MTBF estimator at the
			// campaign's cumulative virtual time of detection.
			if rt != nil {
				rt.est.ObserveFailure(res.VirtualWall)
			}
		}
	}
	return nil, &RetryError{Reason: "retry budget exhausted", Attempts: res.Attempts, Failures: res.Failures}
}
