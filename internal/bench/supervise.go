package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"nektar/internal/ckpt"
	"nektar/internal/fault"
	"nektar/internal/machine"
	"nektar/internal/policy"
	"nektar/internal/report"
	"nektar/internal/supervisor"
	"nektar/internal/workload"
)

// Supervise: the self-healing runtime demonstration. The paper's
// production runs survived commodity hardware because an operator
// noticed the dead PC, swapped it, and restarted from restart files;
// package supervisor closes that loop automatically. This experiment
// runs a supervised reference, then the same run through a two-fault
// campaign — one node crash and one process freeze — and reports the
// detection, the spare-node replacements, the recovery cost, and
// whether the recovered trajectory is bit-identical to the reference.

// SuperviseConfig parametrizes the demonstration.
type SuperviseConfig struct {
	Machine string
	Solver  string // internal/workload table name
	Procs   int
	Spares  int

	Steps           int
	CheckpointEvery int

	// CrashFrac and StallFrac place the two faults as fractions of the
	// reference virtual wall: node 1 dies at CrashFrac, node 0 freezes
	// (silent but alive) at StallFrac. Either may be 0 to disable.
	CrashFrac float64
	StallFrac float64
	// StallDurS is the freeze duration (virtual seconds); long enough
	// that only the heartbeat detector can end the attempt.
	StallDurS float64
	Seed      int64

	// CkptDir, when set, backs the faulted campaign's checkpoints with
	// a durable on-disk store instead of the default in-memory one (the
	// same framed, compressed, CRC-verified records either way). The
	// directory must start empty — leftover records warm-start the
	// campaign.
	CkptDir string

	// Policy selects the resilience policy for the faulted campaign:
	// "static" (the default, empty means static) or "adaptive" (see
	// internal/policy). Under "adaptive" the campaign retunes its
	// checkpoint cadence from the observed failures and the report
	// gains a policy end-state row.
	Policy string
	// MTBFHours seeds the adaptive policy's per-node MTBF prior, in
	// hours of virtual time. Required (positive) when Policy is
	// "adaptive"; ignored otherwise.
	MTBFHours float64
}

// PaperSupervise is the default campaign: the paper's Ethernet Beowulf
// with two hot spares behind four ranks, hit by a crash and a freeze.
var PaperSupervise = SuperviseConfig{
	Machine: "RoadRunner-eth",
	Solver:  "nsf",
	Procs:   4,
	Spares:  2,
	Steps:   10, CheckpointEvery: 2,
	CrashFrac: 0.55, StallFrac: 0.25,
	StallDurS: 1e6,
	Seed:      1,
}

// ValidateSupervise checks a configuration and returns an actionable
// error for each way the demonstration cannot run.
func ValidateSupervise(cfg SuperviseConfig) error {
	if _, _, err := clusterFor(cfg.Machine, cfg.Solver, cfg.Procs, cfg.Spares); err != nil {
		return err
	}
	if cfg.Spares < 0 {
		return fmt.Errorf("bench: negative spare count %d", cfg.Spares)
	}
	if cfg.Steps < 1 {
		return fmt.Errorf("bench: need at least one step, got %d", cfg.Steps)
	}
	if cfg.CrashFrac < 0 || cfg.CrashFrac >= 1 || cfg.StallFrac < 0 || cfg.StallFrac >= 1 {
		return fmt.Errorf("bench: fault fractions must lie in [0, 1): crash %g, stall %g — they place faults inside the reference run",
			cfg.CrashFrac, cfg.StallFrac)
	}
	if cfg.StallFrac > 0 && cfg.StallDurS <= 0 {
		return fmt.Errorf("bench: a stall needs a positive duration, got %g", cfg.StallDurS)
	}
	switch cfg.Policy {
	case "", "static":
	case "adaptive":
		if !(cfg.MTBFHours > 0) || math.IsInf(cfg.MTBFHours, 0) {
			return fmt.Errorf("bench: the adaptive policy needs a positive finite per-node MTBF prior in hours (-mtbf), got %g", cfg.MTBFHours)
		}
	default:
		return fmt.Errorf("bench: unknown policy %q: the policies are static, adaptive", cfg.Policy)
	}
	return nil
}

// supervisedConfig is the supervisor configuration both resilience
// experiments start from. The supervised runtime owns rank placement:
// one rank per physical node plus the hot spares and the monitor's
// head node, so the machine's SMP packing is cleared.
func supervisedConfig(mach *machine.Machine, newSolver rankSolver, procs, spares, steps int) supervisor.Config {
	model := *mach.Net
	model.RanksPerNode = 0
	return supervisor.Config{
		Procs: procs, Spares: spares, Steps: steps, Model: &model,
		NewSolver: newSolver,
	}
}

// yesNO renders a bit-identity verdict for a table cell; the failure
// is the one that must catch the eye.
func yesNO(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// RunSupervise executes the demonstration and renders the report.
func RunSupervise(cfg SuperviseConfig) (*report.Table, error) {
	if err := ValidateSupervise(cfg); err != nil {
		return nil, err
	}
	mach, newSolver, err := clusterFor(cfg.Machine, cfg.Solver, cfg.Procs, cfg.Spares)
	if err != nil {
		return nil, err
	}
	sup := supervisedConfig(mach, newSolver, cfg.Procs, cfg.Spares, cfg.Steps)
	sup.CheckpointEvery = cfg.CheckpointEvery
	sup.CheckpointCostS = 1e-4
	ref, err := supervisor.Run(sup)
	if err != nil {
		return nil, fmt.Errorf("bench: supervised reference run: %w", err)
	}

	// Fault plan keyed by physical node: node 1 (rank 1's initial home)
	// dies, node 0 freezes. The supervisor must detect both, halt the
	// survivors, move the ranks onto spares, and resume from the last
	// committed checkpoint.
	plan := fault.NewPlan(cfg.Seed)
	var faults []string
	if cfg.CrashFrac > 0 && cfg.Procs > 1 {
		plan.Crash(1, cfg.CrashFrac*ref.VirtualWall)
		faults = append(faults, fmt.Sprintf("crash node 1 @ %.3gs", cfg.CrashFrac*ref.VirtualWall))
	}
	if cfg.StallFrac > 0 {
		plan.StallRank(0, cfg.StallFrac*ref.VirtualWall, cfg.StallDurS)
		faults = append(faults, fmt.Sprintf("freeze node 0 @ %.3gs", cfg.StallFrac*ref.VirtualWall))
	}
	faulted := sup
	faulted.Faults = plan
	faulted.Heartbeat.InitialInterval = ref.VirtualWall / float64(cfg.Steps)
	adaptive := cfg.Policy == "adaptive"
	if adaptive {
		// The flag gives a per-node MTBF; the controller's prior is the
		// cluster-level rate (any of the Procs workers failing).
		faulted.Adapt = &policy.Config{PriorMTBFS: cfg.MTBFHours * 3600 / float64(cfg.Procs)}
	}
	if cfg.CkptDir != "" {
		store, serr := ckpt.NewDirStore(cfg.CkptDir)
		if serr != nil {
			return nil, serr
		}
		faulted.Store, faulted.Kind = store, cfg.Solver
	}
	got, err := supervisor.Run(faulted)
	if err != nil {
		return nil, fmt.Errorf("bench: supervised faulted run: %w", err)
	}

	// Equal trajectories give equal per-rank state bytes.
	identical := slices.EqualFunc(ref.FinalStates, got.FinalStates, bytes.Equal)

	tbl := report.NewTable(
		fmt.Sprintf("Supervise: self-healing runtime — %s, %s, P=%d +%d spares, %d steps, ckpt every %d [%s]",
			cfg.Machine, cfg.Solver, cfg.Procs, cfg.Spares, cfg.Steps, cfg.CheckpointEvery,
			strings.Join(faults, "; ")),
		"run", "attempts", "failures handled", "steps computed", "virtual wall (s)", "bit-identical")
	tbl.AddRow("supervised reference", fmt.Sprintf("%d", ref.Attempts), "0",
		fmt.Sprintf("%d", ref.StepsComputed), fmt.Sprintf("%.4g", ref.VirtualWall), "—")
	var handled []string
	for _, f := range got.Failures {
		entry := fmt.Sprintf("rank %d %s@%.3gs", f.Rank, f.Cause, f.DetectedAt)
		if f.NewNode >= 0 {
			entry += fmt.Sprintf("->node %d", f.NewNode)
		}
		handled = append(handled, entry)
	}
	tbl.AddRow("crash+freeze campaign", fmt.Sprintf("%d", got.Attempts),
		fmt.Sprintf("%d (%s)", len(got.Failures), strings.Join(handled, "; ")),
		fmt.Sprintf("%d", got.StepsComputed), fmt.Sprintf("%.4g", got.VirtualWall), yesNO(identical))
	if adaptive {
		// The policy end state, in the campaign row's shape: the cadence
		// and MTBF estimate the controllers converged to.
		tbl.AddRow("policy end state (adaptive)", "—", "—",
			fmt.Sprintf("ckpt every %d", got.FinalInterval),
			fmt.Sprintf("MTBF est %.3g", got.MTBFEstimateS), "—")
	}
	if !identical {
		return tbl, fmt.Errorf("bench: recovered trajectory is NOT bit-identical to the reference")
	}
	return tbl, nil
}

func superviseFlags(fs *flag.FlagSet, c *SuperviseConfig) {
	fs.StringVar(&c.Solver, "solver", c.Solver, "solver to supervise: "+strings.Join(workload.Names(), ", "))
	fs.IntVar(&c.Procs, "procs", c.Procs, "solver rank count (the solver's table entry says which counts decompose it)")
	fs.IntVar(&c.Spares, "spares", c.Spares, "hot-spare node count")
	fs.IntVar(&c.Steps, "steps", c.Steps, "solver steps")
	fs.StringVar(&c.CkptDir, "ckptdir", c.CkptDir, "back the faulted campaign's checkpoints with a durable on-disk store here (directory must start empty)")
	fs.StringVar(&c.Policy, "adapt", c.Policy, "resilience policy for the campaign: static (the default) or adaptive")
	fs.Float64Var(&c.MTBFHours, "mtbf", c.MTBFHours, "per-node MTBF prior in hours of virtual time (required by -adapt adaptive)")
}

// runSupervise prints the report even when the campaign fails its
// bit-identity audit, then returns that failure.
func runSupervise(cfg SuperviseConfig, w io.Writer) (any, error) {
	tbl, err := RunSupervise(cfg)
	if tbl != nil {
		tbl.Write(w)
	}
	return nil, err
}
