package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/policy"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/supervisor"
)

// Faultbench: checkpoint interval vs cluster MTBF. The paper's
// production DNS burned ~250 CPU-hours per processor on commodity
// hardware, survivable only with restart files — which raises the
// engineering question this experiment answers: how often should a
// run checkpoint? Too rarely and a crash throws away hours; too often
// and the checkpoint I/O dominates. Young's first-order model prices
// the expected overhead of a checkpoint interval tau against a
// cluster MTBF theta as
//
//	overhead(tau) ~= delta/tau + tau/(2*theta)
//
// (delta = time to write one checkpoint), minimized at the classic
// tau_opt = sqrt(2*delta*theta). delta is measured, not assumed: a
// probe Nektar-F run on the simulated machine serializes real solver
// state and writes it through the simulated parallel-write cost model
// (ckpt.SimWriter) — node-local restart files by default, striped
// 1/P-th shards with Stripe — so the Young table prices the framed,
// compressed record plus any network traffic the write mode incurs.
// A second, measured experiment injects a seeded node crash into a
// supervised campaign (supervisor.Run, one hot spare), reporting the
// actual virtual-wall overhead of the crash-recovery round trip.

// FaultbenchConfig parametrizes the sweep.
type FaultbenchConfig struct {
	Machine          string
	Procs            int
	ProbeNt, ProbeNr int
	Order            int
	Steps            int // probe steps for the per-step wall measurement

	// DiskMBs prices checkpoint writes (local disk per node, as the
	// paper's clusters did; the Beowulf literature reports ~10-30 MB/s
	// commodity IDE disks in this era).
	DiskMBs float64
	// Stripe writes each checkpoint as striped 1/P-th shards through
	// the network instead of node-local restart files.
	Stripe bool
	// IntervalSteps are the checkpoint intervals to tabulate.
	IntervalSteps []int
	// MTBFHours are the per-node MTBF columns.
	MTBFHours []float64
	// StepsPerRun scales the probe per-step wall to a production run
	// length (the paper's runs were O(10^5) steps).
	StepsPerRun int
}

// PaperFaultbench is the default sweep: the paper's dual-PII Ethernet
// cluster at 8 ranks, with commodity-era disk and MTBF assumptions.
var PaperFaultbench = FaultbenchConfig{
	Machine: "RoadRunner-eth",
	Procs:   8,
	ProbeNt: 8, ProbeNr: 2,
	Order:         6,
	Steps:         2,
	DiskMBs:       20,
	IntervalSteps: []int{10, 30, 100, 300, 1000, 3000},
	MTBFHours:     []float64{24, 72, 168, 720},
	StepsPerRun:   100000,
}

// FaultbenchResult carries the measured probe quantities and the
// derived sweep.
type FaultbenchResult struct {
	Machine        string
	Procs          int
	WriteMode      string  // "local" or "striped"
	StepWallS      float64 // measured max per-step virtual wall
	CheckpointMB   float64 // measured max per-rank checkpoint size (raw)
	DeltaS         float64 // measured virtual write cost (ckpt.SimWriter)
	ClusterMTBFS   []float64
	OptimalTauS    []float64
	OptimalTauStep []int
}

// ValidateFaultbench checks a sweep configuration and returns an
// actionable error for each way the experiment cannot run.
func ValidateFaultbench(cfg FaultbenchConfig) error {
	if _, _, err := clusterFor(cfg.Machine, "nsf", cfg.Procs, 0); err != nil {
		return err
	}
	if cfg.DiskMBs <= 0 || math.IsNaN(cfg.DiskMBs) {
		return fmt.Errorf("bench: disk bandwidth %g MB/s must be positive — it prices the checkpoint writes", cfg.DiskMBs)
	}
	if len(cfg.IntervalSteps) == 0 {
		return fmt.Errorf("bench: need at least one checkpoint interval to tabulate")
	}
	for _, s := range cfg.IntervalSteps {
		if s < 1 {
			return fmt.Errorf("bench: checkpoint interval %d must be at least one step", s)
		}
	}
	if len(cfg.MTBFHours) == 0 {
		return fmt.Errorf("bench: need at least one MTBF column")
	}
	for _, h := range cfg.MTBFHours {
		if h <= 0 || math.IsNaN(h) {
			return fmt.Errorf("bench: node MTBF %g hours must be positive", h)
		}
	}
	if cfg.Steps < 1 {
		return fmt.Errorf("bench: the probe needs at least one step, got %d", cfg.Steps)
	}
	return nil
}

// RunFaultbench measures the probe quantities on the simulated
// machine and derives the Young sweep.
func RunFaultbench(cfg FaultbenchConfig) (*FaultbenchResult, *report.Table, error) {
	if err := ValidateFaultbench(cfg); err != nil {
		return nil, nil, err
	}
	mach, err := machine.ByName(cfg.Machine)
	if err != nil {
		return nil, nil, err
	}
	mode := ckpt.WriteLocal
	if cfg.Stripe {
		mode = ckpt.WriteStriped
	}
	res := &FaultbenchResult{Machine: cfg.Machine, Procs: cfg.Procs, WriteMode: mode.String()}

	wallPerStep, ckptBytes, deltaS, err := probeCheckpointCost(mach, cfg.Procs, cfg.Steps, "nsf", cfg.DiskMBs, mode,
		nsfProbe(mach, cfg.Order, cfg.ProbeNt, cfg.ProbeNr))
	if err != nil {
		return nil, nil, err
	}
	res.StepWallS = wallPerStep
	res.CheckpointMB = ckptBytes / 1e6
	res.DeltaS = deltaS

	// Young sweep: rows = checkpoint interval, columns = node MTBF.
	cols := []string{"ckpt interval (steps / s)"}
	for _, h := range cfg.MTBFHours {
		theta := h * 3600 / float64(cfg.Procs) // cluster MTBF
		res.ClusterMTBFS = append(res.ClusterMTBFS, theta)
		cols = append(cols, fmt.Sprintf("node MTBF %gh", h))
	}
	title := fmt.Sprintf(
		"Faultbench: expected overhead (%% of run), Young's model — %s, P=%d, measured delta=%.3gs (%s write, %.2f MB raw @ %g MB/s disk), step=%.3gs",
		cfg.Machine, cfg.Procs, res.DeltaS, res.WriteMode, res.CheckpointMB, cfg.DiskMBs, res.StepWallS)
	tbl := report.NewTable(title, cols...)
	for _, steps := range cfg.IntervalSteps {
		tau := float64(steps) * res.StepWallS
		row := []string{fmt.Sprintf("%d / %.3g", steps, tau)}
		for _, theta := range res.ClusterMTBFS {
			row = append(row, fmt.Sprintf("%.3f%%", 100*policy.YoungOverhead(res.DeltaS, tau, theta)))
		}
		tbl.AddRow(row...)
	}
	// Final row: the analytic optimum per column.
	optRow := []string{"tau_opt = sqrt(2*delta*theta)"}
	for _, theta := range res.ClusterMTBFS {
		tauOpt := policy.YoungInterval(res.DeltaS, theta)
		stepsOpt := int(tauOpt/res.StepWallS + 0.5)
		res.OptimalTauS = append(res.OptimalTauS, tauOpt)
		res.OptimalTauStep = append(res.OptimalTauStep, stepsOpt)
		optRow = append(optRow, fmt.Sprintf("%d steps (%.3f%%)",
			stepsOpt, 100*policy.YoungOverhead(res.DeltaS, tauOpt, theta)))
	}
	tbl.AddRow(optRow...)
	return res, tbl, nil
}

// probeCheckpointCost runs a real solver on procs ranks of the priced
// machine — one warm-up step, then steps measured ones — and writes
// its final state through the simulated parallel-write cost model, so
// framing, compression and (striped) the all-to-all shard exchange are
// all priced. It returns, max over ranks, the per-step virtual wall,
// the raw state size in bytes, and one checkpoint's write cost.
func probeCheckpointCost(mach *machine.Machine, procs, steps int, kind string, diskMBs float64, mode ckpt.WriteMode,
	newSolver rankSolver) (stepWallS, stateBytes, deltaS float64, err error) {
	_, _, err = simnet.Run(procs, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, serr := newSolver(comm)
		if serr != nil {
			panic(serr)
		}
		s.Step() // warmup
		comm.Barrier()
		w0 := comm.Wtime()
		loop := engine.Loop{Solver: s, Steps: s.StepCount() + steps,
			Rank: comm.Rank(), Watchdog: engine.Watchdog{Disabled: true}}
		lres, lerr := loop.Run()
		if lerr != nil {
			panic(lerr)
		}
		comm.Barrier()
		perStep := (comm.Wtime() - w0) / float64(steps)
		sw := &ckpt.SimWriter{Kind: kind, Comm: comm, DiskMBs: diskMBs, Mode: mode}
		if werr := sw.Submit(s.StepCount(), lres.Final, true); werr != nil {
			panic(werr)
		}
		mx := comm.Allreduce([]float64{perStep, float64(len(lres.Final)), sw.LastCostS()}, mpi.Max)
		if comm.Rank() == 0 {
			stepWallS, stateBytes, deltaS = mx[0], mx[1], mx[2]
		}
	})
	return stepWallS, stateBytes, deltaS, err
}

// RunFaultbenchRecovery runs the measured counterpart on a small
// cluster: a fault-free supervised Nektar-F reference, then the same
// campaign with a seeded node crash that the supervisor detects, moves
// onto the hot spare and recovers from checkpoints, reporting the
// actual virtual wall-clock overhead. It fails unless the recovered
// trajectory is bit-identical to the reference.
func RunFaultbenchRecovery(cfg FaultbenchConfig, seed int64) (*report.Table, error) {
	mach, err := machine.ByName(cfg.Machine)
	if err != nil {
		return nil, err
	}
	procs := cfg.Procs
	if procs > 4 {
		procs = 4 // the measured demo stays small
	}
	const steps, every = 12, 3
	sup := supervisedConfig(mach, nsfProbe(mach, cfg.Order, cfg.ProbeNt, cfg.ProbeNr), procs, 1, steps)
	sup.CheckpointEvery = every
	ref, err := supervisor.Run(sup)
	if err != nil {
		return nil, err
	}
	sup.CheckpointCostS = ref.VirtualWall / steps // order-of-step checkpoint cost
	ref2, err := supervisor.Run(sup)
	if err != nil {
		return nil, err
	}

	sup.Faults = fault.NewPlan(seed).Crash(procs-1, 0.45*ref2.VirtualWall)
	sup.Heartbeat.InitialInterval = ref2.VirtualWall / steps
	got, err := supervisor.Run(sup)
	if err != nil {
		return nil, err
	}
	identical := slices.EqualFunc(ref.FinalStates, got.FinalStates, bytes.Equal)

	tbl := report.NewTable(
		fmt.Sprintf("Faultbench: measured crash recovery — %s, P=%d +1 spare, %d steps, checkpoint every %d",
			cfg.Machine, procs, steps, every),
		"run", "attempts", "steps computed", "virtual wall (s)", "overhead", "bit-identical")
	row := func(name string, r *supervisor.Result, overhead, verdict string) {
		tbl.AddRow(name, fmt.Sprintf("%d", r.Attempts), fmt.Sprintf("%d", r.StepsComputed),
			fmt.Sprintf("%.4g", r.VirtualWall), overhead, verdict)
	}
	overhead := func(r *supervisor.Result) string {
		return fmt.Sprintf("%.1f%%", 100*(r.VirtualWall/ref.VirtualWall-1))
	}
	row("fault-free (no ckpt cost)", ref, "—", "—")
	row("fault-free (ckpt cost)", ref2, overhead(ref2), "—")
	row("node crash + recovery", got, overhead(got), yesNO(identical))
	if !identical {
		return tbl, fmt.Errorf("bench: recovered trajectory is NOT bit-identical to the reference")
	}
	return tbl, nil
}

func faultbenchFlags(fs *flag.FlagSet, c *FaultbenchConfig) {
	fs.BoolVar(&c.Stripe, "stripe", c.Stripe, "price checkpoints as striped 1/P-th shards exchanged over the interconnect instead of node-local files")
}

func runFaultbench(cfg FaultbenchConfig, w io.Writer) (any, error) {
	_, tbl, err := RunFaultbench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	demo, err := RunFaultbenchRecovery(cfg, 1)
	if demo != nil {
		fmt.Fprintln(w)
		demo.Write(w)
	}
	return nil, err
}
