package bench

import (
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
)

// Simbench: what does the host-parallel simnet scheduler buy? Each
// cell runs one registered workload at one rank count twice — once
// under the serial one-rank-at-a-time scheduler, once under the
// conservative parallel scheduler — and records real host wall-clock
// for both. The two runs must agree bit-for-bit on every rank's
// virtual wall and cpu clock (the parallel scheduler's contract); a
// divergence fails the bench rather than producing a number for a
// broken scheduler.
//
// The speedup is bounded by the host's core count: rank host work
// (mesh build, operator factorization, the solver flops that drive
// calibrated virtual time) overlaps, while shared-state events still
// admit one at a time, which is why the registry marks this experiment
// NeedsCores: `repro -record` refuses to write it from a starved host.

// SimbenchCell names one workload x rank-count measurement.
type SimbenchCell struct {
	Workload string
	Procs    int
}

// SimbenchConfig parametrizes the sweep.
type SimbenchConfig struct {
	Cells []SimbenchCell
	// Steps per run (after construction; kept small — the scheduler
	// comparison needs overlap, not convergence).
	Steps int

	// Scale appends the Capacity sweep (scalebench.go) and records it
	// under Scale in the result.
	Scale    bool
	Capacity ScalebenchConfig
}

// PaperSimbench covers the tentpole's target cells: Nektar-F at the
// paper's small/mid/large processor counts and Nektar-ALE at two.
var PaperSimbench = SimbenchConfig{
	Cells: []SimbenchCell{
		{"nsf", 8}, {"nsf", 32}, {"nsf", 128},
		{"nsale", 16}, {"nsale", 64},
	},
	Steps:    2,
	Capacity: PaperScalebench,
}

// QuickSimbench is the budget-limited registry variant.
var QuickSimbench = SimbenchConfig{
	Cells:    []SimbenchCell{{"nsf", 8}, {"nsale", 16}},
	Steps:    2,
	Capacity: QuickScalebench,
}

// SimbenchCellResult is one measured cell.
type SimbenchCellResult struct {
	Workload string
	Procs    int

	SerialHostS   float64 // real host seconds, serial scheduler
	ParallelHostS float64 // real host seconds, parallel scheduler
	Speedup       float64 // SerialHostS / ParallelHostS

	// VirtualWallS is the max per-rank virtual wall clock — identical
	// between the two runs by construction (verified).
	VirtualWallS float64
}

// SimbenchResult is the schema of BENCH_simnet.json.
type SimbenchResult struct {
	// GoMaxProcs and NumCPU qualify every speedup below: the parallel
	// scheduler cannot beat the core budget it ran with.
	GoMaxProcs int
	NumCPU     int
	Steps      int
	Cells      []SimbenchCellResult

	// Scale, when present, is the relaxed-scheduler capacity sweep
	// (PMS/Tanaka interconnect models at P=64..1024) recorded alongside
	// the scheduler-speedup cells.
	Scale *ScalebenchResult `json:",omitempty"`
}

// timedRun runs body on p ranks of mach under one scheduler and
// returns the per-rank virtual clocks plus the real host seconds the
// run took.
func timedRun(mach *machine.Machine, sched simnet.Scheduler, p int, body func(*simnet.Node)) (wall, cpu []float64, hostS float64, err error) {
	model := *mach.Net
	model.Scheduler = sched
	t0 := time.Now()
	wall, cpu, err = simnet.Run(p, &model, body)
	return wall, cpu, time.Since(t0).Seconds(), err
}

// runSimbenchOnce runs one workload x procs cell under one scheduler.
func runSimbenchOnce(wl Workload, p, steps int, sched simnet.Scheduler) (wall, cpu []float64, hostS float64, err error) {
	mach := machine.Muses()
	return timedRun(mach, sched, p, func(n *simnet.Node) {
		s, err := wl.New(mpi.World(n), &mach.CPU)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
	})
}

// RunSimbench executes the sweep and renders the comparison table.
func RunSimbench(cfg SimbenchConfig) (*SimbenchResult, *report.Table, error) {
	res := &SimbenchResult{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Steps:      cfg.Steps,
	}
	for _, cell := range cfg.Cells {
		wl, err := WorkloadByName(cell.Workload)
		if err != nil {
			return nil, nil, err
		}
		if err := ValidateWorkloadRanks(wl, cell.Procs); err != nil {
			return nil, nil, err
		}
		wallS, cpuS, serialS, err := runSimbenchOnce(wl, cell.Procs, cfg.Steps, simnet.SchedSerial)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: simbench %s P=%d serial: %w", cell.Workload, cell.Procs, err)
		}
		wallP, cpuP, parS, err := runSimbenchOnce(wl, cell.Procs, cfg.Steps, simnet.SchedParallel)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: simbench %s P=%d parallel: %w", cell.Workload, cell.Procs, err)
		}
		// The contract the speedup is worthless without.
		for r := 0; r < cell.Procs; r++ {
			if math.Float64bits(wallS[r]) != math.Float64bits(wallP[r]) ||
				math.Float64bits(cpuS[r]) != math.Float64bits(cpuP[r]) {
				return nil, nil, fmt.Errorf(
					"bench: simbench %s P=%d: virtual clocks diverged between schedulers at rank %d (wall %v vs %v, cpu %v vs %v)",
					cell.Workload, cell.Procs, r, wallS[r], wallP[r], cpuS[r], cpuP[r])
			}
		}
		res.Cells = append(res.Cells, SimbenchCellResult{
			Workload:      cell.Workload,
			Procs:         cell.Procs,
			SerialHostS:   serialS,
			ParallelHostS: parS,
			Speedup:       serialS / parS,
			VirtualWallS:  slices.Max(wallS),
		})
	}

	tbl := report.NewTable(
		fmt.Sprintf("Simbench: host wall-clock, serial vs parallel simnet scheduler (GOMAXPROCS=%d, host cores=%d, %d steps)",
			res.GoMaxProcs, res.NumCPU, res.Steps),
		"workload", "P", "serial host s", "parallel host s", "speedup", "virtual wall s")
	for _, c := range res.Cells {
		tbl.AddRow(c.Workload, fmt.Sprintf("%d", c.Procs),
			fmt.Sprintf("%.3f", c.SerialHostS), fmt.Sprintf("%.3f", c.ParallelHostS),
			fmt.Sprintf("%.2fx", c.Speedup), fmt.Sprintf("%.4f", c.VirtualWallS))
	}
	return res, tbl, nil
}

func simbenchFlags(fs *flag.FlagSet, c *SimbenchConfig) {
	fs.BoolVar(&c.Scale, "scale", c.Scale, "also run the relaxed-scheduler capacity sweep (PMS/Tanaka models to P=1024)")
}

func runSimbench(cfg SimbenchConfig, w io.Writer) (any, error) {
	res, tbl, err := RunSimbench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	if cfg.Scale {
		scale, scaleTbl, err := RunScalebench(cfg.Capacity)
		if err != nil {
			return nil, err
		}
		res.Scale = scale
		fmt.Fprintln(w)
		scaleTbl.Write(w)
	}
	return res, nil
}
