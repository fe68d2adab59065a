package bench

import (
	"fmt"
	"io"
	"slices"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/workload"
)

// Scalebench: project the paper's weak/strong scaling tables past the
// machines it could buy. Each cell runs a synthetic spectral-element
// communication skeleton — per-step local compute, a ring halo
// exchange, and one Allreduce (the pressure-solve dot products) — on a
// calibrated interconnect model at processor counts up to 1024. The
// skeleton is pure simnet: no solver state, so the virtual-time tables
// measure the network model, and the host cost stays low enough for
// P=1024 sweeps. Every cell is virtual time under the default (serial)
// scheduler, so the sweep is exact and repeats byte for byte.
//
// Weak scaling holds the per-rank work and halo fixed (the paper's
// two-planes-per-processor Nektar-F setup); strong scaling divides a
// fixed total problem across ranks. Both report virtual seconds per
// step and the efficiency against the sweep's smallest rank count.

// ScalebenchConfig parametrizes the sweep.
type ScalebenchConfig struct {
	Machines []string
	Procs    []int // ascending; the first entry is the efficiency baseline
	Steps    int

	// Workloads selects the cell bodies. "skeleton" is the synthetic
	// halo+allreduce shape above; an internal/workload table name
	// ("turb2d", "turbforce": the slab-decomposed pseudospectral
	// solvers) runs that solver live under the swept machine's CPU and
	// network models. Empty means skeleton only.
	Workloads []string
	// SolverProcs is the rank-count list for the solver workloads; the
	// skeleton keeps Procs. Solver cells size their grid from the rank
	// count — weak scaling runs N = 2P (the paper's two-planes-per-
	// processor setup: each rank owns two ky rows of a growing grid),
	// strong scaling runs N = 2*max(SolverProcs) divided ever thinner.
	// Every P here must divide both N and the padded grid 3N/2, which
	// P = powers of two >= 4 satisfy for both sizings. Kept separate
	// from Procs because a P=1024 live solver run is a host-memory
	// wall the skeleton does not have.
	SolverProcs []int

	// HaloElems is the per-rank halo payload in float64 elements at the
	// baseline rank count (weak: constant per rank; strong: scaled down
	// with 1/P from the baseline).
	HaloElems int
	// ComputeS is the per-rank compute time per step at the baseline
	// rank count, in virtual seconds (weak: constant; strong: 1/P).
	ComputeS float64
}

// PaperScalebench is the committed capacity sweep: the PMS Fast
// Ethernet and the Tanaka kernel-bypass GbE models from P=64 to
// P=1024.
var PaperScalebench = ScalebenchConfig{
	Machines:  []string{"PMS", "Tanaka"},
	Procs:     []int{64, 256, 1024},
	Steps:     2,
	HaloElems: 4096, // 32 KB: rendezvous on both fabrics
	ComputeS:  2e-4,
	Workloads: []string{"skeleton", "turb2d", "turbforce"},
	// 1024 live solver ranks is a host-memory wall (ROADMAP); the real
	// solvers sweep to 256 and the skeleton carries the 1024 column.
	SolverProcs: []int{64, 256},
}

// QuickScalebench is the test-sized variant.
var QuickScalebench = ScalebenchConfig{
	Machines:  []string{"PMS", "Tanaka"},
	Procs:     []int{8, 16},
	Steps:     2,
	HaloElems: 512,
	ComputeS:  1e-4,
}

// ScaleCellResult is one machine x workload x P x mode measurement.
type ScaleCellResult struct {
	Machine  string
	Workload string // "skeleton" | "turb2d" | "turbforce"
	Procs    int
	Mode     string // "weak" | "strong"
	GridN    int    // solver grid size (0 for the skeleton)

	StepVirtualS float64 // max per-rank virtual wall seconds per step
	// Efficiency is T_base/T for weak scaling and T_base*(P_base/P)/T
	// for strong scaling, both against the sweep's smallest P.
	Efficiency float64
}

// ScalebenchResult is the sweep behind experiments/scalebench.txt.
type ScalebenchResult struct {
	Steps int
	Cells []ScaleCellResult
}

// scaleBody returns the communication skeleton for one cell.
func scaleBody(cfg *ScalebenchConfig, p int, weak bool) func(*simnet.Node) {
	compute := cfg.ComputeS
	elems := cfg.HaloElems
	if !weak {
		base := cfg.Procs[0]
		compute = cfg.ComputeS * float64(base) / float64(p)
		elems = cfg.HaloElems * base / p
		if elems < 16 {
			elems = 16
		}
	}
	steps := cfg.Steps
	return func(n *simnet.Node) {
		comm := mpi.World(n)
		halo := make([]float64, elems)
		next := (n.Rank + 1) % p
		prev := (n.Rank + p - 1) % p
		for s := 0; s < steps; s++ {
			comm.Compute(compute)
			comm.Sendrecv(next, 1000+s, halo, prev, 1000+s)
			comm.Allreduce([]float64{float64(n.Rank)}, mpi.Sum)
		}
	}
}

// solverGridN sizes a real-solver cell's grid from the rank count:
// weak scaling keeps two ky rows per rank (N = 2P); strong scaling
// fixes N at two rows per rank of the sweep's largest count.
func solverGridN(solverProcs []int, p int, weak bool) int {
	if weak {
		return 2 * p
	}
	return 2 * slices.Max(solverProcs)
}

// solverParams is the problem one solver cell runs: the entry's
// default at grid n, with the largest forcing band every swept grid
// admits (the smallest weak-scaling grids cannot hold turbforce's
// default [3, 5]: hi must stay <= N/3).
func solverParams(wl workload.Entry, n int) workload.Params {
	p := wl.Default
	p.Seed, p.N = 11, n
	p.ForceLo, p.ForceHi = 1, min(5, n/3)
	return p
}

// runScaleCell runs one machine x workload x P x mode cell and returns
// the virtual step time and the solver grid (0 for the skeleton). A
// solver cell is the live solver — for the spectral entries the full
// slab pipeline: transforms, distributed transposes, priced local
// compute — under the swept machine's CPU model.
func runScaleCell(cfg *ScalebenchConfig, mach *machine.Machine, name string, p int, weak bool) (stepVirtualS float64, gridN int, err error) {
	if p > mach.MaxProcs {
		return 0, 0, fmt.Errorf("bench: scalebench %s: P=%d exceeds MaxProcs=%d", mach.Name, p, mach.MaxProcs)
	}
	body := scaleBody(cfg, p, weak)
	if name != "skeleton" {
		gridN = solverGridN(cfg.SolverProcs, p, weak)
		wl, err := workload.ByName(name, "skeleton")
		if err != nil {
			return 0, 0, err
		}
		params := solverParams(wl, gridN)
		if err := wl.Check(params, p); err != nil {
			return 0, 0, err
		}
		body = func(nd *simnet.Node) {
			s, err := wl.New(params, mpi.World(nd), &mach.CPU)
			if err != nil {
				panic(err)
			}
			for i := 0; i < cfg.Steps; i++ {
				s.Step()
			}
		}
	}
	wall, _, err := simnet.Run(p, mach.Net, body)
	if err != nil {
		return 0, 0, err
	}
	return slices.Max(wall) / float64(cfg.Steps), gridN, nil
}

// RunScalebench executes the sweep and renders the weak/strong tables.
func RunScalebench(cfg ScalebenchConfig) (*ScalebenchResult, *report.Table, error) {
	if len(cfg.Procs) == 0 {
		return nil, nil, fmt.Errorf("bench: scalebench: empty processor list")
	}
	if cfg.Steps < 1 {
		return nil, nil, fmt.Errorf("bench: scalebench: Steps = %d, need at least one step per cell", cfg.Steps)
	}
	workloads := cfg.Workloads
	if len(workloads) == 0 {
		workloads = []string{"skeleton"}
	}
	for _, name := range workloads {
		if _, err := workload.ByName(name, "skeleton"); name != "skeleton" && err != nil {
			return nil, nil, fmt.Errorf("bench: scalebench: %w", err)
		}
	}
	res := &ScalebenchResult{Steps: cfg.Steps}
	for _, name := range cfg.Machines {
		mach, err := machine.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		for _, wlName := range workloads {
			procs := cfg.Procs
			if wlName != "skeleton" {
				if procs = cfg.SolverProcs; len(procs) == 0 {
					return nil, nil, fmt.Errorf("bench: scalebench: workload %q needs SolverProcs", wlName)
				}
			}
			for _, mode := range []string{"weak", "strong"} {
				weak := mode == "weak"
				var baseStep float64
				for i, p := range procs {
					stepS, gridN, err := runScaleCell(&cfg, mach, wlName, p, weak)
					if err != nil {
						return nil, nil, fmt.Errorf("bench: scalebench %s %s %s P=%d: %w", name, wlName, mode, p, err)
					}
					if i == 0 {
						baseStep = stepS
					}
					eff := baseStep / stepS
					if !weak {
						eff *= float64(procs[0]) / float64(p)
					}
					res.Cells = append(res.Cells, ScaleCellResult{
						Machine: name, Workload: wlName, Procs: p, Mode: mode,
						GridN: gridN, StepVirtualS: stepS, Efficiency: eff,
					})
				}
			}
		}
	}
	tbl := report.NewTable(
		fmt.Sprintf("Scalebench: capacity sweep, virtual s/step (%d steps)", res.Steps),
		"machine", "workload", "mode", "P", "grid N", "virtual s/step", "efficiency")
	for _, c := range res.Cells {
		grid := "-"
		if c.GridN > 0 {
			grid = fmt.Sprintf("%d", c.GridN)
		}
		tbl.AddRow(c.Machine, c.Workload, c.Mode, fmt.Sprintf("%d", c.Procs), grid,
			fmt.Sprintf("%.6f", c.StepVirtualS), fmt.Sprintf("%.2f", c.Efficiency))
	}
	return res, tbl, nil
}

func runScalebench(cfg ScalebenchConfig, w io.Writer) (any, error) {
	_, tbl, err := RunScalebench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	return nil, nil
}
