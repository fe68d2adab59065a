package bench

import (
	"flag"
	"fmt"
	"io"

	"nektar/internal/blas"
	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/solver"
	"nektar/internal/workload"
)

// FourierConfig parametrizes the Table 2 / Figures 13-14 experiment:
// weak-scaling Nektar-F runs (two Fourier planes per processor) of the
// bluff-body DNS on the simulated clusters.
//
// The solver runs for real at probe scale on every simulated rank; the
// compute pricing and message sizes are extrapolated to the paper
// scale through core.Scale (element-count ratios for the
// element-proportional stages, condensed-solve cost formulas for the
// solve stages).
type FourierConfig struct {
	ProbeNt, ProbeNr int
	PaperNt, PaperNr int
	Order            int
	Sweep
}

// PaperFourier is the paper's Table 2 setup.
var PaperFourier = FourierConfig{
	ProbeNt: 8, ProbeNr: 2,
	PaperNt: 82, PaperNr: 11,
	Order: 8,
	Sweep: Sweep{
		Steps: 2,
		Machines: []string{
			"AP3000", "NCSA", "SP2-Silver", "SP2-Thin2",
			"RoadRunner-eth", "RoadRunner-myr", "Muses",
		},
		Procs: []int{2, 4, 8, 16, 32, 64, 128},
	},
}

// solveStats is what the extrapolation reads of a mesh: its element
// count and the condensed-solve operation counts of its velocity and
// pressure systems.
type solveStats struct {
	elems                 float64
	velCounts, presCounts blas.Counts
}

func gatherSolveStats(nt, nr, order int) (*solveStats, error) {
	m, err := mesh.BluffBody(order, nt, nr)
	if err != nil {
		return nil, err
	}
	vel, pres := workload.BluffBCs()
	isVelD := func(tag string) bool { _, ok := vel[tag]; return ok }
	isPresD := func(tag string) bool { return pres[tag] }
	ref := m.Elems[0].Ref
	counts := func(a *mesh.Assembly) blas.Counts {
		nb, kd := solver.SchurStats(a)
		return solver.CondensedSolveCounts(nb, kd, len(m.Elems), ref.NModes-ref.NBnd, ref.NBnd)
	}
	return &solveStats{
		elems:      float64(len(m.Elems)),
		velCounts:  counts(mesh.NewAssembly(m, isVelD)),
		presCounts: counts(mesh.NewAssembly(m, isPresD)),
	}, nil
}

// fourierScale derives the per-stage extrapolation multipliers for a
// machine.
func fourierScale(cpu *machine.CPU, probe, paper *solveStats) *core.Scale {
	elemRatio := paper.elems / probe.elems
	sc := &core.Scale{Comm: elemRatio}
	for i := range sc.Stage {
		sc.Stage[i] = elemRatio
	}
	// Solve stages: price the condensed solve formulas at both scales.
	presRatio := cpu.ApplicationSeconds(&paper.presCounts) / cpu.ApplicationSeconds(&probe.presCounts)
	velRatio := cpu.ApplicationSeconds(&paper.velCounts) / cpu.ApplicationSeconds(&probe.velCounts)
	sc.Stage[4] = presRatio
	sc.Stage[6] = velRatio
	return sc
}

// RunFourier executes the Table 2 sweep.
func RunFourier(cfg FourierConfig) ([]SweepCell, error) {
	probe, err := gatherSolveStats(cfg.ProbeNt, cfg.ProbeNr, cfg.Order)
	if err != nil {
		return nil, err
	}
	paper, err := gatherSolveStats(cfg.PaperNt, cfg.PaperNr, cfg.Order)
	if err != nil {
		return nil, err
	}
	// Rank r of every cell holds Fourier mode r, and its operators
	// depend on nothing else, so the sweep factors each mode once and
	// every cell reads the same table; it goes when the sweep returns.
	ops, err := workload.NSFOperators(workload.Params{N: cfg.ProbeNt, Nr: cfg.ProbeNr, Order: cfg.Order},
		seq(cfg.Sweep.maxRanks())...)
	if err != nil {
		return nil, err
	}
	return cfg.Sweep.run(0, func(mach *machine.Machine, p int, comm *mpi.Comm) (engine.Solver, error) {
		ns, err := workload.NSFRank(ops, comm, &mach.CPU)
		if err != nil {
			return nil, err
		}
		ns.(*core.NSF).SetScale(fourierScale(&mach.CPU, probe, paper))
		return ns, nil
	})
}

// Table2 renders the Table 2 report: CPU/wall-clock per step for each
// machine and processor count.
func Table2(res []SweepCell, procs []int, machines []string) *report.Table {
	return sweepTable("Table 2: Nektar-F CPU/Wall clock time per step (s), bluff body, 2 Fourier planes per processor",
		res, procs, machines)
}

// Figs1314 renders the Figures 13-14 stage breakdowns (CPU and
// wall-clock percentages) of the four P=4 cells the paper shows.
func Figs1314(res []SweepCell) string {
	return sweepPies("Figures 13-14: Nektar-F", core.StageNames, res, 4,
		"NCSA", "SP2-Silver", "RoadRunner-eth", "RoadRunner-myr")
}

func fourierFlags(fs *flag.FlagSet, c *FourierConfig) {
	fs.IntVar(&c.Steps, "steps", c.Steps, "measured steps")
	c.Sweep.flags(fs)
}

func runTable2(cfg FourierConfig, w io.Writer) (any, error) {
	return nil, cfg.instrumented(func() error {
		res, err := RunFourier(cfg)
		if err != nil {
			return err
		}
		Table2(res, cfg.Procs, cfg.Machines).Write(w)
		fmt.Fprint(w, Figs1314(res))
		return nil
	})
}
