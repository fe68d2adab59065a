package bench

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"nektar/internal/cliutil"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/timing"
)

// Instrument is the per-run instrumentation the three table
// experiments accept.
type Instrument struct {
	// Trace, when set, receives the engine's per-step event stream for
	// the measured steps (every cell, all ranks interleaved).
	Trace *engine.Tracer

	tracePath string // -trace: the file instrumented opens Trace on
}

// flags registers -trace on fs.
func (in *Instrument) flags(fs *flag.FlagSet) {
	fs.StringVar(&in.tracePath, "trace", "", "write the engine's per-step JSONL event stream to this file")
}

// instrumented opens the -trace file, calls run and closes the file.
func (in *Instrument) instrumented(run func() error) error {
	tracer, closeTrace, err := cliutil.Tracer(in.tracePath)
	if err != nil {
		return err
	}
	in.Trace = tracer
	err = run()
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	return err
}

// Sweep is the machine x P grid Tables 2 and 3 share.
type Sweep struct {
	Steps    int // measured steps (after 1 warmup)
	Machines []string
	Procs    []int
	Instrument
}

// flags registers -machines and -procs next to the Instrument flags.
func (sw *Sweep) flags(fs *flag.FlagSet) {
	fs.Func("machines", "comma-separated machine list (default "+strings.Join(sw.Machines, ",")+")", func(s string) error {
		sw.Machines = strings.Split(s, ",")
		return nil
	})
	fs.Func("procs", "comma-separated processor counts (default "+strings.ReplaceAll(strings.Trim(fmt.Sprint(sw.Procs), "[]"), " ", ",")+")", func(s string) error {
		sw.Procs = nil
		for _, f := range strings.Split(s, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			sw.Procs = append(sw.Procs, p)
		}
		return nil
	})
	sw.Instrument.flags(fs)
}

// SweepCell is one (machine, P) cell: CPU and wall-clock seconds per
// step (max over ranks; negative renders as "n/a") and rank 0's
// per-stage split of both.
type SweepCell struct {
	Machine             string
	P                   int
	CPU, Wall           float64
	StageCPU, StageWall []float64
}

// cellSolver builds one rank's solver for the p-rank cell on mach.
type cellSolver func(mach *machine.Machine, p int, comm *mpi.Comm) (engine.Solver, error)

// run executes the grid. Cells beyond a machine's MaxProcs (or beyond
// maxProcs, when positive) are reported "n/a" like the paper. In every
// other cell each simulated rank builds its solver with newSolver,
// takes one warm-up step (order ramp, eager caches), and drives the
// measured steps through the engine loop between two barriers.
func (sw Sweep) run(maxProcs int, newSolver cellSolver) ([]SweepCell, error) {
	var out []SweepCell
	for _, name := range sw.Machines {
		mach, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, p := range sw.Procs {
			if p > mach.MaxProcs || (maxProcs > 0 && p > maxProcs) {
				out = append(out, SweepCell{Machine: name, P: p, CPU: -1, Wall: -1})
				continue
			}
			cell, err := sw.cell(mach, p, newSolver)
			if err != nil {
				return nil, fmt.Errorf("%s P=%d: %w", name, p, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// maxRanks is the largest rank count of a cell run(0, ...) would
// execute, 0 when it executes none.
func (sw Sweep) maxRanks() int {
	most := 0
	for _, name := range sw.Machines {
		mach, err := machine.ByName(name)
		if err != nil {
			continue // run reports the unknown machine
		}
		for _, p := range sw.Procs {
			if p <= mach.MaxProcs {
				most = max(most, p)
			}
		}
	}
	return most
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func (sw Sweep) cell(mach *machine.Machine, p int, newSolver cellSolver) (SweepCell, error) {
	res := SweepCell{Machine: mach.Name, P: p}
	_, _, err := simnet.Run(p, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := newSolver(mach, p, comm)
		if err != nil {
			panic(err)
		}
		ns.Step() // warmup
		comm.Barrier()
		cpu0, wall0 := comm.CPUTime(), comm.Wtime()
		st := ns.Stages()
		st.Reset()
		loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + sw.Steps,
			Rank: comm.Rank(), Watchdog: engine.Watchdog{Disabled: true},
			Trace: sw.Trace}
		if _, lerr := loop.Run(); lerr != nil {
			panic(lerr)
		}
		comm.Barrier()
		cpu1, wall1 := comm.CPUTime(), comm.Wtime()
		perStep := 1 / float64(sw.Steps)
		mx := comm.Allreduce([]float64{
			(cpu1 - cpu0) * perStep,
			(wall1 - wall0) * perStep,
		}, mpi.Max)
		if comm.Rank() == 0 {
			res.CPU, res.Wall = mx[0], mx[1]
			for si := range st.Priced {
				res.StageCPU = append(res.StageCPU, st.Priced[si]*perStep)
				res.StageWall = append(res.StageWall, st.Wall[si]*perStep)
			}
		}
	})
	return res, err
}

// sweepTable renders the "cpu/wall" per-step table: one row per
// processor count, one column per machine.
func sweepTable(title string, res []SweepCell, procs []int, machines []string) *report.Table {
	t := report.NewTable(title, append([]string{"P"}, machines...)...)
	for _, p := range procs {
		row := []string{fmt.Sprintf("%d", p)}
		for _, m := range machines {
			cell := "n/a"
			for _, r := range res {
				if r.Machine == m && r.P == p && r.CPU >= 0 {
					cell = fmt.Sprintf("%.2f/%.2f", r.CPU, r.Wall)
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// sweepPies renders the CPU and wall-clock stage percentages of the
// P-rank cell of each named machine, each block preceded by a blank
// line; cells the sweep did not run are skipped.
func sweepPies(label string, names []string, res []SweepCell, p int, machines ...string) string {
	var out strings.Builder
	for _, m := range machines {
		for _, r := range res {
			if r.Machine != m || r.P != p || r.CPU < 0 {
				continue
			}
			fmt.Fprintf(&out, "\n%s%s",
				report.PieBreakdown(fmt.Sprintf("%s CPU timing, %s, %d processors", label, m, p),
					names, timing.Percent(r.StageCPU)),
				report.PieBreakdown(fmt.Sprintf("%s wall-clock timing, %s, %d processors", label, m, p),
					names, timing.Percent(r.StageWall)))
		}
	}
	return out.String()
}
