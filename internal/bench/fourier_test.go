package bench

import (
	"testing"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/workload"
)

// nsfCellRun is what one Table 2 cell leaves per rank: the virtual
// wall and CPU clocks, the priced and wall seconds of every stage over
// the measured steps, and the final velocity field.
type nsfCellRun struct {
	wall, cpu         []float64
	priced, stageWall [][]float64
	u                 [][3][2][]float64
}

func runNSFCell(t *testing.T, mach *machine.Machine, p, steps int, sc *core.Scale,
	mk func(comm *mpi.Comm) (engine.Solver, error)) nsfCellRun {
	t.Helper()
	r := nsfCellRun{priced: make([][]float64, p), stageWall: make([][]float64, p), u: make([][3][2][]float64, p)}
	var err error
	r.wall, r.cpu, err = simnet.Run(p, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := mk(comm)
		if err != nil {
			panic(err)
		}
		ns := s.(*core.NSF)
		ns.SetScale(sc)
		ns.Step()
		comm.Barrier()
		ns.Stages().Reset()
		for i := 0; i < steps; i++ {
			ns.Step()
		}
		comm.Barrier()
		st := ns.Stages()
		r.priced[n.Rank] = append([]float64(nil), st.Priced...)
		r.stageWall[n.Rank] = append([]float64(nil), st.Wall...)
		r.u[n.Rank] = ns.U
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFourierSharedOperatorsMatchFresh: a Table 2 cell whose ranks
// read the sweep's shared operator table runs exactly as one whose
// ranks each build their own — same per-rank virtual clocks, stage
// sums and fields — and a second cell on the same table, after the
// first has stepped, does too: ranks leave nothing behind in it.
func TestFourierSharedOperatorsMatchFresh(t *testing.T) {
	const order, nt, nr, p, steps = 5, 8, 2, 4, 2
	mach, err := machine.ByName("RoadRunner-eth")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := gatherSolveStats(nt, nr, order)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := gatherSolveStats(12, 3, order)
	if err != nil {
		t.Fatal(err)
	}
	sc := fourierScale(&mach.CPU, probe, paper)
	params := workload.Params{N: nt, Nr: nr, Order: order}
	ops, err := workload.NSFOperators(params, seq(p)...)
	if err != nil {
		t.Fatal(err)
	}
	fresh := runNSFCell(t, mach, p, steps, sc, func(comm *mpi.Comm) (engine.Solver, error) {
		return tableEntry("nsf").New(params, comm, &mach.CPU)
	})
	for pass := 1; pass <= 2; pass++ {
		shared := runNSFCell(t, mach, p, steps, sc, func(comm *mpi.Comm) (engine.Solver, error) {
			return workload.NSFRank(ops, comm, &mach.CPU)
		})
		if !equalFloats(shared.wall, fresh.wall) || !equalFloats(shared.cpu, fresh.cpu) {
			t.Fatalf("cell %d on shared operators: clocks wall %v cpu %v, freshly built wall %v cpu %v",
				pass, shared.wall, shared.cpu, fresh.wall, fresh.cpu)
		}
		for rank := 0; rank < p; rank++ {
			if !equalFloats(shared.priced[rank], fresh.priced[rank]) || !equalFloats(shared.stageWall[rank], fresh.stageWall[rank]) {
				t.Fatalf("cell %d rank %d: stage sums priced %v wall %v, freshly built priced %v wall %v", pass, rank,
					shared.priced[rank], shared.stageWall[rank], fresh.priced[rank], fresh.stageWall[rank])
			}
			for c := range fresh.u[rank] {
				for part := range fresh.u[rank][c] {
					if !equalFloats(shared.u[rank][c][part], fresh.u[rank][c][part]) {
						t.Fatalf("cell %d rank %d: velocity component %d part %d differs from the freshly built run", pass, rank, c, part)
					}
				}
			}
		}
	}
}
