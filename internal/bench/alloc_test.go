package bench

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"nektar/internal/core"
	"nektar/internal/gs"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/partition"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// Allocation pins for the small-message path, counted the way
// benchmark/ counts its memory windows: process-wide heap objects, read
// by rank 0 between two barriers with the collector off, after a
// warm-up has sized every kept buffer and filled the pools.

// allocsPerOp runs mk on p ranks of the Muses cluster, calls the op it
// returns ops times in each of warm uncounted rehearsals of the counted
// window and then ops times counted, and returns the heap objects the
// whole process allocated per counted op.
func allocsPerOp(t *testing.T, p, warm, ops int, mk func(comm *mpi.Comm, cpu *machine.CPU) func()) float64 {
	t.Helper()
	if raceDetector || os.Getenv(simnet.SchedulerEnv) != "" {
		t.Skip("allocation counts hold for the plain serial build only")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One processor, like the benchmark: sync.Pool keeps a cache per
	// processor, and a rank goroutine that migrates finds the other
	// one's cold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mach := machine.Muses()
	var before, after runtime.MemStats
	_, _, err := simnet.Run(p, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		// fence: rank 0 samples while every other rank waits at the
		// second barrier, so nothing else runs during the read.
		fence := func(ms *runtime.MemStats) {
			comm.Barrier()
			if n.Rank == 0 {
				runtime.ReadMemStats(ms)
			}
			comm.Barrier()
		}
		op := mk(comm, &mach.CPU)
		window := func() {
			for i := 0; i < ops; i++ {
				op()
			}
		}
		// The rehearsals run the counted window's traffic, fences
		// included, so the simulator's inbox queues, free lists and
		// message pool reach its high-water marks before it is counted.
		for i := 0; i < warm; i++ {
			fence(&before)
			window()
		}
		fence(&before)
		window()
		fence(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// quickALEMesh is the benchmark's quick ale_gs shape: a 6x1 wing
// section, one layer deep.
func quickALEMesh() (*mesh.Mesh, error) {
	m2, err := mesh.WingSection(2, 6, 1)
	if err != nil {
		return nil, err
	}
	return mesh.ExtrudeQuads(m2, 2, 1, 0, 1)
}

// aleBCs is the solver configuration on the quick mesh.
func aleBCs() core.ALEConfig {
	return core.ALEConfig{Nu: 0.05, Dt: 2e-3, Order: 2, FarfieldVel: [3]float64{1, 0, 0}}
}

func TestSlabStepAllocatesNothing(t *testing.T) {
	for _, sh := range []struct{ n, p int }{
		{64, 4}, // pairwise Alltoall
		{32, 8}, // 4-float blocks on 8 ranks: the Bruck side of AlgAuto
	} {
		got := allocsPerOp(t, sh.p, 3, 5, func(comm *mpi.Comm, cpu *machine.CPU) func() {
			s, err := spectral.NewTurb2D(spectral.Config{N: sh.n, Re: 500, Dt: 2e-3, Seed: 14}, comm, cpu)
			if err != nil {
				panic(err)
			}
			return s.Step
		})
		if got != 0 {
			t.Errorf("Turb2D N=%d P=%d: %.1f allocations a steady-state step, want 0", sh.n, sh.p, got)
		}
	}
}

func TestGatherScatterAllocatesNothing(t *testing.T) {
	const p = 4
	m, err := quickALEMesh()
	if err != nil {
		t.Fatal(err)
	}
	asm := mesh.NewAssembly(m, func(tag string) bool { return tag == "wall" || tag == "farfield" })
	part, err := partition.Partition(partition.FromMesh(m), p)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([][]int, p)
	for r := range ids {
		set := map[int]bool{}
		for ei, owner := range part {
			if owner == r {
				for _, g := range asm.L2G[ei] {
					set[g] = true
				}
			}
		}
		for g := range set {
			ids[r] = append(ids[r], g)
		}
		sort.Ints(ids[r])
	}
	got := allocsPerOp(t, p, 3, 20, func(comm *mpi.Comm, _ *machine.CPU) func() {
		g := gs.New(comm, ids[comm.Rank()], 8)
		a, b, c := make([]float64, len(g.Mult)), make([]float64, len(g.Mult)), make([]float64, len(g.Mult))
		for i := range a {
			a[i], b[i], c[i] = 1, 0.5, 0.25
		}
		three, dots := [][]float64{a, b, c}, make([]float64, 3)
		return func() {
			g.Combine(a, gs.Max)
			g.Combine(b, gs.Sum)
			g.Dot(a, b)
			g.CombineFields(three, gs.Max)
			g.DotFields(dots, three, three)
		}
	})
	if got != 0 {
		t.Errorf("gs.Combine x2, gs.Dot and the three-field CombineFields and DotFields on the quick ALE dofs at P=%d: %.1f allocations, want 0", p, got)
	}
}

// TestAllreduceIntoAllocatesNothing pins the reduction every k-vector
// gs.DotFields makes at the rank counts that are not a power of two,
// where AllreduceInto runs Reduce + Bcast.
func TestAllreduceIntoAllocatesNothing(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		got := allocsPerOp(t, p, 3, 20, func(comm *mpi.Comm, _ *machine.CPU) func() {
			v := []float64{1, 2, 3}
			return func() { comm.AllreduceInto(v, v, mpi.Max) }
		})
		if got != 0 {
			t.Errorf("AllreduceInto of a 3-vector at P=%d: %.2f allocations, want 0", p, got)
		}
	}
}

// TestALEStepAllocations: what is left of an nsale step's allocations is
// inside the basis and mesh callees (their per-call transform
// temporaries). Step's own work arrays, its history levels and the
// operator rebuilds of a stationary mesh allocate nothing, and nothing
// allocates per message or per PCG iteration. This step made 24,451
// allocations before the solver owned its message buffers, 955 before
// it owned its work arrays, and 582 since.
func TestALEStepAllocations(t *testing.T) {
	const measured = 582
	const limit = measured + measured/10
	got := allocsPerOp(t, 4, 2, 3, func(comm *mpi.Comm, cpu *machine.CPU) func() {
		m, err := quickALEMesh()
		if err != nil {
			panic(err)
		}
		ns, err := core.NewNSALE(m, aleBCs(), comm, cpu)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0, 0)
		return ns.Step
	})
	t.Logf("nsale quick shape, P=4: %.0f allocations a step (measured %d)", got, measured)
	if got > limit {
		t.Errorf("nsale quick shape, P=4: %.0f allocations a step, want <= %d (the measured %d plus 10%%)", got, limit, measured)
	}
}
