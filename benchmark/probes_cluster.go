package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"nektar/internal/gs"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/partition"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// onCluster runs body on p simulated ranks of the Muses network under
// the serial scheduler.
func onCluster(p int, body func(n *simnet.Node, comm *mpi.Comm)) error {
	model := *machine.Muses().Net
	model.Scheduler = simnet.SchedSerial
	_, _, err := simnet.Run(p, &model, func(n *simnet.Node) { body(n, mpi.World(n)) })
	return err
}

// collective runs reps calls of f on every rank, rank 0 timing each
// one as a span. Under the serial scheduler rank 0's clock covers the
// other ranks' share of the call too: they run while it is blocked.
func (l *layers) collective(rank int, what, name string, reps int, f func()) time.Duration {
	if rank != 0 {
		for i := 0; i < reps; i++ {
			f()
		}
		return 0
	}
	return l.replay(what, name, reps, f)
}

// probeSlabLayers replays, on the slab workload's rank count, the
// distributed transpose of the padded pipeline and the Alltoall under
// it, at the block size that transpose produces.
func (l *layers) probeSlabLayers(shape dnsShape) error {
	n, m, p := shape.n, 3*shape.n/2, shape.p
	block := 2 * (n / p) * (m / p) // floats per destination: 6 KiB at N=256, P=16
	reps := l.reps(40)
	var xpose, a2a time.Duration
	var a2aAllocs float64
	err := onCluster(p, func(node *simnet.Node, comm *mpi.Comm) {
		tp, err := spectral.NewTransposer(n, m, comm)
		if err != nil {
			panic(err) // the simulator turns a rank's panic into the run's error
		}
		in, out := make([]complex128, n/p*m), make([]complex128, m/p*n)
		d := l.collective(node.Rank, "spectral.transpose_p", "spectral.Transposer.Transpose", reps, func() { tp.Transpose(in, out) })
		send := make([][]float64, p)
		for j := range send {
			send[j] = make([]float64, block)
		}
		call := func() { comm.Alltoall(send, mpi.AlgAuto) }
		d2 := l.collective(node.Rank, "mpi.alltoall", "mpi.Comm.Alltoall", reps, call)
		// Allocation count of the whole collective, all ranks: rank 0
		// reads the allocator at fixed points of a deterministic schedule,
		// with the collector off so that no collection empties the
		// simulator's message pool half way through the count.
		var ms0, ms1 runtime.MemStats
		comm.Barrier()
		if node.Rank == 0 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.ReadMemStats(&ms0)
		}
		for i := 0; i < reps; i++ {
			call()
		}
		comm.Barrier()
		if node.Rank == 0 {
			runtime.ReadMemStats(&ms1)
			xpose, a2a = d, d2
			a2aAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
		}
	})
	if err != nil {
		return err
	}
	l.add("spectral.transpose_p16_ms", "ms", millis(xpose))
	l.add("mpi.alltoall_p16_6k_us", "us", micros(a2a))
	l.add("mpi.alltoall_p16_allocs", "count", a2aAllocs)
	return nil
}

// aleDofs returns each rank's sorted global velocity dof ids for the
// ALE workload's mesh and partition — the id lists the solver hands to
// the gather-scatter library.
func aleDofs(sh aleShape, ranks int) ([][]int, error) {
	m, err := sh.mesh()
	if err != nil {
		return nil, err
	}
	asm := mesh.NewAssembly(m, func(tag string) bool { return tag == "wall" || tag == "farfield" })
	part, err := partition.Partition(partition.FromMesh(m), ranks)
	if err != nil {
		return nil, err
	}
	ids := make([][]int, ranks)
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
	return ids, nil
}

// probeALELayers replays, on the ALE workload's rank count, the calls
// its PCG iterations are made of: the gather-scatter combine and dot
// product over the velocity dofs, and the two mpi calls under them.
func (l *layers) probeALELayers(sh aleShape) error {
	ids, err := aleDofs(sh, sh.p)
	if err != nil {
		return err
	}
	reps := l.reps(300)
	pairLen := make([]float64, sh.p)
	var combine, dot, allreduce, sendrecv time.Duration
	err = onCluster(sh.p, func(node *simnet.Node, comm *mpi.Comm) {
		r := node.Rank
		g := gs.New(comm, ids[r], 8)
		pairLen[r] = g.MeanPairwiseLen()
		a, b := make([]float64, len(ids[r])), make([]float64, len(ids[r]))
		for i := range a {
			a[i], b[i] = 1, 0.5
		}
		c := l.collective(r, "gs.combine", "gs.GS.Combine", reps, func() { g.Combine(a, gs.Max) })
		d := l.collective(r, "gs.dot", "gs.GS.Dot", reps, func() { g.Dot(a, b) })
		one := []float64{1}
		ar := l.collective(r, "mpi.allreduce", "mpi.Comm.Allreduce", reps, func() { comm.Allreduce(one, mpi.Sum) })
		// A ring exchange of one interface's worth of values.
		buf := make([]float64, max(1, int(math.Round(pairLen[r]))))
		next, prev := (r+1)%sh.p, (r+sh.p-1)%sh.p
		sr := l.collective(r, "mpi.sendrecv", "mpi.Comm.Sendrecv", reps, func() { comm.Sendrecv(next, 7, buf, prev, 7) })
		if r == 0 {
			combine, dot, allreduce, sendrecv = c, d, ar, sr
		}
	})
	if err != nil {
		return err
	}
	mean := 0.0
	for _, v := range pairLen {
		mean += v / float64(len(pairLen))
	}
	l.add("gs.combine_p8_us", "us", micros(combine))
	l.add("gs.dot_p8_us", "us", micros(dot))
	l.add("gs.mean_pairwise_len", "count", mean)
	l.add("mpi.allreduce_p8_1_us", "us", micros(allreduce))
	l.add("mpi.sendrecv_p8_us", "us", micros(sendrecv))
	return nil
}

// handoff measures the host cost of one simulated message in
// microseconds: a two-rank ping-pong of one float (8 bytes), per message.
func handoff(batches, trips int) (float64, error) {
	per := make([]float64, batches)
	err := onCluster(2, func(node *simnet.Node, comm *mpi.Comm) {
		buf := []float64{1}
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				if node.Rank == 0 {
					comm.Send(1, 3, buf)
					comm.Recv(1, 3)
				} else {
					comm.Recv(0, 3)
					comm.Send(0, 3, buf)
				}
			}
			if node.Rank == 0 {
				per[b] = micros(time.Since(t0)) / float64(2*trips)
			}
		}
	})
	return median(per), err
}

// probeSimnet measures the scheduler's two primitive costs — a message
// handoff between two ranks and a Compute call — and how the handoff
// fares when the host may run the two rank goroutines on two threads.
func (l *layers) probeSimnet() error {
	trips := l.reps(1000)
	var h1 float64
	var err error
	l.spanned("simnet.pingpong", -1, "replay/simnet.handoff#0", func() { h1, err = handoff(5, trips) })
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(2)
	h2, err := handoff(5, trips/4)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	calls := l.reps(20000)
	per := make([]float64, 5)
	err = onCluster(1, func(node *simnet.Node, comm *mpi.Comm) {
		for b := range per {
			d := l.spanned(fmt.Sprintf("simnet.Node.Compute x%d", calls), -1, fmt.Sprintf("replay/simnet.compute#%d", b), func() {
				for i := 0; i < calls; i++ {
					node.Compute(1e-9)
				}
			})
			per[b] = float64(d.Nanoseconds()) / float64(calls)
		}
	})
	if err != nil {
		return err
	}
	l.add("simnet.handoff_us", "us", h1)
	l.add("simnet.compute_call_ns", "ns", median(per))
	l.add("simnet.p2_over_p1_handoff", "ratio", h2/h1)
	return nil
}
