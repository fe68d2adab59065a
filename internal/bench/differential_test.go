package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/workload"
)

// Scheduler equivalence over the real solvers: every registered
// workload, run under the serial and the parallel simnet scheduler,
// must produce bit-identical per-rank
// virtual wall/cpu clocks and bit-identical solver trajectories
// (compared as hashes of the checkpoint stream — pure slices and ints,
// so equal state encodes to equal bytes within one process).

type diffRun struct {
	wall, cpu []float64
	hashes    []string
	errStr    string
}

func runWorkloadDiff(t *testing.T, wlName string, p, steps int, sched simnet.Scheduler) diffRun {
	t.Helper()
	wl := tableEntry(wlName)
	mach := machine.Muses()
	model := *mach.Net
	model.Scheduler = sched
	hashes := make([]string, p)
	wall, cpu, runErr := simnet.Run(p, &model, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := wl.New(wl.Default, comm, &mach.CPU)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		b, err := engine.Marshal(s)
		if err != nil {
			panic(err)
		}
		sum := sha256.Sum256(b)
		hashes[n.Rank] = hex.EncodeToString(sum[:])
	})
	return diffRun{wall: wall, cpu: cpu, hashes: hashes, errStr: fmt.Sprint(runErr)}
}

func TestSchedulerDifferentialWorkloads(t *testing.T) {
	ranks := map[string]int{"nsf": 4, "nsale": 3}
	for _, name := range workload.Names() {
		p, ok := ranks[name]
		if !ok {
			p = 4 // power-of-two default for workloads registered later
		}
		if wl := tableEntry(name); wl.Check(wl.Default, p) != nil {
			continue // ns2d: one rank, nothing for two schedulers to order
		}
		label := fmt.Sprintf("%s/p=%d", name, p)
		const steps = 2
		serial := runWorkloadDiff(t, name, p, steps, simnet.SchedSerial)
		par := runWorkloadDiff(t, name, p, steps, simnet.SchedParallel)
		if serial.errStr != par.errStr {
			t.Fatalf("%s: error diverged:\nserial:   %s\nparallel: %s", label, serial.errStr, par.errStr)
		}
		for r := 0; r < p; r++ {
			if math.Float64bits(serial.wall[r]) != math.Float64bits(par.wall[r]) {
				t.Errorf("%s: rank %d wall clock diverged: serial %v parallel %v",
					label, r, serial.wall[r], par.wall[r])
			}
			if math.Float64bits(serial.cpu[r]) != math.Float64bits(par.cpu[r]) {
				t.Errorf("%s: rank %d cpu clock diverged: serial %v parallel %v",
					label, r, serial.cpu[r], par.cpu[r])
			}
			if serial.hashes[r] != par.hashes[r] {
				t.Errorf("%s: rank %d trajectory hash diverged:\nserial:   %s\nparallel: %s",
					label, r, serial.hashes[r], par.hashes[r])
			}
		}
	}
}
