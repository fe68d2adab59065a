package bench

import (
	"fmt"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/workload"
)

// The experiments build every solver by name from the table in
// internal/workload; everything downstream — the driver loop,
// checkpointing, tracing — goes through engine.Solver, so a table
// entry is the only step needed to put a new solver under every
// experiment.

// rankSolver is one rank's solver factory, the shape the traced run
// and the Nektar-F probes take.
type rankSolver = func(comm *mpi.Comm) (engine.Solver, error)

// clusterFor resolves the machine of a run of procs ranks and the
// factory of the named workload's default problem priced on it, with
// an actionable error — before any rank starts — for each way the
// pairing cannot run.
func clusterFor(machineName, name string, procs int) (*machine.Machine, rankSolver, error) {
	mach, err := machine.ByName(machineName)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (see internal/machine for the catalogue)", err)
	}
	wl, err := workload.ByName(name)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	if procs < 1 {
		return nil, nil, fmt.Errorf("bench: need at least one rank, got %d", procs)
	}
	if err := wl.Check(wl.Default, procs); err != nil {
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	if procs > mach.MaxProcs {
		return nil, nil, fmt.Errorf("bench: %d ranks exceed the %d nodes of %s",
			procs, mach.MaxProcs, machineName)
	}
	return mach, func(comm *mpi.Comm) (engine.Solver, error) { return wl.New(wl.Default, comm, &mach.CPU) }, nil
}

// tableEntry resolves a workload the code names literally; a miss is a
// bug, not an input error.
func tableEntry(name string) workload.Entry {
	wl, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return wl
}

// bluffNS2D builds the serial bluff-body solver on an nt x nr O-grid,
// impulsively started and stepped twice so the multistep scheme is on
// its final order-2 path.
func bluffNS2D(order, nt, nr int) (*core.NS2D, error) {
	s, err := tableEntry("ns2d").New(workload.Params{N: nt, Nr: nr, Order: order}, nil, nil)
	if err != nil {
		return nil, err
	}
	ns := s.(*core.NS2D)
	ns.SetUniformInitial(1, 0)
	ns.Step()
	ns.Step()
	return ns, nil
}
