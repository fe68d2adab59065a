package bench

import (
	"fmt"
	"sort"
	"strings"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/spectral"
)

// Workload is a named, demonstration-scale solver setup the engine can
// drive without knowing which solver it is. The supervise and trace
// experiments pick one by name; everything downstream — the driver
// loop, checkpointing, recovery, the supervisor — goes through
// engine.Solver, so adding a workload here is the only step needed to
// put a new solver under the self-healing runtime.
type Workload struct {
	Name        string
	Description string

	// PowerOfTwoRanks marks workloads whose parallel decomposition
	// (Fourier transpose) needs 2^k ranks.
	PowerOfTwoRanks bool

	// New builds one rank's solver at demonstration scale. cpu may be
	// nil (unpriced compute).
	New func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error)
}

// workloads is the registry. Keyed by the names the CLI flags accept.
var workloads = map[string]Workload{
	"nsf": {
		Name:            "nsf",
		Description:     "Nektar-F bluff body (Fourier-parallel, 2D x Fourier)",
		PowerOfTwoRanks: true,
		New: func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			return fourierProbe(4, 6, 2, comm, cpu)
		},
	},
	"nsale": {
		Name:        "nsale",
		Description: "Nektar-ALE wing section (3D moving mesh, domain-decomposed)",
		New: func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			m2, err := mesh.WingSection(2, 12, 2)
			if err != nil {
				return nil, err
			}
			// Three extruded layers give 72 elements, enough for the
			// demonstration sweeps to decompose across 64 ranks.
			m, err := mesh.ExtrudeQuads(m2, 2, 3, 0, 1)
			if err != nil {
				return nil, err
			}
			ns, err := core.NewNSALE(m, aleBCs(), comm, cpu)
			if err != nil {
				return nil, err
			}
			ns.SetUniformInitial(1, 0, 0)
			return ns, nil
		},
	},
	"turb2d": spectralWorkload("turb2d", spectral.NewTurb2D, 20,
		"decaying 2D pseudospectral turbulence (slab-parallel, de-aliased)"),
	"turbforce": spectralWorkload("turbforce", spectral.NewForced, 21,
		"forced 2D pseudospectral turbulence (Basdevant form, banded white noise)"),
}

// spectralWorkload registers a pseudospectral solver build on a 16^2
// grid.
func spectralWorkload(name string, mk func(spectral.Config, *mpi.Comm, *machine.CPU) (*spectral.Turb2D, error),
	seed uint64, desc string) Workload {
	return Workload{Name: name, Description: desc, PowerOfTwoRanks: true,
		New: func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			return mk(spectral.Config{N: 16, Re: 500, Dt: 2e-3, Seed: seed}, comm, cpu)
		}}
}

// WorkloadNames lists the registered workloads, sorted.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WorkloadByName resolves a workload; the error for an unknown name
// lists what is registered.
func WorkloadByName(name string) (Workload, error) {
	wl, ok := workloads[name]
	if !ok {
		return Workload{}, fmt.Errorf("bench: unknown workload %q: registered workloads are %s",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return wl, nil
}

// clusterFor resolves the machine and the workload of a run of procs
// ranks plus spares hot-spare nodes, with an actionable error for each
// way the pairing cannot run.
func clusterFor(machineName, workload string, procs, spares int) (*machine.Machine, Workload, error) {
	mach, err := machine.ByName(machineName)
	if err != nil {
		return nil, Workload{}, fmt.Errorf("%w (see internal/machine for the catalogue)", err)
	}
	wl, err := WorkloadByName(workload)
	if err != nil {
		return nil, Workload{}, err
	}
	if err := ValidateWorkloadRanks(wl, procs); err != nil {
		return nil, Workload{}, err
	}
	if procs+spares > mach.MaxProcs {
		return nil, Workload{}, fmt.Errorf("bench: %d ranks + %d spares exceed the %d nodes of %s",
			procs, spares, mach.MaxProcs, machineName)
	}
	return mach, wl, nil
}

// ValidateWorkloadRanks checks a rank count against a workload's
// decomposition constraints.
func ValidateWorkloadRanks(wl Workload, procs int) error {
	if procs < 1 {
		return fmt.Errorf("bench: need at least one rank, got %d", procs)
	}
	if wl.PowerOfTwoRanks && procs&(procs-1) != 0 {
		return fmt.Errorf("bench: workload %s needs a power-of-two rank count, got %d", wl.Name, procs)
	}
	return nil
}
