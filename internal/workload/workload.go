// Package workload is the one declaration of a runnable solver: what a
// name builds, at which default size, on which rank counts. The bench
// experiments, the job farm and the CLI all build solvers by name from
// this table, so adding a solver is adding one entry. The table is
// immutable after initialization; rank goroutines read it concurrently.
package workload

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

// Params are the problem parameters an entry takes. Every value is
// explicit — seed 0 is seed 0 — so callers start from the entry's
// Default and overwrite what they set.
type Params struct {
	// Seed picks the spectral solvers' random phases and forcing noise
	// and perturbs ns2d's uniform inflow; nsf and nsale ignore it.
	Seed uint64
	// N is the spectral grid size per direction, or the O-grid's angular
	// sector count (the farm's Nt); Nr its ring count and Order the
	// polynomial order of the mesh solvers.
	N, Nr, Order int
	// ForceLo..ForceHi is turbforce's forcing shell band (both zero: the
	// default [3, 5]).
	ForceLo, ForceHi int
}

// Host is the rank count of a serial run on the host, built with a nil
// communicator (the farm's jobs); counts >= 1 are simulated-cluster ranks.
const Host = 0

// Entry is one runnable solver; Default is its demonstration-scale
// problem.
type Entry struct {
	Name, Desc string
	Default    Params

	check func(p Params, procs int) error
	build func(p Params, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error)
}

// Check reports, by arithmetic on the parameters alone — no mesh, plan
// or field is built — whether the problem can run on procs ranks. nil
// promises that New succeeds on every rank of such a run; an error
// carries the values that would have worked.
func (e Entry) Check(p Params, procs int) error {
	if procs < Host {
		return fmt.Errorf("workload %s: need at least one rank, got %d", e.Name, procs)
	}
	if err := e.check(p, procs); err != nil {
		return fmt.Errorf("workload %s: %w", e.Name, err)
	}
	return nil
}

// New builds one rank's solver after the same Check. comm may be nil
// (Host); cpu may be nil (unpriced compute).
func (e Entry) New(p Params, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
	procs := Host
	if comm != nil {
		procs = comm.Size()
	}
	if err := e.Check(p, procs); err != nil {
		return nil, err
	}
	return e.build(p, comm, cpu)
}

// Reynolds number and time step of every demonstration problem, and
// the extrusion depth of nsale's wing section: three layers of the
// default 12 x 2 section give 72 elements, enough for the demonstration
// sweeps to decompose across 64 ranks.
const (
	re          = 500
	dt          = 2e-3
	nsaleLayers = 3
)

// BluffBCs are the bluff-body boundary conditions ns2d, nsf and the
// Table 2 probe statistics share: no-slip cylinder, unit inflow,
// pressure pinned at the outflow.
func BluffBCs() (vel map[string]core.VelBC, pres map[string]bool) {
	return map[string]core.VelBC{
		"wall":   core.ConstantVel(0, 0),
		"inflow": core.ConstantVel(1, 0),
	}, map[string]bool{"outflow": true}
}

// checkOGrid is the rule of the bluff-body and wing O-grids: below
// four sectors the blended quadrilaterals invert.
func checkOGrid(p Params) error {
	if p.N < 4 || p.Nr < 1 || p.Order < 1 {
		return fmt.Errorf("O-grid of %d sectors x %d rings at order %d is not valid (valid: sectors >= 4, rings >= 1, order >= 1)",
			p.N, p.Nr, p.Order)
	}
	return nil
}

// spectralEntry declares a pseudospectral solver on a 16^2 default
// grid; its check is spectral.Config's.
func spectralEntry(name, desc string, seed uint64, forced bool,
	mk func(spectral.Config, *mpi.Comm, *machine.CPU) (*spectral.Turb2D, error)) Entry {
	config := func(p Params) spectral.Config {
		return spectral.Config{N: p.N, Re: re, Dt: dt, Seed: p.Seed,
			Forced: forced, ForceLo: p.ForceLo, ForceHi: p.ForceHi}
	}
	return Entry{Name: name, Desc: desc, Default: Params{Seed: seed, N: 16},
		check: func(p Params, procs int) error { return config(p).Check(max(procs, 1)) },
		build: func(p Params, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			return mk(config(p), comm, cpu)
		}}
}

// table is the registry, sorted by name.
var table = []Entry{
	{
		Name: "ns2d", Desc: "serial 2D spectral/hp Navier-Stokes bluff body",
		Default: Params{N: 12, Nr: 3, Order: 4},
		check: func(p Params, procs int) error {
			if procs > 1 {
				return fmt.Errorf("the serial solver runs on the host or on one rank, got %d", procs)
			}
			return checkOGrid(p)
		},
		build: func(p Params, _ *mpi.Comm, _ *machine.CPU) (engine.Solver, error) {
			m, err := mesh.BluffBody(p.Order, p.N, p.Nr)
			if err != nil {
				return nil, err
			}
			vel, pres := BluffBCs()
			ns, err := core.NewNS2D(m, core.NS2DConfig{Nu: 1.0 / re, Dt: dt, Order: 2,
				VelDirichlet: vel, PresDirichlet: pres})
			if err != nil {
				return nil, err
			}
			// The seed perturbs the uniform inflow deterministically, so
			// distinct seeds are distinct trajectories and equal seeds are
			// bit-identical ones.
			u := 1 + 1e-3*float64(Mix64(p.Seed)%1000)/1000
			v := 1e-4 * float64(Mix64(p.Seed+1)%1000) / 1000
			ns.SetUniformInitial(u, v)
			return ns, nil
		},
	},
	{
		Name: "nsale", Desc: "Nektar-ALE wing section (3D moving mesh, domain-decomposed)",
		Default: Params{N: 12, Nr: 2, Order: 2},
		check: func(p Params, procs int) error {
			if err := checkOGrid(p); err != nil {
				return err
			}
			if elems := p.N * p.Nr * nsaleLayers; procs < 1 || procs > elems {
				return fmt.Errorf("the %d-element mesh decomposes over 1 to %d ranks of a simulated cluster, got %d",
					elems, elems, procs)
			}
			return nil
		},
		build: func(p Params, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			m2, err := mesh.WingSection(p.Order, p.N, p.Nr)
			if err != nil {
				return nil, err
			}
			m, err := mesh.ExtrudeQuads(m2, p.Order, nsaleLayers, 0, 1)
			if err != nil {
				return nil, err
			}
			ns, err := core.NewNSALE(m, core.ALEConfig{Nu: 0.05, Dt: dt, Order: 2,
				FarfieldVel: [3]float64{1, 0, 0}}, comm, cpu)
			if err != nil {
				return nil, err
			}
			ns.SetUniformInitial(1, 0, 0)
			return ns, nil
		},
	},
	{
		Name: "nsf", Desc: "Nektar-F bluff body (Fourier-parallel, 2D x Fourier)",
		Default: Params{N: 6, Nr: 2, Order: 4},
		check: func(p Params, procs int) error {
			// Two Fourier planes per rank through a radix-2 transform.
			if procs < 1 || procs&(procs-1) != 0 {
				return fmt.Errorf("needs a power-of-two rank count on a simulated cluster (1, 2, 4, 8, ...), got %d", procs)
			}
			return checkOGrid(p)
		},
		build: func(p Params, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
			ops, err := NSFOperators(p, comm.Rank())
			if err != nil {
				return nil, err
			}
			return NSFRank(ops, comm, cpu)
		},
	},
	spectralEntry("turb2d", "decaying 2D pseudospectral turbulence (slab-parallel, de-aliased)",
		20, false, spectral.NewTurb2D),
	spectralEntry("turbforce", "forced 2D pseudospectral turbulence (Basdevant form, banded white noise)",
		21, true, spectral.NewForced),
}

// NSFOperators builds the nsf problem's mesh, assemblies and the
// condensed operators of the listed Fourier modes: everything a rank
// holding one of those modes only reads, in any nsf run of size p. A
// caller that runs many cells of one problem builds it once and hands
// it to NSFRank for each rank.
func NSFOperators(p Params, modes ...int) (*core.NSFOperators, error) {
	m, err := mesh.BluffBody(p.Order, p.N, p.Nr)
	if err != nil {
		return nil, err
	}
	vel, pres := BluffBCs()
	return core.NewNSFOperators(m, core.NSFConfig{Nu: 1.0 / re, Dt: dt, Order: 2, Lz: 2 * 3.141592653589793,
		VelDirichlet: vel, PresDirichlet: pres}, modes...)
}

// NSFRank builds one rank of the nsf problem on prebuilt operators,
// impulsively started: the rank the nsf entry builds.
func NSFRank(ops *core.NSFOperators, comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
	ns, err := ops.NewRank(comm, cpu)
	if err != nil {
		return nil, err
	}
	ns.SetUniformInitial(1, 0)
	return ns, nil
}

// Names lists the table's entries and also, the names a caller
// registers on top of it, in one sorted list.
func Names(also ...string) []string {
	names := append([]string(nil), also...)
	for _, e := range table {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// ByName resolves an entry; the error for an unknown name lists what
// is registered, also included.
func ByName(name string, also ...string) (Entry, error) {
	for _, e := range table {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown workload %q: registered workloads are %s",
		name, strings.Join(Names(also...), ", "))
}

// Mix64 is splitmix64's finalizer: a cheap, well-distributed bijection
// (ns2d's seed perturbation, the farm's synthetic spin lattice).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
