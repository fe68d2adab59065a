package main

import (
	"math"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// aleShape sizes the moving-mesh workload. The full shape is the
// registered "nsale" workload of internal/bench (72-element extruded
// wing section); the registry hands out an opaque engine.Solver with a
// fixed inflow, so the same mesh and configuration are built here to
// let the seed perturb the inflow.
type aleShape struct {
	nt, nr, nz int // wing-section O-grid and extrusion layers
	p          int
}

func aleShapeFor(p params) aleShape {
	if p.quick {
		return aleShape{nt: 6, nr: 1, nz: 1, p: 4}
	}
	return aleShape{nt: 12, nr: 2, nz: 3, p: 8}
}

// mesh builds the workload's mesh: the wing section extruded in z.
func (sh aleShape) mesh() (*mesh.Mesh, error) {
	m2, err := mesh.WingSection(2, sh.nt, sh.nr)
	if err != nil {
		return nil, err
	}
	return mesh.ExtrudeQuads(m2, 2, sh.nz, 0, 1)
}

// aleInflow is the seed's only way into the ALE run: a deterministic
// perturbation of the uniform initial velocity, 1e-3 at most, as the
// farm's ns2d workload perturbs its inflow.
func aleInflow(seed uint64) (u, v float64) {
	return 1 + 1e-3*unitFrac(mix64(seed)), 1e-4 * unitFrac(mix64(seed+1))
}

func (sh aleShape) mk(seed uint64) func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
	return func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
		m, err := sh.mesh()
		if err != nil {
			return nil, err
		}
		ns, err := core.NewNSALE(m, core.ALEConfig{
			Nu: 0.05, Dt: 2e-3, Order: 2,
			FarfieldVel: [3]float64{1, 0, 0},
		}, comm, cpu)
		if err != nil {
			return nil, err
		}
		u, v := aleInflow(seed)
		ns.SetUniformInitial(u, v, 0)
		return ns, nil
	}
}

// aleRun is one ALE run on the given rank count; it also returns the
// kinetic energy the run ended with.
func aleRun(sh aleShape, seed uint64, ranks int, c cycleSpec) (cr *clusterResult, ke float64, err error) {
	run := clusterRun{
		label: "ale_gs", p: ranks, sched: simnet.SchedSerial, mk: sh.mk(seed),
		warm: c.warm, timed: c.timed, tr: c.tr, speed: c.speed, speedReps: 8, memWindow: c.tr != nil,
		atEnd: func(rank int, s engine.Solver) {
			// Collective: every rank enters, rank 0 keeps the value.
			if e := s.(*core.NSALE).KineticEnergy(); rank == 0 {
				ke = e
			}
		},
	}
	cr, err = run.run()
	return cr, ke, err
}

// aleCycle is the gather-scatter workload: storms of one-float
// Allreduce calls and small pairwise exchanges, no FFT and no Alltoall.
// Its digest is the kinetic energy and every rank's virtual clock at
// the end, bit for bit.
func aleCycle(p params, c cycleSpec) (*cycleResult, error) {
	sh := aleShapeFor(p)
	cr, ke, err := aleRun(sh, p.seed, sh.p, c)
	if err != nil {
		return nil, err
	}
	res := &cycleResult{setup: cr.setup, cluster: cr}
	if c.timed == 0 {
		return res, nil
	}
	steps := c.warm + c.timed
	res.opMS, res.rate = cr.opMS, serialRate(cr.opMS)
	res.digest = digestOf(nil, append([]float64{ke}, cr.clocks...))
	res.checks = []check{checkf("ale_gs.energy_finite", !math.IsNaN(ke) && !math.IsInf(ke, 0) && ke > 0,
		"kinetic energy after %d steps is %.12g", steps, ke)}
	if !c.verify {
		return res, nil
	}
	_, ke1, err := aleRun(sh, p.seed, 1, cycleSpec{warm: c.warm, timed: c.timed})
	if err != nil {
		return nil, err
	}
	rel := math.Abs(ke-ke1) / math.Abs(ke1)
	if corruptHash {
		rel = 1
	}
	res.checks = append(res.checks, checkf("ale_gs.energy_matches_one_rank", rel <= 1e-8,
		"kinetic energy after %d steps: P=%d %.15g, P=1 %.15g (relative gap %.2e, limit 1e-8)", steps, sh.p, ke, ke1, rel))
	return res, nil
}
