package farm

import (
	"fmt"
	"io"

	"nektar/internal/engine"
	"nektar/internal/timing"
	"nektar/internal/workload"
)

// Farm workloads are serial, host-run solvers — the unit of work a
// single farm worker executes: every entry of the internal/workload
// table that runs without a communicator (ns2d, the real spectral/hp
// Navier-Stokes probe, and the pseudospectral turb2d/turbforce, so the
// farm's bit-identity claims are proven on actual solver state), plus
// the one workload the farm adds: "spin", a synthetic deterministic
// mixing kernel cheap enough to submit by the thousand (the chaos
// harness's ammunition).
const spinWorkload = "spin"

// maxGridN and maxMeshWork bound the problem a spec from the wire may
// make a worker allocate: the spectral grid size (and O-grid sector
// count), and sectors x rings x order^2 of a mesh solver — the paper's
// 82 x 11 order-8 discretization is 57,728.
const (
	maxGridN    = 2048
	maxMeshWork = 1 << 16
)

// problem resolves a table spec's entry and parameters: the entry's
// default problem with the spec's seed, and Nt (sectors, or the
// spectral grid size), Nr and Order where the spec sets them. Equal
// specs are bit-identical trajectories — the property the result cache
// keys on. It fails, before anything is built, on a problem the farm
// cannot run: an unknown name, one beyond the size bound, or one the
// entry's Check refuses on the host.
func (s JobSpec) problem() (workload.Entry, workload.Params, error) {
	e, err := workload.ByName(s.Workload, spinWorkload)
	if err != nil {
		return e, workload.Params{}, fmt.Errorf("farm: %w", err)
	}
	p := e.Default
	p.Seed = uint64(s.Seed)
	if s.Nt != 0 {
		p.N = s.Nt
	}
	if s.Nr != 0 {
		p.Nr = s.Nr
	}
	if s.Order != 0 {
		p.Order = s.Order
	}
	if work := float64(p.N) * float64(p.Nr) * float64(p.Order) * float64(p.Order); p.N > maxGridN || work > maxMeshWork {
		return e, p, fmt.Errorf("farm: workload %s at nt=%d nr=%d order=%d is beyond the farm's size bound (valid: nt <= %d and nt*nr*order^2 <= %d)",
			e.Name, p.N, p.Nr, p.Order, maxGridN, maxMeshWork)
	}
	if err := e.Check(p, workload.Host); err != nil {
		return e, p, fmt.Errorf("farm: %w", err)
	}
	return e, p, nil
}

// NewSolver builds the solver a spec describes.
func NewSolver(spec JobSpec) (engine.Solver, error) {
	if spec.Workload == spinWorkload {
		work := spec.Work
		if work <= 0 {
			work = 256
		}
		return NewSpinSolver(spec.Seed, work), nil
	}
	e, p, err := spec.problem()
	if err != nil {
		return nil, err
	}
	return e.New(p, nil, nil)
}

// Validate rejects specs the farm cannot run — an unknown workload, a
// problem its table entry cannot build or one beyond the size bound —
// before anything is journaled, queued or allocated.
func (s JobSpec) Validate() error {
	if s.Workload != spinWorkload {
		if _, _, err := s.problem(); err != nil {
			return err
		}
	}
	if s.Steps < 1 {
		return fmt.Errorf("farm: job needs a positive step count, got %d", s.Steps)
	}
	if s.CkptEvery < 0 {
		return fmt.Errorf("farm: negative checkpoint cadence %d", s.CkptEvery)
	}
	if s.TimeoutS < 0 {
		return fmt.Errorf("farm: negative timeout %gs", s.TimeoutS)
	}
	if len(s.Tenant) > MaxTenantLen {
		return fmt.Errorf("farm: tenant name is %d bytes, max %d", len(s.Tenant), MaxTenantLen)
	}
	return nil
}

// RunSpec executes a spec uninterrupted in-process and returns its
// Result — the reference the chaos harness compares daemon-computed
// results against, and the cheapest way to answer "what should this
// job produce?"
func RunSpec(spec JobSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	s, err := NewSolver(spec)
	if err != nil {
		return Result{}, err
	}
	loop := engine.Loop{Solver: s, Steps: spec.Steps,
		Watchdog: engine.Watchdog{Disabled: true}}
	res, err := loop.Run()
	if err != nil {
		return Result{}, err
	}
	return Result{Hash: HashState(res.Final), Steps: spec.Steps, Bytes: len(res.Final)}, nil
}

// SpinSolver is the synthetic workload: a lattice of 64-bit lanes
// mixed by a xorshift-style permutation every step. It is a real
// engine.Solver — checkpointable, restorable, health-sampled — whose
// step cost is tunable and whose trajectory is exactly reproducible,
// which is all the chaos harness needs from physics.
type SpinSolver struct {
	st     spinState
	work   int
	stages *timing.Stages
}

type spinState struct {
	Step  int
	Lanes [16]uint64
}

// NewSpinSolver seeds a solver; work is the number of lattice mixes
// per step (cost knob).
func NewSpinSolver(seed int64, work int) *SpinSolver {
	s := &SpinSolver{work: work, stages: timing.NewStages("mix")}
	x := uint64(seed)
	for i := range s.st.Lanes {
		x = workload.Mix64(x + 0x9e3779b97f4a7c15)
		s.st.Lanes[i] = x
	}
	return s
}

// Step implements engine.Solver.
func (s *SpinSolver) Step() {
	l := &s.st.Lanes
	for w := 0; w < s.work; w++ {
		for i := range l {
			l[i] = workload.Mix64(l[i] + l[(i+1)%len(l)] + uint64(w))
		}
	}
	s.st.Step++
}

// StepCount implements engine.Solver.
func (s *SpinSolver) StepCount() int { return s.st.Step }

// Stages implements engine.Solver.
func (s *SpinSolver) Stages() *timing.Stages { return s.stages }

// Checkpoint implements engine.Solver.
func (s *SpinSolver) Checkpoint(w io.Writer) error { return engine.EncodeState(w, &s.st) }

// Restore implements engine.Solver.
func (s *SpinSolver) Restore(r io.Reader) error {
	var st spinState
	if err := engine.DecodeState(r, &st); err != nil {
		return err
	}
	s.st = st
	return nil
}

// HealthSample implements engine.Solver: the lattice is always finite
// and bounded, so the watchdog never trips on it.
func (s *SpinSolver) HealthSample() (float64, bool) {
	return float64(s.st.Lanes[0] >> 40), true
}
