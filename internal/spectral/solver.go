package spectral

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nektar/internal/blas"
	"nektar/internal/engine"
	"nektar/internal/fft"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/timing"
)

// Config describes a 2D homogeneous-turbulence run on the [0,2pi)^2
// periodic box with integer wavenumbers and nu = 1/Re.
type Config struct {
	N    int     // grid size per direction (>= 8, divisible by 4, 5-smooth)
	Re   float64 // Reynolds number; viscosity is 1/Re
	Dt   float64 // time step
	K0   float64 // PAO initial-spectrum peak wavenumber (default 6)
	E0   float64 // initial kinetic energy (default 1)
	Seed uint64  // deterministic phase seed for init and forcing

	// Forced selects the white-noise-forced variant (NewForced sets it):
	// the Basdevant 4-FFT nonlinear term with 2/3-rule truncation and a
	// banded stochastic injection each step. The decaying variant uses
	// the convective form de-aliased by 3/2-rule padding instead, so the
	// two solvers exercise both classic de-aliasing strategies.
	Forced   bool
	ForceLo  int // forcing shell band, lo <= round(|k|) <= hi
	ForceHi  int
	ForceAmp float64 // injection amplitude (default 0.1)

	// DiagEvery emits energy-spectrum and dissipation trace events every
	// so many steps (0 disables). In a parallel run the shell sums are a
	// collective Allreduce, entered by every rank at the same cadence
	// whether or not a tracer is attached; only rank 0 emits.
	DiagEvery int
}

// StageNames are the per-step accounting stages both solvers charge:
// spectral-to-physical transforms (including the Alltoall transposes),
// the pointwise products, the return transforms, the Crank-Nicolson
// update with forcing, and the diagnostics collective.
var StageNames = []string{"to-phys", "convolve", "to-spec", "update", "diag"}

// Turb2D is one rank's slab of the pseudospectral vorticity solver
//
//	dw/dt + u.grad(w) = nu Lap(w) + f,  u = curl^-1(w),
//
// advanced by Crank-Nicolson on the viscous term and second-order
// Adams-Bashforth on the advection (forward Euler on the first step).
// The spectral state w holds unnormalized DFT coefficients of the
// vorticity over this rank's band of ky rows; both Nyquist lines are
// kept identically zero. Trajectories are bit-identical across rank
// counts: initialization and forcing derive every mode from a hash of
// its global index, and all arithmetic is either local to a mode or a
// pure data-movement transpose.
type Turb2D struct {
	Cfg  Config
	Comm *mpi.Comm

	// Trace receives the spectrum/dissipation diagnostic events (rank 0
	// only); the step loop's own tracer is wired separately by the
	// engine. DiagEvery in the config gates the cadence.
	Trace *engine.Tracer

	nu   float64
	p    int
	rank int
	nloc int
	kmax int // 2/3-rule cutoff (forced variant; 0 means padded de-aliasing)

	w     []complex128 // spectral vorticity, nloc x N row-major
	prevN []complex128 // previous advection term for AB2
	step  int

	plan   *Plan2D
	stages *timing.Stages
	clk    timing.Clock

	specA, specB               []complex128
	physU, physV, physA, physB []float64
	physC                      []float64
	diag                       []float64
}

var _ engine.Solver = (*Turb2D)(nil)

// withDefaults fills the zero fields that have a default: the PAO
// spectrum (K0 6, E0 1) and, for the forced variant, shell band 3..5 at
// amplitude 0.1.
func (c Config) withDefaults() Config {
	if c.K0 == 0 {
		c.K0 = 6
	}
	if c.E0 == 0 {
		c.E0 = 1
	}
	if c.Forced && c.ForceLo == 0 && c.ForceHi == 0 {
		c.ForceLo, c.ForceHi = 3, 5
	}
	if c.Forced && c.ForceAmp == 0 {
		c.ForceAmp = 0.1
	}
	return c
}

// validN reports whether n is a grid size the solvers accept: at least
// 8, divisible by 4 (so the exact-3/2 de-aliasing grid M = 3N/2 stays
// even), and 5-smooth (so every transform in the padded pipeline hits
// the planner's radix-2/3/4/5 butterflies, never the generic-prime
// fallback).
func validN(n int) bool { return n >= 8 && n%4 == 0 && fft.Smooth5(n) }

// gridProblem is the one statement of which (N, P) the slab pipelines
// accept — a valid N that the rank count divides, together with the
// padded grid M = 3N/2 when the exact-3/2 pipeline is on — as the
// empty string or the problem with the values that would have worked.
func gridProblem(n int, padded bool, procs int) string {
	if !validN(n) {
		menu := "8, 12, 16, 20, 24, 32, 36, ..."
		if n < 1<<20 { // the search below is linear in the distance to the next valid size
			down, up := n-1, max(n+1, 8)
			for down >= 8 && !validN(down) {
				down--
			}
			for !validN(up) {
				up++
			}
			if down >= 8 {
				menu += fmt.Sprintf("; nearest to %d: %d and %d", n, down, up)
			} else {
				menu += fmt.Sprintf("; nearest to %d: %d", n, up)
			}
		}
		return fmt.Sprintf("grid size N=%d is not valid: need >= 8, divisible by 4, with no prime factors beyond 2, 3, 5 (valid: %s)", n, menu)
	}
	both, div := "", n
	if padded {
		both, div = fmt.Sprintf(" and its de-aliasing grid M=%d", 3*n/2), n/2 // gcd(N, 3N/2)
	}
	if procs >= 1 && div%procs == 0 {
		return ""
	}
	var valid []string
	for d := 1; d <= div; d++ {
		if div%d == 0 {
			valid = append(valid, strconv.Itoa(d))
		}
	}
	return fmt.Sprintf("%d ranks do not slab-decompose N=%d%s (valid rank counts: %s)", procs, n, both, strings.Join(valid, ", "))
}

// Check reports, before anything is allocated, whether a solver of this
// configuration can be built over procs ranks; NewTurb2D and NewForced
// call it first, so its nil means they succeed. Every problem with the
// configuration is reported in one error.
func (c Config) Check(procs int) error {
	c = c.withDefaults()
	var problems []string
	add := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }
	if p := gridProblem(c.N, !c.Forced, procs); p != "" {
		add("%s", p)
	}
	if !(c.Re > 0) || math.IsInf(c.Re, 0) {
		add("Reynolds number %g is not valid (valid: any positive finite value, e.g. 100)", c.Re)
	}
	if !(c.Dt > 0) || math.IsInf(c.Dt, 0) {
		add("time step %g is not valid (valid: any positive finite value, e.g. 2e-3)", c.Dt)
	}
	// The de-aliased band keeps shells 1..N/3; forcing outside it would
	// inject energy straight into truncated modes.
	if kmax := c.N / 3; c.Forced && (c.ForceLo < 1 || c.ForceHi <= c.ForceLo || c.ForceHi > kmax) {
		add("forcing band [%d, %d] is not a valid shell band (valid: 1 <= lo < hi <= %d for N=%d)", c.ForceLo, c.ForceHi, kmax, c.N)
	}
	if c.Forced && !(c.ForceAmp > 0) {
		add("forcing amplitude %g must be positive", c.ForceAmp)
	}
	if problems == nil {
		return nil
	}
	return fmt.Errorf("spectral: %s", strings.Join(problems, "; "))
}

// NewTurb2D builds one rank of the decaying solver: PAO random-field
// initialization, convective-form nonlinear term de-aliased by 3/2-rule
// zero padding. comm may be nil (serial); cpu may be nil (unpriced).
func NewTurb2D(cfg Config, comm *mpi.Comm, cpu *machine.CPU) (*Turb2D, error) {
	cfg.Forced = false
	return newSolver(cfg, comm, cpu)
}

// NewForced builds one rank of the forced solver: white-noise banded
// injection and the Basdevant 4-FFT nonlinear term under 2/3-rule
// truncation. Zero band/amplitude fields take the defaults (shell 3..5
// at amplitude 0.1).
func NewForced(cfg Config, comm *mpi.Comm, cpu *machine.CPU) (*Turb2D, error) {
	cfg.Forced = true
	return newSolver(cfg, comm, cpu)
}

func newSolver(cfg Config, comm *mpi.Comm, cpu *machine.CPU) (*Turb2D, error) {
	cfg = cfg.withDefaults()
	s := &Turb2D{Cfg: cfg, Comm: comm, nu: 1 / cfg.Re, p: 1}
	if comm != nil {
		s.p, s.rank = comm.Size(), comm.Rank()
	}
	if err := cfg.Check(s.p); err != nil {
		return nil, err
	}
	s.nloc = cfg.N / s.p
	if cfg.Forced {
		s.kmax = truncK(cfg.N)
	}
	var err error
	if s.plan, err = NewPlan2D(cfg.N, !cfg.Forced, comm); err != nil {
		return nil, err
	}
	n := cfg.N
	s.w = make([]complex128, s.nloc*n)
	s.prevN = make([]complex128, s.nloc*n)
	s.specA = make([]complex128, s.nloc*n)
	s.specB = make([]complex128, s.nloc*n)
	np := s.nloc * n
	if !cfg.Forced {
		np = s.plan.PadRows() * s.plan.M
	}
	s.physU = make([]float64, np)
	s.physV = make([]float64, np)
	s.physA = make([]float64, np)
	s.physB = make([]float64, np)
	s.physC = make([]float64, np)
	s.diag = make([]float64, n/2+3)
	s.stages = timing.NewStages(StageNames...)
	now := func() float64 { return 0 }
	if comm != nil {
		now = comm.Wtime
	}
	s.clk = timing.NewClock(s.stages, now)
	if cpu != nil {
		s.clk.Price(func(c *blas.Counts, _ int) float64 { return cpu.ApplicationSeconds(c) }, comm.Compute)
	}
	s.plan.Clock = &s.clk
	s.initPAO()
	return s, nil
}

// Stages implements engine.Solver.
func (s *Turb2D) Stages() *timing.Stages { return s.stages }

// StepCount implements engine.Solver.
func (s *Turb2D) StepCount() int { return s.step }

// Field returns a copy of this rank's spectral vorticity slab (the
// nloc x N band of ky rows), for tests and offline analysis.
func (s *Turb2D) Field() []complex128 {
	return append([]complex128(nil), s.w...)
}

// HealthSample implements engine.Solver: the largest coefficient
// magnitude component over the local slab, and whether all are finite.
func (s *Turb2D) HealthSample() (float64, bool) {
	maxAbs, finite := 0.0, true
	for _, v := range s.w {
		re, im := math.Abs(real(v)), math.Abs(imag(v))
		if re > maxAbs {
			maxAbs = re
		}
		if im > maxAbs {
			maxAbs = im
		}
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			finite = false
		}
	}
	return maxAbs, finite
}

// kAt maps a DFT index to its signed wavenumber on an n grid.
func kAt(j, n int) int {
	if j <= n/2 {
		return j
	}
	return j - n
}

// mix64 is splitmix64's finalizer: the deterministic hash behind every
// random phase, so initialization and forcing depend only on (seed,
// step, global mode index) — never on the rank count or iteration
// order.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// phase01 maps a hash to [0, 1).
func phase01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// truncK is the forced variant's 2/3-rule cutoff on an N grid: the
// largest K with 3K < N. A product of two fields band-limited to |k| <=
// K per direction reaches 2K, and its alias k - N then stays beyond K,
// so the truncated product is exact; K = N/3 itself would let aliases
// land on the band edge whenever 3 divides N.
func truncK(n int) int { return (n - 1) / 3 }

// inBand reports whether the mode survives this solver's de-aliasing
// band: Nyquist lines are always out; the forced variant additionally
// truncates by the 2/3 rule (|k| <= truncK(N) per direction).
func (s *Turb2D) inBand(kx, ky int) bool {
	h := s.Cfg.N / 2
	if kx == h || ky == h || kx == -h || ky == -h {
		return false
	}
	if s.kmax > 0 && (kx > s.kmax || kx < -s.kmax || ky > s.kmax || ky < -s.kmax) {
		return false
	}
	return true
}

// paoAmp is the PAO-style initial amplitude shape |what(k)| ~ k^2
// exp(-(k/k0)^2), which peaks the energy spectrum near k0. It calls the
// package's portable exp, not math.Exp, so the initial field has the
// same bits on every host.
func paoAmp(k, k0 float64) float64 {
	return k * k * exp(-(k/k0)*(k/k0))
}

// initPAO fills the slab with the random-phase PAO field. The energy
// normalization sums over ALL global modes in row-major order on every
// rank, so the resulting bits are independent of the decomposition;
// only the local band is stored. Hermitian symmetry (physical-real
// vorticity) is imposed by hashing the phase of each conjugate pair's
// canonical member — the one with the smaller global row-major index —
// and conjugating for the partner.
//
// The amplitude depends on |kx| and |ky| alone, so paoAmp is evaluated
// once per unordered pair and read from a table by the sum and by the
// fill. inBand is separable (a test on kx and a test on ky), so a row
// whose ky is out of band is skipped whole; the additions the sum makes
// and their order are the ones of a plain row-major walk.
func (s *Turb2D) initPAO() {
	n, k0, h := s.Cfg.N, s.Cfg.K0, s.Cfg.N/2
	amp := make([]float64, (h+1)*(h+1)) // amp[|ky|*(h+1)+|kx|]
	for ay := 0; ay <= h; ay++ {
		for ax := 0; ax <= ay; ax++ {
			a := paoAmp(math.Sqrt(float64(ax*ax+ay*ay)), k0)
			amp[ay*(h+1)+ax], amp[ax*(h+1)+ay] = a, a
		}
	}
	inBand := make([]bool, n) // inBand[j]: wavenumber kAt(j, n) survives on both axes
	for j := range inBand {
		inBand[j] = s.inBand(kAt(j, n), 0)
	}
	absK := func(j int) int {
		if k := kAt(j, n); k < 0 {
			return -k
		}
		return j
	}
	sumE := 0.0
	for g := 0; g < n; g++ {
		if !inBand[g] {
			continue
		}
		ky := kAt(g, n)
		row := amp[absK(g)*(h+1):]
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if (kx == 0 && ky == 0) || !inBand[j] {
				continue
			}
			k2 := float64(kx*kx + ky*ky)
			a := row[absK(j)]
			sumE += a * a / (2 * k2)
		}
	}
	// Total kinetic energy is sum |what|^2 / (2 k^2 N^4); scale to E0.
	norm := float64(n) * float64(n) * math.Sqrt(s.Cfg.E0/sumE)
	for i := 0; i < s.nloc; i++ {
		g := s.rank*s.nloc + i
		ky := kAt(g, n)
		row := amp[absK(g)*(h+1):]
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			idx := i*n + j
			if (kx == 0 && ky == 0) || !inBand[g] || !inBand[j] {
				s.w[idx] = 0
				continue
			}
			gidx := uint64(g*n + j)
			pidx := uint64(((n-g)%n)*n + (n-j)%n)
			canon := gidx
			if pidx < canon {
				canon = pidx
			}
			theta := 2 * math.Pi * phase01(mix64(s.Cfg.Seed^mix64(canon+1)))
			a := norm * row[absK(j)]
			val := complex(a*math.Cos(theta), a*math.Sin(theta))
			if gidx != canon {
				val = complex(real(val), -imag(val))
			}
			s.w[idx] = val
		}
	}
}

// recordPointwise accounts n complex-pointwise spectral operations
// (roughly 6 flops and 32 bytes each) as daxpy-class streaming work, so
// the mode loops the BLAS layer never sees still reach the cost model.
func recordPointwise(n int) {
	var c blas.Counts
	c.Ops[blas.KernelDaxpy] = blas.Op{Calls: 1, N: int64(n), Flops: int64(6 * n), Bytes: int64(32 * n)}
	blas.RecordExternal(&c)
}

// velocities fills specA/specB with uhat/vhat from the streamfunction
// relation u = curl^-1(w): uhat = i ky what / k^2, vhat = -i kx what /
// k^2 (zero mean mode, zero outside the band).
func (s *Turb2D) velocities() {
	n := s.Cfg.N
	for i := 0; i < s.nloc; i++ {
		ky := kAt(s.rank*s.nloc+i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			idx := i*n + j
			if (kx == 0 && ky == 0) || !s.inBand(kx, ky) {
				s.specA[idx], s.specB[idx] = 0, 0
				continue
			}
			ik2 := 1 / float64(kx*kx+ky*ky)
			iw := complex(-imag(s.w[idx]), real(s.w[idx])) // i * what
			s.specA[idx] = complex(float64(ky)*ik2, 0) * iw
			s.specB[idx] = complex(-float64(kx)*ik2, 0) * iw
		}
	}
	recordPointwise(s.nloc * n)
}

// Step implements engine.Solver: one collective time step.
func (s *Turb2D) Step() {
	if s.Cfg.Forced {
		s.stepBasdevant()
	} else {
		s.stepConvective()
	}
	s.clk.Mark(3)
	s.clk.BeginCompute()
	s.update()
	s.clk.EndCompute()
	s.step++
	s.clk.Mark(4)
	s.diagnose()
	s.clk.Mark(-1)
}

// stepConvective computes the advection term u.grad(w) in specB via the
// convective form on the 3/2-padded grid: two paired padded inverse
// transforms ((u, v) and (dw/dx, dw/dy)), one pointwise product, one
// padded forward transform — three transforms a step. The padding makes
// the quadratic products exactly alias-free after truncation.
func (s *Turb2D) stepConvective() {
	n := s.Cfg.N
	s.clk.Mark(0)
	s.clk.BeginCompute()
	s.velocities()
	s.clk.EndCompute()
	s.plan.InversePadPair(s.specA, s.specB, s.physU, s.physV)
	s.clk.BeginCompute()
	for i := 0; i < s.nloc; i++ {
		ky := kAt(s.rank*s.nloc+i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			idx := i*n + j
			w := s.w[idx]
			iw := complex(-imag(w), real(w)) // i * what
			s.specA[idx] = complex(float64(kx), 0) * iw
			s.specB[idx] = complex(float64(ky), 0) * iw
		}
	}
	recordPointwise(s.nloc * n)
	s.clk.EndCompute()
	s.plan.InversePadPair(s.specA, s.specB, s.physA, s.physB)

	s.clk.Mark(1)
	s.clk.BeginCompute()
	np := len(s.physU)
	blas.Dvmul(np, s.physU, 1, s.physA, 1, s.physC, 1)
	blas.Dvmul(np, s.physV, 1, s.physB, 1, s.physA, 1)
	blas.Daxpy(np, 1, s.physA, 1, s.physC, 1)
	s.clk.EndCompute()

	s.clk.Mark(2)
	s.plan.ForwardPad(s.physC, s.specB)
}

// stepBasdevant computes the advection term in specB with Basdevant's
// 4-transform form under 2/3-rule truncation:
//
//	u.grad(w) = dxdy(v^2 - u^2) + (dxx - dyy)(u v)
//
// which needs only one paired inverse transform (u, v) and two forward
// transforms (the two products) — three transforms a step, all on the
// unpadded grid — at the cost of the sharper truncation band.
func (s *Turb2D) stepBasdevant() {
	n := s.Cfg.N
	s.clk.Mark(0)
	s.clk.BeginCompute()
	s.velocities()
	s.clk.EndCompute()
	s.plan.InversePair(s.specA, s.specB, s.physU, s.physV)

	s.clk.Mark(1)
	s.clk.BeginCompute()
	np := len(s.physU)
	blas.Dvmul(np, s.physV, 1, s.physV, 1, s.physA, 1)
	blas.Dvmul(np, s.physU, 1, s.physU, 1, s.physC, 1)
	blas.Daxpy(np, -1, s.physC, 1, s.physA, 1) // v^2 - u^2
	blas.Dvmul(np, s.physU, 1, s.physV, 1, s.physB, 1)
	s.clk.EndCompute()

	s.clk.Mark(2)
	s.plan.Forward(s.physA, s.specA)
	s.plan.Forward(s.physB, s.specB)
	s.clk.BeginCompute()
	for i := 0; i < s.nloc; i++ {
		ky := kAt(s.rank*s.nloc+i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			idx := i*n + j
			if !s.inBand(kx, ky) {
				s.specB[idx] = 0
				continue
			}
			fk := float64(kx * ky)
			gk := float64(ky*ky - kx*kx)
			s.specB[idx] = complex(-fk, 0)*s.specA[idx] + complex(gk, 0)*s.specB[idx]
		}
	}
	recordPointwise(s.nloc * n)
	s.clk.EndCompute()
}

// update applies the Crank-Nicolson / Adams-Bashforth step to the
// spectral vorticity, using the advection term left in specB, then the
// white-noise injection for the forced variant. The coefficients are
// forward Euler on the first step (no history yet), AB2 after.
func (s *Turb2D) update() {
	n, dt := s.Cfg.N, s.Cfg.Dt
	c1, c2 := 1.5, -0.5
	if s.step == 0 {
		c1, c2 = 1.0, 0.0
	}
	for i := 0; i < s.nloc; i++ {
		ky := kAt(s.rank*s.nloc+i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			idx := i*n + j
			adv := s.specB[idx]
			visc := s.nu * float64(kx*kx+ky*ky)
			num := complex(1-0.5*dt*visc, 0)*s.w[idx] -
				complex(dt, 0)*(complex(c1, 0)*adv+complex(c2, 0)*s.prevN[idx])
			s.w[idx] = num / complex(1+0.5*dt*visc, 0)
			s.prevN[idx] = adv
		}
	}
	recordPointwise(s.nloc * n)
	if s.Cfg.Forced {
		s.force()
	}
}

// force adds the white-noise banded injection: every mode whose shell
// round(|k|) falls in [lo, hi] receives amp*sqrt(dt)*exp(i theta) with
// theta hashed from (seed, step, canonical mode index) — deterministic,
// Hermitian-symmetric, and restart-safe because the step number keys
// the hash.
func (s *Turb2D) force() {
	n := s.Cfg.N
	amp := s.Cfg.ForceAmp * math.Sqrt(s.Cfg.Dt)
	stepKey := mix64(s.Cfg.Seed ^ mix64(uint64(s.step)+0x9e3779b97f4a7c15))
	for i := 0; i < s.nloc; i++ {
		g := s.rank*s.nloc + i
		ky := kAt(g, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if (kx == 0 && ky == 0) || !s.inBand(kx, ky) {
				continue
			}
			shell := int(math.Sqrt(float64(kx*kx+ky*ky)) + 0.5)
			if shell < s.Cfg.ForceLo || shell > s.Cfg.ForceHi {
				continue
			}
			gidx := uint64(g*n + j)
			pidx := uint64(((n-g)%n)*n + (n-j)%n)
			canon := gidx
			if pidx < canon {
				canon = pidx
			}
			theta := 2 * math.Pi * phase01(mix64(stepKey^mix64(canon+1)))
			val := complex(amp*math.Cos(theta), amp*math.Sin(theta))
			if gidx != canon {
				val = complex(real(val), -imag(val))
			}
			s.w[i*n+j] += val
		}
	}
	recordPointwise(s.nloc * n)
}
