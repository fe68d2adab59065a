package core

import (
	"fmt"

	"nektar/internal/blas"
	"nektar/internal/fft"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/solver"
	"nektar/internal/timing"
)

// NSFConfig configures the Fourier-parallel solver Nektar-F: a 2D
// spectral/hp mesh in (x, y) with a homogeneous z direction of length
// Lz expanded in Fourier modes. As in the paper, each MPI rank owns
// one complex Fourier mode — "two spectral/hp element planes" — so a
// P-processor run resolves Nz = 2P physical planes.
type NSFConfig struct {
	Nu    float64
	Dt    float64
	Order int
	Lz    float64

	// VelDirichlet applies to the mean (k = 0) mode; higher modes get
	// homogeneous Dirichlet on the same boundaries. The spanwise (w)
	// component is zero on all Dirichlet boundaries.
	VelDirichlet  map[string]VelBC
	PresDirichlet map[string]bool
}

// NSF is one rank's share of the Nektar-F solver.
type NSF struct {
	M    *mesh.Mesh
	Cfg  NSFConfig
	Comm *mpi.Comm

	K    int     // this rank's Fourier mode
	Beta float64 // wavenumber 2*pi*K/Lz

	// scale, when non-nil, runs the paper-scale extrapolation mode
	// (SetScale).
	scale *Scale

	AV, AP *mesh.Assembly
	helm   [2]*solver.Condensed
	pois   *solver.Condensed

	// U[c][p] is the global modal field of velocity component c
	// (0=u, 1=v, 2=w), part p (0=real, 1=imag).
	U    [3][2][]float64
	dirU [3][2][]float64
	P    [2][]float64

	histU, histN [][3][2][][]float64 // [level][comp][part][elem][quad]

	fluxEdges []*mesh.EdgeQuad

	// Quadrature-point partitioning for the Alltoall transposes.
	nqTot  int
	eOff   []int // element offsets into the flat quad-point index
	chunk  int   // points per rank (padded)
	rplan  *fft.RealPlan
	step   int
	stages *timing.Stages
	// clk charges simulated wall-clock per stage (cluster runs only),
	// including communication and idle time — the basis of the paper's
	// Figures 13-14 wall-clock breakdowns (stages.Wall).
	clk timing.Clock
}

// Stages exposes the per-stage instrumentation (engine.Solver).
func (ns *NSF) Stages() *timing.Stages { return ns.stages }

// NSFOperators is the read-only part of Nektar-F on one mesh and
// configuration: the mesh, the velocity and pressure assemblies and,
// per Fourier mode K, the two viscous Helmholtz operators and the
// pressure Poisson operator — the banded condensed factors the paper's
// Nektar-F builds once per mode. None of it depends on the rank count
// or the machine, so one NSFOperators serves every rank that holds a
// mode it has built, in any run of the same problem. Ranks only read
// it: the fields, right-hand sides and scratch of a step belong to the
// rank's NSF.
type NSFOperators struct {
	M      *mesh.Mesh
	Cfg    NSFConfig
	AV, AP *mesh.Assembly
	modes  map[int]*nsfMode
}

// nsfMode is the condensed operators of one Fourier mode.
type nsfMode struct {
	helm [2]*solver.Condensed // one per time order, lambda = beta^2 + gamma/(nu dt)
	pois *solver.Condensed    // lambda = beta^2
}

// NewNSFOperators numbers the mesh once for velocity and pressure and
// factors the condensed operators of each listed Fourier mode, sharing
// one set of elemental Laplacian and mass matrices among them.
func NewNSFOperators(m *mesh.Mesh, cfg NSFConfig, modes ...int) (*NSFOperators, error) {
	if cfg.Order < 1 || cfg.Order > 2 {
		return nil, fmt.Errorf("core: time order must be 1 or 2")
	}
	isVelD := func(tag string) bool { _, ok := cfg.VelDirichlet[tag]; return ok }
	isPresD := func(tag string) bool { return cfg.PresDirichlet[tag] }
	ops := &NSFOperators{M: m, Cfg: cfg,
		AV: mesh.NewAssembly(m, isVelD), AP: mesh.NewAssembly(m, isPresD),
		modes: make(map[int]*nsfMode, len(modes))}
	em := solver.NewElemMatrices(m)
	for _, k := range modes {
		if ops.modes[k] != nil {
			continue
		}
		b2 := modeBeta(k, cfg.Lz) * modeBeta(k, cfg.Lz)
		md := &nsfMode{}
		var err error
		for ord := 1; ord <= cfg.Order; ord++ {
			lambda := b2 + ssGamma[ord-1]/(cfg.Nu*cfg.Dt)
			md.helm[ord-1], err = solver.NewCondensed(ops.AV, em, lambda)
			if err != nil {
				return nil, fmt.Errorf("core: viscous operator: %w", err)
			}
		}
		md.pois, err = solver.NewCondensed(ops.AP, em, b2)
		if err != nil {
			return nil, fmt.Errorf("core: pressure operator: %w", err)
		}
		ops.modes[k] = md
	}
	return ops, nil
}

// modeBeta is the spanwise wavenumber 2*pi*K/Lz of Fourier mode K.
func modeBeta(k int, lz float64) float64 {
	return 2 * 3.141592653589793 * float64(k) / lz
}

// NewNSF constructs one rank of the Fourier-parallel solver, building
// the operators of its own mode. All ranks must use identical meshes
// and configuration.
func NewNSF(m *mesh.Mesh, cfg NSFConfig, comm *mpi.Comm, cpu *machine.CPU) (*NSF, error) {
	ops, err := NewNSFOperators(m, cfg, comm.Rank())
	if err != nil {
		return nil, err
	}
	return ops.NewRank(comm, cpu)
}

// NewRank constructs one rank of the Fourier-parallel solver on the
// shared operators: the rank holds Fourier mode comm.Rank(), which ops
// must have built, and allocates its own fields.
func (ops *NSFOperators) NewRank(comm *mpi.Comm, cpu *machine.CPU) (*NSF, error) {
	m, cfg := ops.M, ops.Cfg
	p := comm.Size()
	nz := 2 * p
	if nz&(nz-1) != 0 {
		return nil, fmt.Errorf("core: Nektar-F needs a power-of-two plane count, got %d ranks", p)
	}
	md := ops.modes[comm.Rank()]
	if md == nil {
		return nil, fmt.Errorf("core: no operators built for Fourier mode %d", comm.Rank())
	}
	ns := &NSF{
		M: m, Cfg: cfg, Comm: comm,
		K:      comm.Rank(),
		stages: timing.NewStages(StageNames...),
		AV:     ops.AV, AP: ops.AP,
		helm: md.helm, pois: md.pois,
	}
	ns.clk = timing.NewClock(ns.stages, comm.Wtime)
	if cpu != nil {
		ns.clk.Price(func(c *blas.Counts, stage int) float64 {
			return cpu.ApplicationSeconds(c) * ns.scale.stage(stage)
		}, comm.Compute)
	}
	ns.Beta = modeBeta(ns.K, cfg.Lz)
	isPresD := func(tag string) bool { return cfg.PresDirichlet[tag] }

	for _, be := range m.BndEdges {
		if !isPresD(be.Tag) {
			ns.fluxEdges = append(ns.fluxEdges, mesh.NewEdgeQuad(m, m.Elems[be.Elem], be.LocalEdge, 0))
		}
	}

	// Dirichlet: mean mode carries the physical BCs; higher modes and
	// all imaginary parts are homogeneous.
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			ns.dirU[c][part] = make([]float64, ns.AV.NGlobal)
			ns.U[c][part] = make([]float64, ns.AV.NGlobal)
		}
	}
	if ns.K == 0 {
		for c := 0; c < 2; c++ {
			cc := c
			for _, be := range m.BndEdges {
				bc, ok := cfg.VelDirichlet[be.Tag]
				if !ok {
					continue
				}
				ns.AV.ProjectEdgeTrace(be, func(x, y float64) float64 {
					u, v := bc(x, y)
					if cc == 0 {
						return u
					}
					return v
				}, ns.dirU[c][0])
			}
		}
	}
	ns.P[0] = make([]float64, ns.AP.NGlobal)
	ns.P[1] = make([]float64, ns.AP.NGlobal)

	// Flat quad-point layout for the transposes.
	ns.eOff = make([]int, len(m.Elems)+1)
	for ei, el := range m.Elems {
		ns.eOff[ei+1] = ns.eOff[ei] + el.Ref.NQuad
	}
	ns.nqTot = ns.eOff[len(m.Elems)]
	ns.chunk = (ns.nqTot + p - 1) / p
	var err error
	ns.rplan, err = fft.NewRealPlan(nz)
	if err != nil {
		return nil, err
	}
	return ns, nil
}

// SetScale enables paper-scale extrapolation: per-stage compute
// multipliers plus the transpose message-size (phantom) factor.
func (ns *NSF) SetScale(sc *Scale) {
	ns.scale = sc
	if sc != nil {
		ns.Comm.SetPhantomFactor(sc.Comm)
	}
}

// SetUniformInitial sets the mean mode to a constant (u, v, 0) field
// and zeroes all higher modes (impulsive start).
func (ns *NSF) SetUniformInitial(u, v float64) {
	vals := [3]float64{u, v, 0}
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			vec := make([]float64, ns.AV.NGlobal)
			if ns.K == 0 && part == 0 {
				for _, d := range ns.AV.VertDof {
					vec[d] = vals[c]
				}
			}
			copy(vec[ns.AV.NSolve:], ns.dirU[c][part][ns.AV.NSolve:])
			ns.U[c][part] = vec
		}
	}
	ns.histU, ns.histN = nil, nil
	ns.step = 0
}

// PerturbMode adds a small solenoidal-ish disturbance to this rank's
// mode (used to seed three-dimensionality in tests and examples).
func (ns *NSF) PerturbMode(amp float64) {
	if ns.K == 0 {
		return
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < ns.AV.NSolve; i++ {
			ns.U[c][0][i] += amp * float64((i*7+c*3)%13-6) / 13
		}
	}
}

// Step advances one time step on every rank collectively.
func (ns *NSF) Step() {
	m := ns.M
	nel := len(m.Elems)
	ord := schemeOrder(ns.step, ns.Cfg.Order)
	alpha, beta := ssAlpha[ord-1], ssBeta[ord-1]
	dt, nu := ns.Cfg.Dt, ns.Cfg.Nu

	// --- Stage 1: modal -> quadrature transforms.
	ns.clk.Mark(0)
	ns.clk.BeginCompute()
	coefs := make([][3][2][]float64, nel)
	uq := make([][3][2][]float64, nel)
	for ei, el := range m.Elems {
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				coef := make([]float64, el.Ref.NModes)
				ns.AV.Scatter(ei, ns.U[c][part], coef)
				phys := make([]float64, el.Ref.NQuad)
				el.BwdTrans(coef, phys)
				coefs[ei][c][part] = coef
				uq[ei][c][part] = phys
			}
		}
	}
	ns.clk.EndCompute()

	// --- Stage 2: nonlinear terms, pseudo-spectrally in z.
	ns.clk.Mark(1)
	nq2 := ns.nonlinear(coefs, uq)

	// --- Stage 3: weight-averaging.
	ns.clk.Mark(2)
	ns.clk.BeginCompute()
	ns.histN = pushHistory3(ns.histN, nq2, ord)
	ns.histU = pushHistory3(ns.histU, uq, ord)
	uhat := make([][3][2][]float64, nel)
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				h := make([]float64, nq)
				for j := 0; j < ord; j++ {
					blas.Daxpy(nq, alpha[j], ns.histU[j][c][part][ei], 1, h, 1)
					blas.Daxpy(nq, dt*beta[j], ns.histN[j][c][part][ei], 1, h, 1)
				}
				uhat[ei][c][part] = h
			}
		}
	}
	ns.clk.EndCompute()

	// --- Stage 4: pressure RHS (both parts). The z-divergence term
	// ik w_hat couples the real and imaginary parts.
	ns.clk.Mark(3)
	ns.clk.BeginCompute()
	prhs := [2][]float64{make([]float64, ns.AP.NGlobal), make([]float64, ns.AP.NGlobal)}
	for ei, el := range m.Elems {
		n, nq := el.Ref.NModes, el.Ref.NQuad
		tmp := make([]float64, nq)
		dpar := make([]float64, nq)
		for part := 0; part < 2; part++ {
			out := make([]float64, n)
			for c := 0; c < 2; c++ {
				blas.Dvmul(nq, uhat[ei][c][part], 1, el.WJ, 1, tmp, 1)
				for d := 0; d < 2; d++ {
					blas.Dvmul(nq, tmp, 1, el.DxiDx[d][c], 1, dpar, 1)
					el.Ref.IProductDerivAdd(d, 1.0/dt, dpar, out)
				}
			}
			// -(1/dt) * Re/Im(ik w_hat) term: Re = -beta*w_im,
			// Im = +beta*w_re.
			zsgn := -1.0
			other := 1
			if part == 1 {
				zsgn = 1.0
				other = 0
			}
			if ns.Beta != 0 {
				blas.Dvmul(nq, uhat[ei][2][other], 1, el.WJ, 1, tmp, 1)
				iw := make([]float64, n)
				el.Ref.IProductPhys(tmp, iw)
				blas.Daxpy(n, -zsgn*ns.Beta/dt, iw, 1, out, 1)
			}
			ns.AP.Gather(ei, out, prhs[part])
		}
	}
	// Boundary flux on pressure-Neumann edges, trace taken directly
	// from the quadrature values.
	for _, eq := range ns.fluxEdges {
		el := eq.Elem
		q1 := len(eq.Points1D)
		tr := make([]float64, q1)
		for part := 0; part < 2; part++ {
			g := make([]float64, q1)
			for c := 0; c < 2; c++ {
				eq.EvalPhys(uhat[el.ID][c][part], tr)
				nrm := eq.Nx
				if c == 1 {
					nrm = eq.Ny
				}
				blas.Daxpy(q1, nrm, tr, 1, g, 1)
			}
			blas.Dscal(q1, -1/dt, g, 1)
			out := make([]float64, el.Ref.NModes)
			eq.AccumulateFlux(g, out)
			ns.AP.Gather(el.ID, out, prhs[part])
		}
	}
	ns.clk.EndCompute()

	// --- Stage 5: pressure solves (real and imaginary share the same
	// factored matrix, the memory saving the paper highlights).
	ns.clk.Mark(4)
	ns.clk.BeginCompute()
	for part := 0; part < 2; part++ {
		ns.P[part] = ns.pois.Solve(prhs[part], nil)
	}
	ns.clk.EndCompute()

	// --- Stage 6: viscous RHS.
	ns.clk.Mark(5)
	ns.clk.BeginCompute()
	var vrhs [3][2][]float64
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			vrhs[c][part] = make([]float64, ns.AV.NGlobal)
		}
	}
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		var gradP [2][][]float64 // [part][dim]
		var pq [2][]float64
		pcoef := make([]float64, el.Ref.NModes)
		for part := 0; part < 2; part++ {
			ns.AP.Scatter(ei, ns.P[part], pcoef)
			g := [][]float64{make([]float64, nq), make([]float64, nq)}
			el.PhysGrad(pcoef, g)
			gradP[part] = g
			phys := make([]float64, nq)
			el.BwdTrans(pcoef, phys)
			pq[part] = phys
		}
		out := make([]float64, el.Ref.NModes)
		f := make([]float64, nq)
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				blas.Dcopy(nq, uhat[ei][c][part], 1, f, 1)
				switch {
				case c < 2:
					blas.Daxpy(nq, -dt, gradP[part][c], 1, f, 1)
				default:
					// dp/dz = ik p: Re = -beta p_im, Im = beta p_re.
					if ns.Beta != 0 {
						zsgn := -ns.Beta
						other := 1
						if part == 1 {
							zsgn = ns.Beta
							other = 0
						}
						blas.Daxpy(nq, -dt*zsgn, pq[other], 1, f, 1)
					}
				}
				blas.Dscal(nq, 1/(nu*dt), f, 1)
				el.IProduct(f, out)
				ns.AV.Gather(ei, out, vrhs[c][part])
			}
		}
	}
	ns.clk.EndCompute()

	// --- Stage 7: viscous Helmholtz solves (6 per step).
	ns.clk.Mark(6)
	ns.clk.BeginCompute()
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			ns.U[c][part] = ns.helm[ord-1].Solve(vrhs[c][part], ns.dirU[c][part])
		}
	}
	ns.clk.EndCompute()
	ns.clk.Mark(-1)
	ns.step++
}

// StepCount returns the number of completed time steps.
func (ns *NSF) StepCount() int { return ns.step }

// nonlinear computes N = -(V.grad)V pseudo-spectrally: spectral x-y
// derivatives, ik z-derivatives, a global transpose (MPI_Alltoall), Nz
// 1D FFTs per point, pointwise products, and the reverse path — the
// paper's communication-dominated stage 2.
func (ns *NSF) nonlinear(coefs, uq [][3][2][]float64) [][3][2][]float64 {
	m := ns.M
	p := ns.Comm.Size()
	nz := 2 * p
	nel := len(m.Elems)

	// 12 complex fields: u, v, w, then the 9 gradient components in
	// order d(u,v,w)/dx, /dy, /dz.
	const nf = 12
	ns.clk.BeginCompute()
	flat := make([][2][]float64, nf)
	for f := 0; f < nf; f++ {
		flat[f][0] = make([]float64, ns.chunk*p)
		flat[f][1] = make([]float64, ns.chunk*p)
	}
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		off := ns.eOff[ei]
		grad := [][]float64{make([]float64, nq), make([]float64, nq)}
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				copy(flat[c][part][off:off+nq], uq[ei][c][part])
			}
			for part := 0; part < 2; part++ {
				el.PhysGrad(coefs[ei][c][part], grad)
				copy(flat[3+c][part][off:off+nq], grad[0]) // d/dx
				copy(flat[6+c][part][off:off+nq], grad[1]) // d/dy
			}
			// d/dz = ik u: Re = -beta u_im, Im = beta u_re.
			zre := flat[9+c][0][off : off+nq]
			zim := flat[9+c][1][off : off+nq]
			if ns.Beta != 0 {
				blas.Daxpy(nq, -ns.Beta, uq[ei][c][1], 1, zre, 1)
				blas.Daxpy(nq, ns.Beta, uq[ei][c][0], 1, zim, 1)
			}
		}
	}
	// Pack per-destination buffers: 24 values per point (12 fields x
	// re/im).
	send := make([][]float64, p)
	for j := 0; j < p; j++ {
		buf := make([]float64, 2*nf*ns.chunk)
		for f := 0; f < nf; f++ {
			copy(buf[(2*f)*ns.chunk:], flat[f][0][j*ns.chunk:(j+1)*ns.chunk])
			copy(buf[(2*f+1)*ns.chunk:], flat[f][1][j*ns.chunk:(j+1)*ns.chunk])
		}
		send[j] = buf
	}
	ns.clk.EndCompute()

	// Global exchange: spectral (mode-distributed) -> physical
	// (point-distributed).
	recv := ns.Comm.Alltoall(send, mpi.AlgAuto)

	// Inverse FFTs, products, forward FFTs.
	ns.clk.BeginCompute()
	myPts := ns.chunkLen()
	phys := make([][][]float64, nf) // [field][point][z]
	spec := make([]complex128, p+1)
	for f := 0; f < nf; f++ {
		phys[f] = make([][]float64, myPts)
		for q := 0; q < myPts; q++ {
			for mode := 0; mode < p; mode++ {
				buf := recv[mode]
				spec[mode] = complex(buf[(2*f)*ns.chunk+q], buf[(2*f+1)*ns.chunk+q])
			}
			spec[p] = 0 // Nyquist
			z := make([]float64, nz)
			ns.rplan.Inverse(spec, z)
			// Stored coefficients follow the Fourier-series convention
			// (u(z) = sum u_k exp(ik beta z), u_0 = mean), so physical
			// values are Nz times the normalized inverse DFT.
			blas.Dscal(nz, float64(nz), z, 1)
			phys[f][q] = z
		}
	}
	// N_c = -(u * dc/dx + v * dc/dy + w * dc/dz) pointwise in z
	// (BLAS element-wise kernels, so the work is recorded and priced).
	nl := make([][][]float64, 3)
	tmpz := make([]float64, nz)
	for c := 0; c < 3; c++ {
		nl[c] = make([][]float64, myPts)
		for q := 0; q < myPts; q++ {
			out := make([]float64, nz)
			u, v, w := phys[0][q], phys[1][q], phys[2][q]
			cx, cy, cz := phys[3+c][q], phys[6+c][q], phys[9+c][q]
			blas.Dvmul(nz, u, 1, cx, 1, out, 1)
			blas.Dvmul(nz, v, 1, cy, 1, tmpz, 1)
			blas.Daxpy(nz, 1, tmpz, 1, out, 1)
			blas.Dvmul(nz, w, 1, cz, 1, tmpz, 1)
			blas.Daxpy(nz, 1, tmpz, 1, out, 1)
			blas.Dscal(nz, -1, out, 1)
			nl[c][q] = out
		}
	}
	// Forward FFTs and pack the return exchange: 6 values per point
	// (3 components x re/im).
	back := make([][]float64, p)
	for j := 0; j < p; j++ {
		back[j] = make([]float64, 6*ns.chunk)
	}
	outSpec := make([]complex128, p+1)
	for c := 0; c < 3; c++ {
		for q := 0; q < myPts; q++ {
			ns.rplan.Forward(nl[c][q], outSpec)
			scale := 1 / float64(nz) // forward transform normalization
			for mode := 0; mode < p; mode++ {
				back[mode][(2*c)*ns.chunk+q] = real(outSpec[mode]) * scale
				back[mode][(2*c+1)*ns.chunk+q] = imag(outSpec[mode]) * scale
			}
		}
	}
	ns.clk.EndCompute()

	// Global exchange back: physical -> spectral.
	got := ns.Comm.Alltoall(back, mpi.AlgAuto)

	ns.clk.BeginCompute()
	nq2 := make([][3][2][]float64, nel)
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		off := ns.eOff[ei]
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				vals := make([]float64, nq)
				for q := 0; q < nq; q++ {
					gq := off + q
					j := gq / ns.chunk
					lq := gq % ns.chunk
					vals[q] = got[j][(2*c+part)*ns.chunk+lq]
				}
				nq2[ei][c][part] = vals
			}
		}
	}
	ns.clk.EndCompute()
	return nq2
}

// chunkLen returns the number of quad points this rank owns in the
// transpose layout.
func (ns *NSF) chunkLen() int {
	lo := ns.K * ns.chunk
	hi := lo + ns.chunk
	if hi > ns.nqTot {
		hi = ns.nqTot
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

func pushHistory3(hist [][3][2][][]float64, newest [][3][2][]float64, depth int) [][3][2][][]float64 {
	var lvl [3][2][][]float64
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			lvl[c][part] = make([][]float64, len(newest))
			for ei := range newest {
				lvl[c][part][ei] = newest[ei][c][part]
			}
		}
	}
	hist = append([][3][2][][]float64{lvl}, hist...)
	if len(hist) > depth {
		hist = hist[:depth]
	}
	return hist
}

// ModeEnergy returns the L2 energy of this rank's Fourier mode
// (integral over the 2D plane of |u_k|^2 summed over components).
func (ns *NSF) ModeEnergy() float64 {
	var e float64
	for ei, el := range ns.M.Elems {
		coef := make([]float64, el.Ref.NModes)
		phys := make([]float64, el.Ref.NQuad)
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				ns.AV.Scatter(ei, ns.U[c][part], coef)
				el.BwdTrans(coef, phys)
				for q := 0; q < el.Ref.NQuad; q++ {
					e += phys[q] * phys[q] * el.WJ[q]
				}
			}
		}
	}
	return e
}
