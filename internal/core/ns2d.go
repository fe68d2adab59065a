package core

import (
	"fmt"
	"io"
	"math"

	"nektar/internal/blas"
	"nektar/internal/mesh"
	"nektar/internal/solver"
	"nektar/internal/timing"
)

// VelBC is a velocity Dirichlet boundary condition.
type VelBC func(x, y float64) (u, v float64)

// ConstantVel returns a constant-velocity boundary condition.
func ConstantVel(u, v float64) VelBC {
	return func(x, y float64) (float64, float64) { return u, v }
}

// NS2DConfig configures the serial 2D Navier-Stokes solver.
type NS2DConfig struct {
	Nu    float64 // kinematic viscosity
	Dt    float64
	Order int // time-integration order (1 or 2; ramps up from 1)

	// VelDirichlet maps boundary tags to essential velocity values;
	// untagged boundaries get natural (zero-flux) conditions, the
	// paper's outflow/side treatment.
	VelDirichlet map[string]VelBC
	// PresDirichlet lists tags where p = 0 is imposed (outflow).
	PresDirichlet map[string]bool
}

// NS2D is the serial unstructured spectral/hp element incompressible
// Navier-Stokes solver (the paper's serial bluff-body benchmark code).
type NS2D struct {
	M   *mesh.Mesh
	Cfg NS2DConfig

	AV *mesh.Assembly // velocity numbering (Dirichlet on walls/inflow)
	AP *mesh.Assembly // pressure numbering (Dirichlet on outflow)

	helm [2]*solver.Condensed // viscous operators for order-1 and order-2 gamma0
	pois *solver.Condensed

	U    [2][]float64 // global modal velocity
	dirU [2][]float64 // velocity Dirichlet values

	// Histories at quadrature points, newest first: velocities and
	// nonlinear terms for the multistep scheme.
	histU [][2][][]float64
	histN [][2][][]float64

	// Pressure-Neumann boundary edges (everything not
	// pressure-Dirichlet) for the flux term of the Poisson RHS.
	fluxEdges []*mesh.EdgeQuad
	wallEdges []*mesh.EdgeQuad // tag "wall", for force output

	P []float64 // latest pressure (global modal)

	step   int
	stages *timing.Stages

	scr ns2dScratch // Step workspace, reused across steps
}

// ns2dScratch is Step's reusable workspace. Every buffer here is either
// fully overwritten before it is read or explicitly zeroed where a
// stage accumulates into it, so reuse is bit-identical to the fresh
// allocations it replaces. The velocity and nonlinear quadrature fields
// (uq, nq2) are deliberately NOT here: pushHistory retains their inner
// slices across steps for the multistep scheme.
type ns2dScratch struct {
	coefs [][2][]float64 // per-element modal velocity
	uhat  [][2][]float64 // per-element u_hat at quadrature
	grad  [][]float64    // PhysGrad output pair (max NQuad)
	gradP [][]float64
	tmp   []float64 // max NQuad
	dpar  []float64
	f     []float64
	out   []float64 // max NModes
	pcoef []float64
	g     []float64 // max edge quadrature points
	tr    []float64
	prhs  []float64    // AP.NGlobal
	vrhs  [2][]float64 // AV.NGlobal
}

// ensureScratch builds the workspace on first use (it is not part of
// the checkpointed state, so a restored solver rebuilds it lazily).
func (ns *NS2D) ensureScratch() *ns2dScratch {
	s := &ns.scr
	if s.coefs != nil {
		return s
	}
	nel := len(ns.M.Elems)
	s.coefs = make([][2][]float64, nel)
	s.uhat = make([][2][]float64, nel)
	maxNQ, maxNM := 0, 0
	for ei, el := range ns.M.Elems {
		for c := 0; c < 2; c++ {
			s.coefs[ei][c] = make([]float64, el.Ref.NModes)
			s.uhat[ei][c] = make([]float64, el.Ref.NQuad)
		}
		maxNQ = max(maxNQ, el.Ref.NQuad)
		maxNM = max(maxNM, el.Ref.NModes)
	}
	maxQ1 := 0
	for _, eq := range ns.fluxEdges {
		maxQ1 = max(maxQ1, len(eq.Points1D))
	}
	s.grad = [][]float64{make([]float64, maxNQ), make([]float64, maxNQ)}
	s.gradP = [][]float64{make([]float64, maxNQ), make([]float64, maxNQ)}
	s.tmp = make([]float64, maxNQ)
	s.dpar = make([]float64, maxNQ)
	s.f = make([]float64, maxNQ)
	s.out = make([]float64, maxNM)
	s.pcoef = make([]float64, maxNM)
	s.g = make([]float64, maxQ1)
	s.tr = make([]float64, maxQ1)
	s.prhs = make([]float64, ns.AP.NGlobal)
	s.vrhs = [2][]float64{make([]float64, ns.AV.NGlobal), make([]float64, ns.AV.NGlobal)}
	return s
}

// zerof clears a scratch buffer with a plain loop. Not a BLAS call on
// purpose: the recorded operation counts price the simulated machines,
// and buffer reuse must not change what the fresh make() used to cost.
func zerof(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Stages exposes the per-stage instrumentation (engine.Solver).
func (ns *NS2D) Stages() *timing.Stages { return ns.stages }

// NewNS2D builds the solver: assemblies, boundary tabulations and the
// factored global operators.
func NewNS2D(m *mesh.Mesh, cfg NS2DConfig) (*NS2D, error) {
	if cfg.Order < 1 || cfg.Order > 2 {
		return nil, fmt.Errorf("core: time order must be 1 or 2, got %d", cfg.Order)
	}
	if cfg.Nu <= 0 || cfg.Dt <= 0 {
		return nil, fmt.Errorf("core: need positive Nu and Dt")
	}
	ns := &NS2D{M: m, Cfg: cfg, stages: timing.NewStages(StageNames...)}
	isVelD := func(tag string) bool { _, ok := cfg.VelDirichlet[tag]; return ok }
	isPresD := func(tag string) bool { return cfg.PresDirichlet[tag] }
	ns.AV = mesh.NewAssembly(m, isVelD)
	ns.AP = mesh.NewAssembly(m, isPresD)

	em := solver.NewElemMatrices(m)
	var err error
	for ord := 1; ord <= cfg.Order; ord++ {
		lambda := ssGamma[ord-1] / (cfg.Nu * cfg.Dt)
		ns.helm[ord-1], err = solver.NewCondensed(ns.AV, em, lambda)
		if err != nil {
			return nil, fmt.Errorf("core: viscous operator: %w", err)
		}
	}
	ns.pois, err = solver.NewCondensed(ns.AP, em, 0)
	if err != nil {
		return nil, fmt.Errorf("core: pressure operator: %w", err)
	}

	for _, be := range m.BndEdges {
		eq := mesh.NewEdgeQuad(m, m.Elems[be.Elem], be.LocalEdge, 0)
		if !isPresD(be.Tag) {
			ns.fluxEdges = append(ns.fluxEdges, eq)
		}
		if be.Tag == "wall" {
			ns.wallEdges = append(ns.wallEdges, eq)
		}
	}

	// Dirichlet values per velocity component.
	for c := 0; c < 2; c++ {
		cc := c
		ns.dirU[c] = make([]float64, ns.AV.NGlobal)
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
			}, ns.dirU[c])
		}
		ns.U[c] = make([]float64, ns.AV.NGlobal)
	}
	ns.P = make([]float64, ns.AP.NGlobal)
	return ns, nil
}

// SetInitial projects an initial velocity field. Vertex dofs take
// nodal values and higher modes are set by per-element Galerkin
// projection averaged across elements (a practical C0 interpolant).
func (ns *NS2D) SetInitial(f func(x, y float64) (u, v float64)) {
	for c := 0; c < 2; c++ {
		acc := make([]float64, ns.AV.NGlobal)
		wgt := make([]float64, ns.AV.NGlobal)
		cc := c
		for ei, el := range ns.M.Elems {
			nq := el.Ref.NQuad
			phys := make([]float64, nq)
			for q := 0; q < nq; q++ {
				u, v := f(el.X[0][q], el.X[1][q])
				if cc == 0 {
					phys[q] = u
				} else {
					phys[q] = v
				}
			}
			coef := make([]float64, el.Ref.NModes)
			el.FwdTrans(phys, coef)
			l2g, sign := ns.AV.L2G[ei], ns.AV.Sign[ei]
			for mi, g := range l2g {
				acc[g] += sign[mi] * coef[mi]
				wgt[g]++
			}
		}
		for i := range acc {
			if wgt[i] > 0 {
				acc[i] /= wgt[i]
			}
		}
		// Dirichlet entries come from the boundary projection, not the
		// interior average.
		copy(acc[ns.AV.NSolve:], ns.dirU[c][ns.AV.NSolve:])
		ns.U[c] = acc
	}
	ns.histU = nil
	ns.histN = nil
	ns.step = 0
}

// SetUniformInitial initializes with a constant velocity (impulsive
// start), exactly representable by the vertex modes.
func (ns *NS2D) SetUniformInitial(u, v float64) {
	vals := [2]float64{u, v}
	for c := 0; c < 2; c++ {
		vec := make([]float64, ns.AV.NGlobal)
		for _, d := range ns.AV.VertDof {
			vec[d] = vals[c]
		}
		copy(vec[ns.AV.NSolve:], ns.dirU[c][ns.AV.NSolve:])
		ns.U[c] = vec
	}
	ns.histU = nil
	ns.histN = nil
	ns.step = 0
}

// Step advances the solution by one time step through the seven
// instrumented stages.
func (ns *NS2D) Step() {
	m := ns.M
	nel := len(m.Elems)
	ord := schemeOrder(ns.step, ns.Cfg.Order)
	alpha := ssAlpha[ord-1]
	beta := ssBeta[ord-1]
	dt, nu := ns.Cfg.Dt, ns.Cfg.Nu
	st := ns.stages
	scr := ns.ensureScratch()

	// --- Stage 1: modal -> quadrature transforms.
	st.Begin(0)
	coefs := scr.coefs
	uq := make([][2][]float64, nel)
	for ei, el := range m.Elems {
		for c := 0; c < 2; c++ {
			coef := coefs[ei][c]
			ns.AV.Scatter(ei, ns.U[c], coef)
			// phys stays freshly allocated: pushHistory retains it.
			phys := make([]float64, el.Ref.NQuad)
			el.BwdTrans(coef, phys)
			uq[ei][c] = phys
		}
	}

	// --- Stage 2: nonlinear terms N = -(V.grad)V in quadrature space.
	st.Begin(1)
	nq2 := make([][2][]float64, nel)
	grad := scr.grad
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		for c := 0; c < 2; c++ {
			el.PhysGrad(coefs[ei][c], grad)
			// nl stays freshly allocated: pushHistory retains it.
			nl := make([]float64, nq)
			// nl = -(u * du_c/dx + v * du_c/dy)
			blas.Dvmul(nq, uq[ei][0], 1, grad[0], 1, nl, 1)
			blas.Dvmul(nq, uq[ei][1], 1, grad[1], 1, scr.tmp, 1)
			blas.Daxpy(nq, 1, scr.tmp, 1, nl, 1)
			blas.Dscal(nq, -1, nl, 1)
			nq2[ei][c] = nl
		}
	}

	// --- Stage 3: weight-average nonlinear history and build u_hat.
	st.Begin(2)
	ns.histN = pushHistory(ns.histN, nq2, ord)
	ns.histU = pushHistory(ns.histU, uq, ord)
	uhat := scr.uhat
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		for c := 0; c < 2; c++ {
			h := uhat[ei][c]
			zerof(h)
			for j := 0; j < ord; j++ {
				blas.Daxpy(nq, alpha[j], ns.histU[j][c][ei], 1, h, 1)
				blas.Daxpy(nq, dt*beta[j], ns.histN[j][c][ei], 1, h, 1)
			}
		}
	}

	// --- Stage 4: pressure Poisson RHS: (1/dt) [ int u_hat . grad(phi)
	// - boundary flux ].
	st.Begin(3)
	prhs := scr.prhs
	zerof(prhs)
	for ei, el := range m.Elems {
		n, nq := el.Ref.NModes, el.Ref.NQuad
		out := scr.out[:n]
		zerof(out)
		for c := 0; c < 2; c++ {
			// tmp = u_hat_c * WJ
			blas.Dvmul(nq, uhat[ei][c], 1, el.WJ, 1, scr.tmp, 1)
			// out[m] += sum_q dphi_m/dx_c(q) tmp[q], via parametric
			// derivatives and the metric (sum-factorized).
			for d := 0; d < 2; d++ {
				blas.Dvmul(nq, scr.tmp, 1, el.DxiDx[d][c], 1, scr.dpar, 1)
				el.Ref.IProductDerivAdd(d, 1.0/dt, scr.dpar, out)
			}
		}
		ns.AP.Gather(ei, out, prhs)
	}
	// Boundary flux on pressure-Neumann edges: -(1/dt) u_hat.n phi,
	// with the trace extracted directly from the quadrature values.
	for _, eq := range ns.fluxEdges {
		el := eq.Elem
		q1 := len(eq.Points1D)
		g := scr.g[:q1]
		zerof(g)
		tr := scr.tr[:q1]
		for c := 0; c < 2; c++ {
			eq.EvalPhys(uhat[el.ID][c], tr)
			nrm := eq.Nx
			if c == 1 {
				nrm = eq.Ny
			}
			blas.Daxpy(q1, nrm, tr, 1, g, 1)
		}
		blas.Dscal(q1, -1/dt, g, 1)
		out := scr.out[:el.Ref.NModes]
		zerof(out)
		eq.AccumulateFlux(g, out)
		ns.AP.Gather(el.ID, out, prhs)
	}

	// --- Stage 5: pressure solve.
	st.Begin(4)
	ns.P = ns.pois.Solve(prhs, nil)

	// --- Stage 6: viscous RHS: f = (u_hat - dt grad p) / (nu dt).
	st.Begin(5)
	vrhs := scr.vrhs
	zerof(vrhs[0])
	zerof(vrhs[1])
	for ei, el := range m.Elems {
		nq := el.Ref.NQuad
		pcoef := scr.pcoef[:el.Ref.NModes]
		ns.AP.Scatter(ei, ns.P, pcoef)
		gradP := scr.gradP
		el.PhysGrad(pcoef, gradP)
		// out is fully overwritten by IProduct, f by Dcopy: no zeroing.
		out := scr.out[:el.Ref.NModes]
		f := scr.f[:nq]
		for c := 0; c < 2; c++ {
			blas.Dcopy(nq, uhat[ei][c], 1, f, 1)
			blas.Daxpy(nq, -dt, gradP[c], 1, f, 1)
			blas.Dscal(nq, 1/(nu*dt), f, 1)
			el.IProduct(f, out)
			ns.AV.Gather(ei, out, vrhs[c])
		}
	}

	// --- Stage 7: viscous Helmholtz solves.
	st.Begin(6)
	for c := 0; c < 2; c++ {
		ns.U[c] = ns.helm[ord-1].Solve(vrhs[c], ns.dirU[c])
	}
	st.End()

	ns.step++
}

// pushHistory prepends the newest level and truncates to depth.
func pushHistory(hist [][2][][]float64, newest [][2][]float64, depth int) [][2][][]float64 {
	lvl := [2][][]float64{}
	for c := 0; c < 2; c++ {
		lvl[c] = make([][]float64, len(newest))
		for ei := range newest {
			lvl[c][ei] = newest[ei][c]
		}
	}
	hist = append([][2][][]float64{lvl}, hist...)
	if len(hist) > depth {
		hist = hist[:depth]
	}
	return hist
}

// Velocity evaluates the current velocity at the quadrature points of
// element ei.
func (ns *NS2D) Velocity(ei int) (u, v []float64) {
	el := ns.M.Elems[ei]
	coef := make([]float64, el.Ref.NModes)
	u = make([]float64, el.Ref.NQuad)
	v = make([]float64, el.Ref.NQuad)
	ns.AV.Scatter(ei, ns.U[0], coef)
	el.BwdTrans(coef, u)
	ns.AV.Scatter(ei, ns.U[1], coef)
	el.BwdTrans(coef, v)
	return u, v
}

// KineticEnergy returns 0.5 * integral |u|^2 over the domain.
func (ns *NS2D) KineticEnergy() float64 {
	var ke float64
	for ei, el := range ns.M.Elems {
		u, v := ns.Velocity(ei)
		for q := 0; q < el.Ref.NQuad; q++ {
			ke += 0.5 * (u[q]*u[q] + v[q]*v[q]) * el.WJ[q]
		}
	}
	return ke
}

// MaxDivergence returns the maximum pointwise |div u| over all
// quadrature points — the splitting scheme keeps it small but nonzero.
func (ns *NS2D) MaxDivergence() float64 {
	var worst float64
	for ei, el := range ns.M.Elems {
		coef := make([]float64, el.Ref.NModes)
		grad := [][]float64{make([]float64, el.Ref.NQuad), make([]float64, el.Ref.NQuad)}
		div := make([]float64, el.Ref.NQuad)
		ns.AV.Scatter(ei, ns.U[0], coef)
		el.PhysGrad(coef, grad)
		copy(div, grad[0])
		ns.AV.Scatter(ei, ns.U[1], coef)
		el.PhysGrad(coef, grad)
		for q := range div {
			div[q] += grad[1][q]
			if a := math.Abs(div[q]); a > worst {
				worst = a
			}
		}
	}
	return worst
}

// Forces integrates the fluid stress over the "wall" boundary,
// returning the drag (x) and lift (y) force components:
// F = integral( -p n + nu (grad u + grad u^T) . n ) ds.
func (ns *NS2D) Forces() (fx, fy float64) {
	nu := ns.Cfg.Nu
	for _, eq := range ns.wallEdges {
		el := eq.Elem
		q1 := len(eq.Points1D)
		// Pressure trace.
		pcoef := make([]float64, el.Ref.NModes)
		ns.AP.Scatter(el.ID, ns.P, pcoef)
		ptr := make([]float64, q1)
		eq.Eval(pcoef, ptr)
		// Velocity gradient traces: project du/dx_c to modal, take
		// edge trace.
		var gtr [2][2][]float64
		coef := make([]float64, el.Ref.NModes)
		grad := [][]float64{make([]float64, el.Ref.NQuad), make([]float64, el.Ref.NQuad)}
		gcoef := make([]float64, el.Ref.NModes)
		for c := 0; c < 2; c++ {
			ns.AV.Scatter(el.ID, ns.U[c], coef)
			el.PhysGrad(coef, grad)
			for d := 0; d < 2; d++ {
				el.FwdTrans(grad[d], gcoef)
				tr := make([]float64, q1)
				eq.Eval(gcoef, tr)
				gtr[c][d] = tr
			}
		}
		gx := make([]float64, q1)
		gy := make([]float64, q1)
		for qi := 0; qi < q1; qi++ {
			// The Cauchy traction on the body uses the body-outward
			// normal, the negation of the fluid-domain outward normal
			// tabulated on the edge.
			nx, ny := -eq.Nx, -eq.Ny
			// sigma . n with sigma = -p I + nu (grad u + grad u^T).
			gx[qi] = -ptr[qi]*nx + nu*(2*gtr[0][0][qi]*nx+(gtr[0][1][qi]+gtr[1][0][qi])*ny)
			gy[qi] = -ptr[qi]*ny + nu*((gtr[1][0][qi]+gtr[0][1][qi])*nx+2*gtr[1][1][qi]*ny)
		}
		fx += eq.Integrate(gx)
		fy += eq.Integrate(gy)
	}
	return fx, fy
}

// L2VelocityError computes the L2 norm of (u - exact) over the domain.
func (ns *NS2D) L2VelocityError(exact func(x, y float64) (u, v float64)) float64 {
	var sum float64
	for ei, el := range ns.M.Elems {
		u, v := ns.Velocity(ei)
		for q := 0; q < el.Ref.NQuad; q++ {
			ue, ve := exact(el.X[0][q], el.X[1][q])
			du, dv := u[q]-ue, v[q]-ve
			sum += (du*du + dv*dv) * el.WJ[q]
		}
	}
	return math.Sqrt(sum)
}

// WriteField writes the velocity and pressure fields at the
// quadrature points as a whitespace-separated table (x y u v p),
// suitable for scatter plotting.
func (ns *NS2D) WriteField(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# x y u v p"); err != nil {
		return err
	}
	for ei, el := range ns.M.Elems {
		u, v := ns.Velocity(ei)
		pcoef := make([]float64, el.Ref.NModes)
		ns.AP.Scatter(ei, ns.P, pcoef)
		pq := make([]float64, el.Ref.NQuad)
		el.BwdTrans(pcoef, pq)
		for q := 0; q < el.Ref.NQuad; q++ {
			if _, err := fmt.Fprintf(w, "%g %g %g %g %g\n",
				el.X[0][q], el.X[1][q], u[q], v[q], pq[q]); err != nil {
				return err
			}
		}
	}
	return nil
}

// StepCount returns the number of completed steps.
func (ns *NS2D) StepCount() int { return ns.step }
