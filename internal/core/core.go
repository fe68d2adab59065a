// Package core implements the paper's Nektar solvers: the serial 2D
// incompressible Navier-Stokes solver used for the single-node
// benchmark (Table 1, Figure 12), the Fourier-parallel Nektar-F solver
// (Table 2, Figures 13-14) and the 3D ALE solver Nektar-ALE (Table 3,
// Figures 15-16).
//
// The time discretization is the high-order splitting scheme of
// Karniadakis, Israeli & Orszag (1991): explicit advancement of the
// nonlinear terms, a pressure Poisson solve and an implicit viscous
// Helmholtz solve. Every step is instrumented into the paper's seven
// stages (section 4.1):
//
//  1. transform from modal to quadrature (physical) space
//  2. evaluation of the nonlinear terms in quadrature space
//  3. weight-averaging with previous nonlinear terms
//  4. setup of the pressure Poisson right-hand side
//  5. pressure Poisson solve (banded direct solver)
//  6. setup of the viscous Helmholtz right-hand side
//  7. viscous Helmholtz solves (banded direct solver)
package core

// Stiffly-stable integration coefficients (Karniadakis, Israeli &
// Orszag 1991), indexed by scheme order - 1: u_hat = sum_q alpha_q
// u^{n-q} + dt sum_q beta_q N(u^{n-q}), gamma0 u^{n+1} implicit weight.
var (
	ssGamma = []float64{1, 1.5, 11.0 / 6}
	ssAlpha = [][]float64{
		{1},
		{2, -0.5},
		{3, -1.5, 1.0 / 3},
	}
	ssBeta = [][]float64{
		{1},
		{2, -1},
		{3, -3, 1},
	}
)

// StageNames are the paper's seven time-step regions.
var StageNames = []string{
	"1 modal->quadrature transform",
	"2 nonlinear term evaluation",
	"3 nonlinear weight-averaging",
	"4 pressure RHS setup",
	"5 pressure Poisson solve",
	"6 viscous RHS setup",
	"7 viscous Helmholtz solve",
}

// schemeOrder is the scheme order of the step that follows step
// completed ones: it ramps up from 1 so the multistep history fills,
// then stays at maxOrder.
func schemeOrder(step, maxOrder int) int { return min(step+1, maxOrder) }

// Scale extrapolates a probe-scale parallel run to the paper's problem
// size (DESIGN §5) for Nektar-F (NSF.SetScale) and Nektar-ALE
// (NSALE.SetScale). Stage holds per-stage compute-time multipliers,
// indexed like the solver's stage names (StageNames, ALEStageNames);
// zero entries mean 1. Comm multiplies the timed size of every message
// the rank sends (simnet's phantom factor; 1 or less sends the probe's
// sizes): the payload, and so every value, stays the probe's own.
type Scale struct {
	Stage [7]float64
	Comm  float64
}

// stage returns stage i's compute multiplier; a nil scale prices every
// stage as measured.
func (sc *Scale) stage(i int) float64 {
	if sc == nil || i < 0 || sc.Stage[i] == 0 {
		return 1
	}
	return sc.Stage[i]
}
