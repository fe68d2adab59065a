// Package solver provides the global Helmholtz/Poisson solvers of the
// spectral/hp element method: a direct solver that assembles the C0
// global matrix in symmetric banded form and factors it with the
// banded Cholesky (the paper's serial and Nektar-F solver strategy,
// "direct solvers utilising the symmetric and banded nature of the
// matrix"), and its statically condensed variant. The Nektar-ALE
// strategy, a diagonally preconditioned conjugate gradient over the
// distributed operator, lives with that solver in internal/core.
//
// Both solve the weak Helmholtz problem: find u with u = g on the
// Dirichlet boundary and
//
//	integral grad(u).grad(v) + lambda*u*v = integral f*v
//
// for all test functions v vanishing on the Dirichlet boundary, i.e.
// the strong equation -Laplace(u) + lambda*u = f.
package solver

import (
	"fmt"
	"math"

	"nektar/internal/lapack"
	"nektar/internal/mesh"
)

// Direct is a factored global banded Helmholtz operator.
type Direct struct {
	A      *mesh.Assembly
	Lambda float64

	band *lapack.BandStorage
	coup []mesh.DirCoupling
}

// NewDirect assembles and factors the global Helmholtz matrix
// L + lambda*M over the unknown degrees of freedom.
func NewDirect(a *mesh.Assembly, lambda float64) (*Direct, error) {
	d := &Direct{A: a, Lambda: lambda}
	band, coup := a.AssembleBanded(func(e int) []float64 {
		return a.Mesh.Elems[e].Helmholtz(lambda)
	})
	if err := lapack.Dpbtrf(band); err != nil {
		return nil, fmt.Errorf("solver: global Helmholtz factorization: %w", err)
	}
	d.band = band
	d.coup = coup
	return d, nil
}

// Bandwidth returns the half-bandwidth of the assembled system.
func (d *Direct) Bandwidth() int { return d.band.Kd }

// Solve computes the global solution for a weak right-hand side rhs
// (length NGlobal, the gathered inner products integral f*phi) and
// Dirichlet values dir (length NGlobal; only entries >= NSolve are
// read; nil means homogeneous). The returned vector has length NGlobal
// with Dirichlet entries filled in.
func (d *Direct) Solve(rhs, dir []float64) []float64 {
	a := d.A
	b := make([]float64, a.NSolve)
	copy(b, rhs[:a.NSolve])
	if dir != nil {
		for _, c := range d.coup {
			b[c.Row] -= c.Val * dir[c.Dir]
		}
	}
	lapack.Dpbtrs(d.band, b)
	out := make([]float64, a.NGlobal)
	copy(out, b)
	if dir != nil {
		copy(out[a.NSolve:], dir[a.NSolve:])
	}
	return out
}

// WeakRHS assembles the global weak right-hand side integral f*phi_m
// for a forcing function given at quadrature points per element.
func WeakRHS(a *mesh.Assembly, f func(elem int) []float64) []float64 {
	rhs := make([]float64, a.NGlobal)
	for ei, el := range a.Mesh.Elems {
		out := make([]float64, el.Ref.NModes)
		el.IProduct(f(ei), out)
		a.Gather(ei, out, rhs)
	}
	return rhs
}

// WeakRHSFunc assembles the weak right-hand side for a pointwise
// forcing f(x, y, z).
func WeakRHSFunc(a *mesh.Assembly, f func(x, y, z float64) float64) []float64 {
	return WeakRHS(a, func(ei int) []float64 {
		el := a.Mesh.Elems[ei]
		nq := el.Ref.NQuad
		vals := make([]float64, nq)
		var z []float64
		if el.Ref.Shape.Dim() == 3 {
			z = el.X[2]
		}
		for q := 0; q < nq; q++ {
			zz := 0.0
			if z != nil {
				zz = z[q]
			}
			vals[q] = f(el.X[0][q], el.X[1][q], zz)
		}
		return vals
	})
}

// DirichletFromFunc builds the global Dirichlet value vector for a 2D
// mesh by projecting g onto every Dirichlet-tagged boundary edge.
func DirichletFromFunc(a *mesh.Assembly, isDirichlet func(tag string) bool, g func(x, y float64) float64) []float64 {
	dir := make([]float64, a.NGlobal)
	for _, be := range a.Mesh.BndEdges {
		if isDirichlet(be.Tag) {
			a.ProjectEdgeTrace(be, g, dir)
		}
	}
	return dir
}

// L2Error computes the global L2 norm of (u - exact) given the global
// modal solution.
func L2Error(a *mesh.Assembly, u []float64, exact func(x, y, z float64) float64) float64 {
	var sum float64
	for ei, el := range a.Mesh.Elems {
		n := el.Ref.NModes
		nq := el.Ref.NQuad
		coef := make([]float64, n)
		a.Scatter(ei, u, coef)
		phys := make([]float64, nq)
		el.BwdTrans(coef, phys)
		for q := 0; q < nq; q++ {
			zz := 0.0
			if el.Ref.Shape.Dim() == 3 {
				zz = el.X[2][q]
			}
			d := phys[q] - exact(el.X[0][q], el.X[1][q], zz)
			sum += d * d * el.WJ[q]
		}
	}
	return math.Sqrt(sum)
}
