package solver

import (
	"fmt"
	"testing"

	"nektar/internal/lapack"
	"nektar/internal/mesh"
)

// Direct is the reference the condensed solver is checked against: the
// global Helmholtz operator assembled over every unknown dof in
// symmetric banded form and factored with the banded Cholesky, with no
// static condensation.
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
	band, coup := assembleBanded(a, func(e int) []float64 {
		return a.Mesh.Elems[e].Helmholtz(lambda)
	})
	if err := lapack.Dpbtrf(band); err != nil {
		return nil, fmt.Errorf("solver: global Helmholtz factorization: %w", err)
	}
	d.band = band
	d.coup = coup
	return d, nil
}

// assembleBanded assembles per-element matrices (given by the callback
// elemMat, row-major NModes^2) into the global banded system over the
// unknown dofs, returning the band matrix and the coupling columns to
// Dirichlet dofs as a sparse list used to form right-hand sides.
func assembleBanded(a *mesh.Assembly, elemMat func(e int) []float64) (*lapack.BandStorage, []mesh.DirCoupling) {
	band := lapack.NewBandStorage(a.NSolve, a.Bandwidth())
	var coup []mesh.DirCoupling
	for ei := range a.Mesh.Elems {
		mat := elemMat(ei)
		l2g, sign := a.L2G[ei], a.Sign[ei]
		n := len(l2g)
		for mi := 0; mi < n; mi++ {
			gi := l2g[mi]
			if gi >= a.NSolve {
				continue
			}
			for mj := 0; mj < n; mj++ {
				gj := l2g[mj]
				v := sign[mi] * sign[mj] * mat[mi*n+mj]
				if v == 0 {
					continue
				}
				if gj >= a.NSolve {
					coup = append(coup, mesh.DirCoupling{Row: gi, Dir: gj, Val: v})
				} else if gj <= gi {
					band.Add(gi, gj, v)
				}
			}
		}
	}
	return band, coup
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

// BenchmarkAblationCondensedVsBanded compares the statically condensed
// solver against the full banded direct solver on the same system — the
// design choice that makes the paper-scale serial run fit in memory.
func BenchmarkAblationCondensedVsBanded(b *testing.B) {
	m, err := mesh.BluffBody(6, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	a := mesh.NewAssembly(m, func(tag string) bool { return tag != "outflow" })
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return 1 })
	cond, err := NewCondensed(a, NewElemMatrices(m), 1)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := NewDirect(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("condensed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cond.Solve(rhs, nil)
		}
	})
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dir.Solve(rhs, nil)
		}
	})
}
