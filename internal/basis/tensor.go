package basis

import "nektar/internal/blas"

// Sum-factorization (tensor-product) fast paths. For tensor-product
// shapes the backward transform, parametric derivatives and inner
// products factor into small dgemm pairs, reducing the elemental cost
// from O(NModes*NQuad) to O(P^3) per direction — the optimization all
// production spectral/hp codes (including the paper's Nektar) rely on,
// and the reason the transform stages are a small slice of Figure 12.
//
// Quadrilaterals are factorized here and hexahedra in tensor3.go; the
// triangle's collapsed basis also factorizes in principle but keeps
// the (validated) matrix path for clarity.
type tensorOps struct {
	p1     int // modes per direction
	q1, q2 int
	// a1[p*q1+i] = A_p(xi1_i); da1 its derivative; similarly a2/da2.
	a1, da1 []float64
	a2, da2 []float64
	// perm[p*p1+q] = index of mode (p, q) in the boundary-first
	// ordering.
	perm []int
}

// initTensor builds the factorization tables for tensor shapes.
func (r *Ref) initTensor() {
	switch r.Shape {
	case Hex:
		r.initTensor3()
		return
	case Tri:
		r.initTensorTri()
		q1, q2 := r.QDim[0], r.QDim[1]
		r.triC1 = make([]float64, r.NQuad)
		r.triC2 = make([]float64, r.NQuad)
		for i := 0; i < q1; i++ {
			for j := 0; j < q2; j++ {
				eta1, eta2 := r.Pts[0][i], r.Pts[1][j]
				q := i*q2 + j
				r.triC1[q] = 2 / (1 - eta2)
				r.triC2[q] = (1 + eta1) / (1 - eta2)
			}
		}
		return
	case Quad:
		// handled below
	default:
		return
	}
	p1 := r.P + 1
	q1, q2 := r.QDim[0], r.QDim[1]
	t := &tensorOps{p1: p1, q1: q1, q2: q2}
	t.a1 = make([]float64, p1*q1)
	t.da1 = make([]float64, p1*q1)
	t.a2 = make([]float64, p1*q2)
	t.da2 = make([]float64, p1*q2)
	for p := 0; p < p1; p++ {
		for i, z := range r.Pts[0] {
			t.a1[p*q1+i] = ModifiedA(p, z)
			t.da1[p*q1+i] = ModifiedADeriv(p, z)
		}
		for j, z := range r.Pts[1] {
			t.a2[p*q2+j] = ModifiedA(p, z)
			t.da2[p*q2+j] = ModifiedADeriv(p, z)
		}
	}
	t.perm = make([]int, p1*p1)
	for mi, m := range r.Modes {
		t.perm[m.P*p1+m.Q] = mi
	}
	r.tensor = t
}

// gatherTensor reorders boundary-first modal coefficients into the
// (p, q) tensor layout.
func (t *tensorOps) gather(coef, ct []float64) {
	for k, mi := range t.perm {
		ct[k] = coef[mi]
	}
}

// scatterAdd reorders a tensor-layout result back into boundary-first
// ordering, accumulating when acc is true.
func (t *tensorOps) scatter(ct, coef []float64, acc bool) {
	if acc {
		for k, mi := range t.perm {
			coef[mi] += ct[k]
		}
		return
	}
	for k, mi := range t.perm {
		coef[mi] = ct[k]
	}
}

// bwd applies the two-dgemm factorized evaluation with the given
// per-direction tables (basis values or derivatives).
func (t *tensorOps) bwd(m1, m2, ct, phys []float64) {
	tmp := make([]float64, t.p1*t.q2)
	// tmp[p][j] = sum_q ct[p][q] m2[q][j]
	blas.Dgemm(blas.NoTrans, blas.NoTrans, t.p1, t.q2, t.p1, 1, ct, t.p1, m2, t.q2, 0, tmp, t.q2)
	// phys[i][j] = sum_p m1[p][i] tmp[p][j]
	blas.Dgemm(blas.Trans, blas.NoTrans, t.q1, t.q2, t.p1, 1, m1, t.q1, tmp, t.q2, 0, phys, t.q2)
}

// iprod applies the adjoint factorization: out[p][q] = sum_ij
// m1[p][i] m2[q][j] f[i][j].
func (t *tensorOps) iprod(m1, m2, f, out []float64) {
	tmp := make([]float64, t.p1*t.q2)
	// tmp[p][j] = sum_i m1[p][i] f[i][j]
	blas.Dgemm(blas.NoTrans, blas.NoTrans, t.p1, t.q2, t.q1, 1, m1, t.q1, f, t.q2, 0, tmp, t.q2)
	// out[p][q] = sum_j tmp[p][j] m2[q][j]
	blas.Dgemm(blas.NoTrans, blas.Trans, t.p1, t.p1, t.q2, 1, tmp, t.q2, m2, t.q2, 0, out, t.p1)
}

// BwdTransDeriv evaluates the parametric derivative d phi/d xi_d of a
// modal field at the quadrature points.
func (r *Ref) BwdTransDeriv(d int, coef, out []float64) {
	if r.tensor != nil {
		t := r.tensor
		ct := make([]float64, t.p1*t.p1)
		t.gather(coef, ct)
		if d == 0 {
			t.bwd(t.da1, t.a2, ct, out)
		} else {
			t.bwd(t.a1, t.da2, ct, out)
		}
		return
	}
	if r.tensor3 != nil {
		t := r.tensor3
		ct := make([]float64, t.p1*t.p1*t.p1)
		t.gather(coef, ct)
		m1, m2, m3 := t.tables(d)
		t.bwd(m1, m2, m3, ct, out)
		return
	}
	if r.tensorT != nil {
		// Collapsed-coordinate chain rule: combine the eta-derivatives
		// with the tabulated factors.
		t := r.tensorT
		de1 := make([]float64, r.NQuad)
		t.bwd(coef, t.da, false, true, de1)
		if d == 0 {
			blas.Dvmul(r.NQuad, de1, 1, r.triC1, 1, out, 1)
			return
		}
		t.bwd(coef, t.a, true, false, out) // d/deta2 part
		for q := 0; q < r.NQuad; q++ {
			out[q] += de1[q] * r.triC2[q]
		}
		return
	}
	blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.D[d], r.NQuad, coef, 1, 0, out, 1)
}

// IProductPhys computes out[m] = sum_q B[m][q] f[q] (the caller has
// already folded quadrature weights and Jacobians into f).
func (r *Ref) IProductPhys(f, out []float64) {
	if r.tensor != nil {
		t := r.tensor
		ct := make([]float64, t.p1*t.p1)
		t.iprod(t.a1, t.a2, f, ct)
		t.scatter(ct, out, false)
		return
	}
	if r.tensor3 != nil {
		t := r.tensor3
		ct := make([]float64, t.p1*t.p1*t.p1)
		m1, m2, m3 := t.tables(-1)
		t.iprod(m1, m2, m3, f, ct)
		t.scatter(ct, out, false)
		return
	}
	if r.tensorT != nil {
		r.tensorT.iprod(f, r.tensorT.a, false, false, out)
		return
	}
	blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1, r.B, r.NQuad, f, 1, 0, out, 1)
}

// IProductDerivAdd accumulates out[m] += alpha * sum_q D_d[m][q] f[q]
// (the weak-derivative inner product of the pressure RHS).
func (r *Ref) IProductDerivAdd(d int, alpha float64, f, out []float64) {
	if r.tensor != nil {
		t := r.tensor
		ct := make([]float64, t.p1*t.p1)
		if d == 0 {
			t.iprod(t.da1, t.a2, f, ct)
		} else {
			t.iprod(t.a1, t.da2, f, ct)
		}
		if alpha != 1 {
			blas.Dscal(len(ct), alpha, ct, 1)
		}
		t.scatter(ct, out, true)
		return
	}
	if r.tensor3 != nil {
		t := r.tensor3
		ct := make([]float64, t.p1*t.p1*t.p1)
		m1, m2, m3 := t.tables(d)
		t.iprod(m1, m2, m3, f, ct)
		if alpha != 1 {
			blas.Dscal(len(ct), alpha, ct, 1)
		}
		t.scatter(ct, out, true)
		return
	}
	if r.tensorT != nil {
		t := r.tensorT
		tmp := make([]float64, r.NModes)
		scaled := make([]float64, r.NQuad)
		if d == 0 {
			blas.Dvmul(r.NQuad, f, 1, r.triC1, 1, scaled, 1)
			t.iprod(scaled, t.da, false, true, tmp)
		} else {
			blas.Dvmul(r.NQuad, f, 1, r.triC2, 1, scaled, 1)
			t.iprod(scaled, t.da, false, true, tmp)
			tmp2 := make([]float64, r.NModes)
			t.iprod(f, t.a, true, false, tmp2)
			blas.Daxpy(r.NModes, 1, tmp2, 1, tmp, 1)
		}
		blas.Daxpy(r.NModes, alpha, tmp, 1, out, 1)
		return
	}
	blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, alpha, r.D[d], r.NQuad, f, 1, 1, out, 1)
}
