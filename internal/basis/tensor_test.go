package basis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nektar/internal/blas"
)

func TestTensorAvailability(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri, Hex} {
		if r := NewRef(shape, 4); r.tensor == nil && r.tensor3 == nil && r.tensorT == nil {
			t.Fatalf("%v must have the sum-factorized path", shape)
		}
	}
}

func TestTensorTriMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, p := range []int{1, 2, 4, 7} {
		r := NewRef(Tri, p)
		coef := make([]float64, r.NModes)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		a := make([]float64, r.NQuad)
		b := make([]float64, r.NQuad)
		r.BackwardTransform(coef, a)
		matrixBwd(r, coef, b)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-10 {
				t.Fatalf("p=%d bwd q=%d: %v vs %v", p, i, a[i], b[i])
			}
		}
		for d := 0; d < 2; d++ {
			r.BwdTransDeriv(d, coef, a)
			blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.D[d], r.NQuad, coef, 1, 0, b, 1)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
					t.Fatalf("p=%d deriv d=%d q=%d: %v vs %v", p, d, i, a[i], b[i])
				}
			}
		}
		f := make([]float64, r.NQuad)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		oa := make([]float64, r.NModes)
		ob := make([]float64, r.NModes)
		r.IProductPhys(f, oa)
		blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1, r.B, r.NQuad, f, 1, 0, ob, 1)
		for i := range oa {
			if math.Abs(oa[i]-ob[i]) > 1e-9 {
				t.Fatalf("p=%d iprod m=%d: %v vs %v", p, i, oa[i], ob[i])
			}
		}
		for d := 0; d < 2; d++ {
			copy(oa, ob)
			oc := append([]float64(nil), ob...)
			r.IProductDerivAdd(d, 0.6, f, oa)
			blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 0.6, r.D[d], r.NQuad, f, 1, 1, oc, 1)
			for i := range oa {
				if math.Abs(oa[i]-oc[i]) > 1e-8*(1+math.Abs(oc[i])) {
					t.Fatalf("p=%d iprodderiv d=%d m=%d: %v vs %v", p, d, i, oa[i], oc[i])
				}
			}
		}
	}
}

func TestTensor3MatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range []int{1, 2, 4} {
		r := NewRef(Hex, p)
		coef := make([]float64, r.NModes)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		// Backward transform.
		a := make([]float64, r.NQuad)
		b := make([]float64, r.NQuad)
		r.BackwardTransform(coef, a)
		matrixBwd(r, coef, b)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-10 {
				t.Fatalf("p=%d bwd q=%d: %v vs %v", p, i, a[i], b[i])
			}
		}
		// Parametric derivatives.
		for d := 0; d < 3; d++ {
			r.BwdTransDeriv(d, coef, a)
			blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.D[d], r.NQuad, coef, 1, 0, b, 1)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-9 {
					t.Fatalf("p=%d deriv d=%d q=%d: %v vs %v", p, d, i, a[i], b[i])
				}
			}
		}
		// Inner products.
		f := make([]float64, r.NQuad)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		oa := make([]float64, r.NModes)
		ob := make([]float64, r.NModes)
		r.IProductPhys(f, oa)
		blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1, r.B, r.NQuad, f, 1, 0, ob, 1)
		for i := range oa {
			if math.Abs(oa[i]-ob[i]) > 1e-9 {
				t.Fatalf("p=%d iprod m=%d: %v vs %v", p, i, oa[i], ob[i])
			}
		}
		for d := 0; d < 3; d++ {
			copy(oa, ob)
			oc := append([]float64(nil), ob...)
			r.IProductDerivAdd(d, 1.3, f, oa)
			blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1.3, r.D[d], r.NQuad, f, 1, 1, oc, 1)
			for i := range oa {
				if math.Abs(oa[i]-oc[i]) > 1e-9 {
					t.Fatalf("p=%d iprodderiv d=%d m=%d: %v vs %v", p, d, i, oa[i], oc[i])
				}
			}
		}
	}
}

// matrixBwd is the reference (tabulated-matrix) backward transform.
func matrixBwd(r *Ref, coef, phys []float64) {
	blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.B, r.NQuad, coef, 1, 0, phys, 1)
}

func TestTensorBackwardMatchesMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(7) + 1
		r := NewRef(Quad, p)
		coef := make([]float64, r.NModes)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		a := make([]float64, r.NQuad)
		b := make([]float64, r.NQuad)
		r.BackwardTransform(coef, a) // tensor path
		matrixBwd(r, coef, b)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTensorDerivMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 3, 6} {
		r := NewRef(Quad, p)
		coef := make([]float64, r.NModes)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		for d := 0; d < 2; d++ {
			a := make([]float64, r.NQuad)
			b := make([]float64, r.NQuad)
			r.BwdTransDeriv(d, coef, a)
			blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.D[d], r.NQuad, coef, 1, 0, b, 1)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-10 {
					t.Fatalf("p=%d d=%d q=%d: %v vs %v", p, d, i, a[i], b[i])
				}
			}
		}
	}
}

func TestTensorIProductMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range []int{2, 5} {
		r := NewRef(Quad, p)
		f := make([]float64, r.NQuad)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		a := make([]float64, r.NModes)
		b := make([]float64, r.NModes)
		r.IProductPhys(f, a)
		blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1, r.B, r.NQuad, f, 1, 0, b, 1)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-10 {
				t.Fatalf("p=%d m=%d: %v vs %v", p, i, a[i], b[i])
			}
		}
		// Derivative inner product accumulates on top of existing
		// content with a scale factor.
		copy(a, b)
		c := append([]float64(nil), b...)
		for d := 0; d < 2; d++ {
			r.IProductDerivAdd(d, 0.7, f, a)
			blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 0.7, r.D[d], r.NQuad, f, 1, 1, c, 1)
		}
		for i := range a {
			if math.Abs(a[i]-c[i]) > 1e-9 {
				t.Fatalf("deriv iproduct p=%d m=%d: %v vs %v", p, i, a[i], c[i])
			}
		}
	}
}

func TestTriFallbackPathsStillWork(t *testing.T) {
	// The same API stays finite on triangles through the factorized
	// path.
	r := NewRef(Tri, 4)
	coef := make([]float64, r.NModes)
	coef[0] = 1
	phys := make([]float64, r.NQuad)
	r.BwdTransDeriv(0, coef, phys)
	out := make([]float64, r.NModes)
	r.IProductPhys(phys, out)
	r.IProductDerivAdd(1, 1, phys, out)
	// No assertion beyond "runs and stays finite".
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN in fallback path")
		}
	}
}
