package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nektar/internal/blas"
)

func randSPD(rng *rand.Rand, n int) []float64 {
	// A = M*M^T + n*I is symmetric positive definite.
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, m, n, m, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func matVec(n int, a, x []float64) []float64 {
	y := make([]float64, n)
	blas.Dgemv(blas.NoTrans, n, n, 1, a, n, x, 1, 0, y, 1)
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDpotrfDpotrs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(rng, n)
		orig := make([]float64, len(a))
		copy(orig, a)
		if err := Dpotrf(n, a, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xWant := make([]float64, n)
		for i := range xWant {
			xWant[i] = rng.NormFloat64()
		}
		b := matVec(n, orig, xWant)
		// Solve with single RHS stored as an n-by-1 matrix.
		Dpotrs(n, 1, a, n, b, 1)
		if d := maxAbsDiff(b, xWant); d > 1e-8 {
			t.Fatalf("n=%d: solution error %g", n, d)
		}
	}
}

func TestDpotrfMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, nrhs := 8, 3
	a := randSPD(rng, n)
	orig := append([]float64(nil), a...)
	if err := Dpotrf(n, a, n); err != nil {
		t.Fatal(err)
	}
	xWant := make([]float64, n*nrhs)
	for i := range xWant {
		xWant[i] = rng.NormFloat64()
	}
	b := make([]float64, n*nrhs)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, orig, n, xWant, nrhs, 0, b, nrhs)
	Dpotrs(n, nrhs, a, n, b, nrhs)
	if d := maxAbsDiff(b, xWant); d > 1e-8 {
		t.Fatalf("multi-RHS error %g", d)
	}
}

func TestDpotrfRejectsIndefinite(t *testing.T) {
	a := []float64{1, 0, 0, -1} // eigenvalues 1, -1
	if err := Dpotrf(2, a, 2); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestBandStorageAccessors(t *testing.T) {
	b := NewBandStorage(5, 2)
	b.Set(3, 1, 7)
	if b.At(3, 1) != 7 || b.At(1, 3) != 7 {
		t.Fatal("symmetric access broken")
	}
	if b.At(0, 4) != 0 {
		t.Fatal("out-of-band read should be zero")
	}
	b.Add(3, 1, 1)
	if b.At(3, 1) != 8 {
		t.Fatal("Add failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set outside band should panic")
		}
	}()
	b.Set(0, 4, 1)
}

// buildBandSPD constructs a diagonally dominant symmetric band matrix
// and its dense equivalent.
func buildBandSPD(rng *rand.Rand, n, kd int) (*BandStorage, []float64) {
	band := NewBandStorage(n, kd)
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := max(0, i-kd); j < i; j++ {
			v := rng.NormFloat64() * 0.3
			band.Set(i, j, v)
			dense[i*n+j] = v
			dense[j*n+i] = v
		}
		d := float64(2*kd) + 2 + rng.Float64()
		band.Set(i, i, d)
		dense[i*n+i] = d
	}
	return band, dense
}

func TestDpbtrfDpbtrs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, kd int }{{1, 0}, {4, 1}, {10, 3}, {50, 7}, {100, 12}, {30, 29}} {
		band, dense := buildBandSPD(rng, tc.n, tc.kd)
		xWant := make([]float64, tc.n)
		for i := range xWant {
			xWant[i] = rng.NormFloat64()
		}
		b := matVec(tc.n, dense, xWant)
		if err := Dpbtrf(band); err != nil {
			t.Fatalf("n=%d kd=%d: %v", tc.n, tc.kd, err)
		}
		Dpbtrs(band, b)
		if d := maxAbsDiff(b, xWant); d > 1e-8 {
			t.Fatalf("n=%d kd=%d: error %g", tc.n, tc.kd, d)
		}
	}
}

func TestDpbtrfMatchesDenseCholesky(t *testing.T) {
	// Property: banded and dense Cholesky produce the same factor on
	// the band.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		kd := rng.Intn(n)
		band, dense := buildBandSPD(rng, n, kd)
		if err := Dpbtrf(band); err != nil {
			return false
		}
		if err := Dpotrf(n, dense, n); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := max(0, i-kd); j <= i; j++ {
				if math.Abs(band.At(i, j)-dense[i*n+j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDpbtrfRejectsIndefinite(t *testing.T) {
	band := NewBandStorage(3, 1)
	band.Set(0, 0, 1)
	band.Set(1, 1, -2)
	band.Set(2, 2, 1)
	if err := Dpbtrf(band); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestDgetrfDgetrs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7, 25, 60} {
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), a...)
		xWant := make([]float64, n)
		for i := range xWant {
			xWant[i] = rng.NormFloat64()
		}
		b := matVec(n, orig, xWant)
		ipiv, err := Dgetrf(n, a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		Dgetrs(n, a, n, ipiv, b)
		if d := maxAbsDiff(b, xWant); d > 1e-7 {
			t.Fatalf("n=%d: error %g", n, d)
		}
	}
}

func TestDgetrfNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	a := []float64{0, 1, 1, 0}
	b := []float64{2, 3}
	if err := SolveDense(2, a, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 3 || b[1] != 2 {
		t.Fatalf("b = %v, want [3 2]", b)
	}
}

func TestDgetrfSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := Dgetrf(2, a, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestBandedSolveRecordsWork(t *testing.T) {
	var c blas.Counts
	blas.StartRecording(&c)
	rng := rand.New(rand.NewSource(7))
	band, _ := buildBandSPD(rng, 30, 4)
	if err := Dpbtrf(band); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	Dpbtrs(band, b)
	blas.StopRecording()
	if c.Ops[blas.KernelDgemm].Flops == 0 {
		t.Fatal("factorization recorded no gemm-class flops")
	}
	if c.Ops[blas.KernelDgemv].Flops == 0 {
		t.Fatal("solve recorded no gemv-class flops")
	}
}
