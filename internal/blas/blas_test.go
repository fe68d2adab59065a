package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func almostEqual(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDcopyContiguous(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	Dcopy(5, x, 1, y, 1)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], x[i])
		}
	}
}

func TestDcopyStrided(t *testing.T) {
	x := []float64{1, 0, 2, 0, 3}
	y := make([]float64, 3)
	Dcopy(3, x, 2, y, 1)
	want := []float64{1, 2, 3}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestDcopyNegativeIncrement(t *testing.T) {
	// Reference BLAS semantics: a negative increment traverses the
	// vector from its far end, so pairing incX=1 with incY=-1 reverses.
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	Dcopy(4, x, 1, y, -1)
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestDcopyZeroLength(t *testing.T) {
	Dcopy(0, nil, 1, nil, 1) // must not panic
	Dcopy(-3, nil, 1, nil, 1)
}

func TestDswap(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Dswap(3, x, 1, y, 1)
	if x[0] != 4 || x[2] != 6 || y[0] != 1 || y[2] != 3 {
		t.Fatalf("swap failed: x=%v y=%v", x, y)
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, -2, 3}
	Dscal(3, 2.5, x, 1)
	want := []float64{2.5, -5, 7.5}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(3, 2, x, 1, y, 1)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestDaxpyAlphaZeroIsNoop(t *testing.T) {
	y := []float64{1, 2, 3}
	Daxpy(3, 0, []float64{9, 9, 9}, 1, y, 1)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Fatalf("y = %v, want unchanged", y)
	}
}

func TestDdot(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	y := []float64{1, 1, 1, 1, 1, 1, 1}
	if got := Ddot(7, x, 1, y, 1); got != 28 {
		t.Fatalf("Ddot = %v, want 28", got)
	}
}

func TestDdotStrided(t *testing.T) {
	x := []float64{1, 9, 2, 9, 3}
	y := []float64{1, 1, 1}
	if got := Ddot(3, x, 2, y, 1); got != 6 {
		t.Fatalf("Ddot = %v, want 6", got)
	}
}

func TestDdotMatchesNaive(t *testing.T) {
	// Property: the unrolled dot product agrees with naive summation.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%97 + 1
		x, y := randVec(rng, n), randVec(rng, n)
		var want float64
		for i := 0; i < n; i++ {
			want += x[i] * y[i]
		}
		return almostEqual(Ddot(n, x, 1, y, 1), want, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDvmul(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	z := make([]float64, 3)
	Dvmul(3, x, 1, y, 1, z, 1)
	if z[0] != 4 || z[1] != 10 || z[2] != 18 {
		t.Fatalf("Dvmul = %v", z)
	}
}

func TestDfill(t *testing.T) {
	x := make([]float64, 4)
	Dfill(4, 3.5, x, 1)
	for _, v := range x {
		if v != 3.5 {
			t.Fatalf("x = %v", x)
		}
	}
}

// naiveGemv is the reference three-loop implementation.
func naiveGemv(t Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) []float64 {
	var out []float64
	if t == NoTrans {
		out = make([]float64, m)
		for i := 0; i < m; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += a[i*lda+j] * x[j]
			}
			out[i] = alpha*sum + beta*y[i]
		}
	} else {
		out = make([]float64, n)
		for j := 0; j < n; j++ {
			var sum float64
			for i := 0; i < m; i++ {
				sum += a[i*lda+j] * x[i]
			}
			out[j] = alpha*sum + beta*y[j]
		}
	}
	return out
}

func TestDgemvAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {17, 4}, {2, 31}} {
			m, n := dims[0], dims[1]
			a := randVec(rng, m*n)
			xLen, yLen := n, m
			if trans == Trans {
				xLen, yLen = m, n
			}
			x := randVec(rng, xLen)
			y := randVec(rng, yLen)
			want := naiveGemv(trans, m, n, 1.3, a, n, x, 0.7, y)
			Dgemv(trans, m, n, 1.3, a, n, x, 1, 0.7, y, 1)
			for i := range want {
				if !almostEqual(y[i], want[i], 1e-10) {
					t.Fatalf("trans=%v m=%d n=%d: y[%d]=%v want %v", trans, m, n, i, y[i], want[i])
				}
			}
		}
	}
}

func TestDgemvBetaZeroIgnoresNaNs(t *testing.T) {
	// beta == 0 must overwrite y even if it held NaN, as in reference
	// BLAS.
	a := []float64{1, 2, 3, 4}
	x := []float64{1, 1}
	y := []float64{math.NaN(), math.NaN()}
	Dgemv(NoTrans, 2, 2, 1, a, 2, x, 1, 0, y, 1)
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("y = %v, want [3 7]", y)
	}
}

func TestDger(t *testing.T) {
	a := make([]float64, 6)
	Dger(2, 3, 2, []float64{1, 2}, 1, []float64{3, 4, 5}, 1, a, 3)
	want := []float64{6, 8, 10, 12, 16, 20}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("a = %v, want %v", a, want)
		}
	}
}

func TestDtrsvAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 7
	// Build a well-conditioned triangular matrix.
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.Float64() - 0.5
		}
		a[i*n+i] = 4 + rng.Float64()
	}
	for _, ul := range []Uplo{Upper, Lower} {
		for _, tr := range []Transpose{NoTrans, Trans} {
			xWant := randVec(rng, n)
			// b = op(T) * xWant where T is the selected triangle.
			b := make([]float64, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					inTri := (ul == Upper && j >= i) || (ul == Lower && j <= i)
					if !inTri {
						continue
					}
					if tr == NoTrans {
						b[i] += a[i*n+j] * xWant[j]
					} else {
						b[j] += a[i*n+j] * xWant[i]
					}
				}
			}
			Dtrsv(ul, tr, NonUnit, n, a, n, b, 1)
			for i := range xWant {
				if !almostEqual(b[i], xWant[i], 1e-9) {
					t.Fatalf("ul=%v tr=%v: x[%d]=%v want %v", ul, tr, i, b[i], xWant[i])
				}
			}
		}
	}
}

func naiveGemm(tA, tB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) []float64 {
	out := make([]float64, m*ldc)
	copy(out, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for l := 0; l < k; l++ {
				var av, bv float64
				if tA == NoTrans {
					av = a[i*lda+l]
				} else {
					av = a[l*lda+i]
				}
				if tB == NoTrans {
					bv = b[l*ldb+j]
				} else {
					bv = b[j*ldb+l]
				}
				sum += av * bv
			}
			out[i*ldc+j] = alpha*sum + beta*c[i*ldc+j]
		}
	}
	return out
}

func TestDgemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {8, 13, 7}, {16, 16, 16}, {65, 70, 66}, {130, 5, 128}}
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, d := range dims {
				m, n, k := d[0], d[1], d[2]
				lda, ldb := k, n
				if tA == Trans {
					lda = m
				}
				if tB == Trans {
					ldb = k
				}
				var aLen, bLen int
				if tA == NoTrans {
					aLen = m * lda
				} else {
					aLen = k * lda
				}
				if tB == NoTrans {
					bLen = k * ldb
				} else {
					bLen = n * ldb
				}
				a := randVec(rng, aLen)
				b := randVec(rng, bLen)
				c := randVec(rng, m*n)
				want := naiveGemm(tA, tB, m, n, k, 1.1, a, lda, b, ldb, 0.9, c, n)
				Dgemm(tA, tB, m, n, k, 1.1, a, lda, b, ldb, 0.9, c, n)
				for i := range want {
					if !almostEqual(c[i], want[i], 1e-9) {
						t.Fatalf("tA=%v tB=%v dims=%v: c[%d]=%v want %v", tA, tB, d, i, c[i], want[i])
					}
				}
			}
		}
	}
}

func TestDgemmBetaZeroOverwrites(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	b := []float64{5, 6, 7, 8}
	c := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	Dgemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 2, b, 2, 0, c, 2)
	for i, want := range b {
		if c[i] != want {
			t.Fatalf("c = %v, want %v", c, b)
		}
	}
}

func TestDgemmDegenerateK(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Dgemm(NoTrans, NoTrans, 2, 2, 0, 1, nil, 1, nil, 1, 2, c, 2)
	want := []float64{2, 4, 6, 8}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestDtrsmLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 6, 4
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			a[i*m+j] = rng.NormFloat64()
		}
		a[i*m+i] = 3 + rng.Float64()
	}
	xWant := randVec(rng, m*n)
	// B = A * X with A lower triangular.
	b := naiveGemm(NoTrans, NoTrans, m, n, m, 1, a, m, xWant, n, 0, make([]float64, m*n), n)
	Dtrsm(Left, Lower, NoTrans, NonUnit, m, n, 1, a, m, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestDtrsmLeftTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n := 5, 3
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			a[i*m+j] = rng.NormFloat64()
		}
		a[i*m+i] = 3 + rng.Float64()
	}
	xWant := randVec(rng, m*n)
	b := naiveGemm(Trans, NoTrans, m, n, m, 1, a, m, xWant, n, 0, make([]float64, m*n), n)
	Dtrsm(Left, Lower, Trans, NonUnit, m, n, 1, a, m, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestDtrsmRight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 4, 6
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a[i*n+j] = rng.NormFloat64()
		}
		a[i*n+i] = 3 + rng.Float64()
	}
	xWant := randVec(rng, m*n)
	// B = X * A with A upper triangular.
	b := naiveGemm(NoTrans, NoTrans, m, n, n, 1, xWant, n, a, n, 0, make([]float64, m*n), n)
	Dtrsm(Right, Upper, NoTrans, NonUnit, m, n, 1, a, n, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestDgemmAssociativityProperty(t *testing.T) {
	// Property: (A*B)*x == A*(B*x) for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		a := randVec(rng, n*n)
		b := randVec(rng, n*n)
		x := randVec(rng, n)
		ab := make([]float64, n*n)
		Dgemm(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, ab, n)
		lhs := make([]float64, n)
		Dgemv(NoTrans, n, n, 1, ab, n, x, 1, 0, lhs, 1)
		bx := make([]float64, n)
		Dgemv(NoTrans, n, n, 1, b, n, x, 1, 0, bx, 1)
		rhs := make([]float64, n)
		Dgemv(NoTrans, n, n, 1, a, n, bx, 1, 0, rhs, 1)
		for i := range lhs {
			if !almostEqual(lhs[i], rhs[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRecording(t *testing.T) {
	var c Counts
	StartRecording(&c)
	x := make([]float64, 100)
	y := make([]float64, 100)
	Dcopy(100, x, 1, y, 1)
	Daxpy(100, 2, x, 1, y, 1)
	Ddot(100, x, 1, y, 1)
	StopRecording()
	if c.Ops[KernelDcopy].Calls != 1 || c.Ops[KernelDcopy].N != 100 {
		t.Fatalf("dcopy count = %+v", c.Ops[KernelDcopy])
	}
	if c.Ops[KernelDaxpy].Flops != 200 {
		t.Fatalf("daxpy flops = %d, want 200", c.Ops[KernelDaxpy].Flops)
	}
	if c.Ops[KernelDdot].Flops != 200 {
		t.Fatalf("ddot flops = %d, want 200", c.Ops[KernelDdot].Flops)
	}
	// After StopRecording, calls must not accumulate.
	Dcopy(100, x, 1, y, 1)
	if c.Ops[KernelDcopy].Calls != 1 {
		t.Fatal("recording continued after StopRecording")
	}
}

func TestCountsAddSub(t *testing.T) {
	var a, b Counts
	a.Ops[KernelDgemm] = Op{Calls: 2, N: 10, Flops: 100, Bytes: 800}
	b.Ops[KernelDgemm] = Op{Calls: 1, N: 4, Flops: 40, Bytes: 320}
	a.Add(&b)
	if a.Ops[KernelDgemm].Flops != 140 {
		t.Fatalf("Add: %+v", a.Ops[KernelDgemm])
	}
	a.Sub(&b)
	if a.Ops[KernelDgemm].Flops != 100 || a.Ops[KernelDgemm].Calls != 2 {
		t.Fatalf("Sub: %+v", a.Ops[KernelDgemm])
	}
	if a.TotalFlops() != 100 || a.TotalBytes() != 800 {
		t.Fatalf("totals: %d %d", a.TotalFlops(), a.TotalBytes())
	}
}

func TestKernelString(t *testing.T) {
	names := map[Kernel]string{
		KernelDcopy: "dcopy", KernelDaxpy: "daxpy", KernelDdot: "ddot",
		KernelDgemv: "dgemv", KernelDgemm: "dgemm",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kernel(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kernel(99).String() != "unknown" {
		t.Fatal("out-of-range kernel should stringify as unknown")
	}
	if len(Kernels()) != int(numKernels) {
		t.Fatal("Kernels() incomplete")
	}
}

func TestDsyrkMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tr := range []Transpose{NoTrans, Trans} {
		for _, ul := range []Uplo{Lower, Upper} {
			n, k := 7, 11
			var a []float64
			var lda int
			if tr == NoTrans {
				a = randVec(rng, n*k)
				lda = k
			} else {
				a = randVec(rng, k*n)
				lda = n
			}
			c := randVec(rng, n*n)
			want := make([]float64, n*n)
			copy(want, c)
			// Reference via Dgemm on the full matrix.
			if tr == NoTrans {
				Dgemm(NoTrans, Trans, n, n, k, 0.7, a, lda, a, lda, 0.3, want, n)
			} else {
				Dgemm(Trans, NoTrans, n, n, k, 0.7, a, lda, a, lda, 0.3, want, n)
			}
			got := make([]float64, n*n)
			copy(got, c)
			Dsyrk(ul, tr, n, k, 0.7, a, lda, 0.3, got, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					inTri := (ul == Lower && j <= i) || (ul == Upper && j >= i)
					if inTri {
						if !almostEqual(got[i*n+j], want[i*n+j], 1e-10) {
							t.Fatalf("tr=%v ul=%v (%d,%d): %v vs %v", tr, ul, i, j, got[i*n+j], want[i*n+j])
						}
					} else if got[i*n+j] != c[i*n+j] {
						t.Fatalf("tr=%v ul=%v: opposite triangle modified at (%d,%d)", tr, ul, i, j)
					}
				}
			}
		}
	}
}

func TestSymmetrizeLower(t *testing.T) {
	c := []float64{1, 0, 0, 3, 2, 0, 5, 6, 7} // lower triangle set
	SymmetrizeLower(3, c, 3)
	want := []float64{1, 3, 5, 3, 2, 6, 5, 6, 7}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("symmetrize failed: %v, want %v", c, want)
		}
	}
}

func TestDtrsmLeftUpperNoTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n := 5, 4
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			a[i*m+j] = rng.NormFloat64()
		}
		a[i*m+i] = 3 + rng.Float64()
	}
	xWant := randVec(rng, m*n)
	b := naiveGemm(NoTrans, NoTrans, m, n, m, 1, a, m, xWant, n, 0, make([]float64, m*n), n)
	Dtrsm(Left, Upper, NoTrans, NonUnit, m, n, 1, a, m, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestDtrsmRightTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, n := 3, 5
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			a[i*n+j] = rng.NormFloat64()
		}
		a[i*n+i] = 3 + rng.Float64()
	}
	xWant := randVec(rng, m*n)
	// B = X * A^T with A lower triangular.
	b := naiveGemm(NoTrans, Trans, m, n, n, 1, xWant, n, a, n, 0, make([]float64, m*n), n)
	Dtrsm(Right, Lower, Trans, NonUnit, m, n, 1, a, n, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestDtrsmUnitDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, n := 4, 3
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < i; j++ {
			a[i*m+j] = rng.NormFloat64() * 0.2
		}
		a[i*m+i] = 99 // must be ignored with Unit diag
	}
	unit := make([]float64, m*m)
	copy(unit, a)
	for i := 0; i < m; i++ {
		unit[i*m+i] = 1
	}
	xWant := randVec(rng, m*n)
	b := naiveGemm(NoTrans, NoTrans, m, n, m, 1, unit, m, xWant, n, 0, make([]float64, m*n), n)
	Dtrsm(Left, Lower, NoTrans, Unit, m, n, 1, a, m, b, n)
	for i := range xWant {
		if !almostEqual(b[i], xWant[i], 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, b[i], xWant[i])
		}
	}
}

func TestStridedVariantsAgree(t *testing.T) {
	// Strided calls must agree with contiguous ones on the packed
	// data (daxpy, dscal, dvmul with incs != 1).
	rng := rand.New(rand.NewSource(16))
	n := 9
	xs := randVec(rng, 2*n) // stride-2 view
	ys := randVec(rng, 3*n) // stride-3 view
	xc := make([]float64, n)
	yc := make([]float64, n)
	for i := 0; i < n; i++ {
		xc[i] = xs[2*i]
		yc[i] = ys[3*i]
	}
	Daxpy(n, 1.7, xs, 2, ys, 3)
	Daxpy(n, 1.7, xc, 1, yc, 1)
	for i := 0; i < n; i++ {
		if !almostEqual(ys[3*i], yc[i], 1e-12) {
			t.Fatalf("strided daxpy mismatch at %d", i)
		}
	}
	Dscal(n, 0.4, ys, 3)
	Dscal(n, 0.4, yc, 1)
	for i := 0; i < n; i++ {
		if !almostEqual(ys[3*i], yc[i], 1e-12) {
			t.Fatalf("strided dscal mismatch at %d", i)
		}
	}
	z := make([]float64, 2*n)
	zc := make([]float64, n)
	Dvmul(n, xs, 2, ys, 3, z, 2)
	Dvmul(n, xc, 1, yc, 1, zc, 1)
	for i := 0; i < n; i++ {
		if !almostEqual(z[2*i], zc[i], 1e-12) {
			t.Fatalf("strided dvmul mismatch at %d", i)
		}
	}
}
