// Package lapack implements the dense and banded factorizations the
// spectral/hp element solvers rely on, in pure Go on top of package
// blas.
//
// The paper's serial DNS spends about 60% of its time in "matrix
// inversions" via LAPACK direct solvers that exploit the symmetric and
// banded structure of the assembled Laplacian (paper section 4.1,
// stages 5 and 7). Those are the symmetric positive definite banded
// Cholesky routines Dpbtrf/Dpbtrs here. The dense Cholesky and the LU
// factorization support elemental matrix setup and general utilities
// (e.g. quadrature-weight systems).
package lapack

import (
	"errors"
	"fmt"
	"math"

	"nektar/internal/blas"
)

// ErrNotPositiveDefinite is returned by the Cholesky factorizations
// when a non-positive pivot is encountered.
var ErrNotPositiveDefinite = errors.New("lapack: matrix is not positive definite")

// ErrSingular is returned by the LU factorization when an exactly zero
// pivot is encountered.
var ErrSingular = errors.New("lapack: matrix is singular")

// Dpotrf computes the Cholesky factorization A = L * L^T of a
// symmetric positive definite n-by-n row-major matrix in place. Only
// the lower triangle is referenced and overwritten with L.
func Dpotrf(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j*lda+j] - blas.Ddot(j, a[j*lda:], 1, a[j*lda:], 1)
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		if j+1 < n {
			// Column j below the diagonal: a[i][j] = (a[i][j] - L[i][:j].L[j][:j]) / d.
			for i := j + 1; i < n; i++ {
				a[i*lda+j] = (a[i*lda+j] - blas.Ddot(j, a[i*lda:], 1, a[j*lda:], 1)) / d
			}
		}
	}
	return nil
}

// Dpotrs solves A * x = b using the factorization computed by Dpotrf.
// b is overwritten with the solution; nrhs right-hand sides are stored
// as the columns of the row-major n-by-nrhs matrix b with leading
// dimension ldb.
func Dpotrs(n, nrhs int, a []float64, lda int, b []float64, ldb int) {
	blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
	blas.Dtrsm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
}

// BandStorage describes the packed symmetric band layout used by the
// Dpb routines: row i of the packed array holds the lower band of
// matrix row i, i.e. packed[i*(kd+1)+(j-i+kd)] = A(i,j) for
// max(0, i-kd) <= j <= i. Elements left of the band are unused.
//
// This mirrors LAPACK's 'L' band storage transposed to row-major.
type BandStorage struct {
	N  int       // matrix dimension
	Kd int       // number of sub-diagonals
	AB []float64 // packed band, length N*(Kd+1)
}

// NewBandStorage allocates a zeroed packed band matrix.
func NewBandStorage(n, kd int) *BandStorage {
	return &BandStorage{N: n, Kd: kd, AB: make([]float64, n*(kd+1))}
}

// At returns A(i, j), exploiting symmetry. Out-of-band elements are
// zero.
func (b *BandStorage) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	if i-j > b.Kd {
		return 0
	}
	return b.AB[i*(b.Kd+1)+(j-i+b.Kd)]
}

// Set assigns A(i, j) = v (and by symmetry A(j, i)). It panics if
// (i, j) lies outside the band.
func (b *BandStorage) Set(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	if i-j > b.Kd {
		panic(fmt.Sprintf("lapack: Set(%d,%d) outside band kd=%d", i, j, b.Kd))
	}
	b.AB[i*(b.Kd+1)+(j-i+b.Kd)] = v
}

// Add accumulates v into A(i, j). It panics outside the band.
func (b *BandStorage) Add(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	if i-j > b.Kd {
		panic(fmt.Sprintf("lapack: Add(%d,%d) outside band kd=%d", i, j, b.Kd))
	}
	b.AB[i*(b.Kd+1)+(j-i+b.Kd)] += v
}

// Dpbtrf computes the Cholesky factorization A = L*L^T of a symmetric
// positive definite band matrix in place. On return the packed storage
// holds the banded factor L in the same layout.
func Dpbtrf(m *BandStorage) error {
	n, kd, ab := m.N, m.Kd, m.AB
	w := kd + 1
	// Operation accounting: the banded factorization performs
	// ~n*kd*(kd+1) flops; record it as a gemm-class kernel since its
	// inner loops are dense dot products.
	recordFactor(n, kd)
	for i := 0; i < n; i++ {
		jmin := i - kd
		if jmin < 0 {
			jmin = 0
		}
		for j := jmin; j <= i; j++ {
			lmin := jmin
			if j-kd > lmin {
				lmin = j - kd
			}
			sum := ab[i*w+(j-i+kd)]
			// sum -= L[i][lmin:j] . L[j][lmin:j]
			li := i*w + (lmin - i + kd)
			lj := j*w + (lmin - j + kd)
			for l := lmin; l < j; l++ {
				sum -= ab[li] * ab[lj]
				li++
				lj++
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, i, sum)
				}
				ab[i*w+kd] = math.Sqrt(sum)
			} else {
				ab[i*w+(j-i+kd)] = sum / ab[j*w+kd]
			}
		}
	}
	return nil
}

// Dpbtrs solves A*x = b using a factorization computed by Dpbtrf,
// overwriting b with the solution.
func Dpbtrs(m *BandStorage, b []float64) {
	n, kd, ab := m.N, m.Kd, m.AB
	w := kd + 1
	recordSolve(n, kd)
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		jmin := i - kd
		if jmin < 0 {
			jmin = 0
		}
		sum := b[i]
		off := i*w + (jmin - i + kd)
		for j := jmin; j < i; j++ {
			sum -= ab[off] * b[j]
			off++
		}
		b[i] = sum / ab[i*w+kd]
	}
	// Backward: L^T x = y. Column i of L^T is row i of L, so traverse
	// rows j > i whose band reaches back to i.
	for i := n - 1; i >= 0; i-- {
		jmax := i + kd
		if jmax > n-1 {
			jmax = n - 1
		}
		sum := b[i]
		for j := i + 1; j <= jmax; j++ {
			sum -= ab[j*w+(i-j+kd)] * b[j]
		}
		b[i] = sum / ab[i*w+kd]
	}
}

// recordFactor accounts the banded Cholesky factorization as
// gemm-class work (dense inner products over the band).
func recordFactor(n, kd int) {
	var c blas.Counts
	flops := int64(n) * int64(kd) * int64(kd+1)
	c.Ops[blas.KernelDgemm] = blas.Op{Calls: 1, N: int64(n), Flops: flops, Bytes: 8 * int64(n) * int64(kd+1) * 2}
	addCounts(&c)
}

// SolveCounts returns the operation counts of one banded
// forward/backward substitution pair (Dpbtrs) for an n-dof system of
// half-bandwidth kd — gemv-class work. The paper-scale benchmark
// harness uses it to price the direct solves of meshes too large to
// factor in-process.
func SolveCounts(n, kd int) blas.Counts {
	var c blas.Counts
	flops := 4 * int64(n) * int64(kd+1)
	c.Ops[blas.KernelDgemv] = blas.Op{Calls: 1, N: int64(n), Flops: flops, Bytes: 8 * (2*int64(n)*int64(kd+1) + 2*int64(n))}
	return c
}

// recordSolve accounts a banded triangular solve pair as gemv-class
// work (band-matrix-vector products).
func recordSolve(n, kd int) {
	c := SolveCounts(n, kd)
	addCounts(&c)
}

// addCounts merges c into the active blas recording session, if any.
func addCounts(c *blas.Counts) {
	blas.RecordExternal(c)
}

// Dgetrf computes the LU factorization with partial pivoting of an
// n-by-n row-major matrix in place: A = P * L * U. The returned slice
// holds the pivot row swapped with row i at step i (LAPACK ipiv
// convention, 0-based).
func Dgetrf(n int, a []float64, lda int) ([]int, error) {
	ipiv := make([]int, n)
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, pmax := k, math.Abs(a[k*lda+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*lda+k]); v > pmax {
				p, pmax = i, v
			}
		}
		ipiv[k] = p
		if pmax == 0 {
			return ipiv, fmt.Errorf("%w (column %d)", ErrSingular, k)
		}
		if p != k {
			blas.Dswap(n, a[k*lda:k*lda+n], 1, a[p*lda:p*lda+n], 1)
		}
		inv := 1 / a[k*lda+k]
		for i := k + 1; i < n; i++ {
			a[i*lda+k] *= inv
		}
		// Trailing update A[k+1:, k+1:] -= l * u^T.
		if k+1 < n {
			blas.Dger(n-k-1, n-k-1, -1, a[(k+1)*lda+k:], lda, a[k*lda+k+1:k*lda+n], 1, a[(k+1)*lda+k+1:], lda)
		}
	}
	return ipiv, nil
}

// Dgetrs solves A*x = b for one right-hand side using a factorization
// from Dgetrf, overwriting b.
func Dgetrs(n int, a []float64, lda int, ipiv []int, b []float64) {
	for k := 0; k < n; k++ {
		if p := ipiv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	blas.Dtrsv(blas.Lower, blas.NoTrans, blas.Unit, n, a, lda, b, 1)
	blas.Dtrsv(blas.Upper, blas.NoTrans, blas.NonUnit, n, a, lda, b, 1)
}

// SolveDense is a convenience wrapper: it solves A*x = b for a general
// dense matrix, destroying a and b (b holds the solution).
func SolveDense(n int, a []float64, b []float64) error {
	ipiv, err := Dgetrf(n, a, n)
	if err != nil {
		return err
	}
	Dgetrs(n, a, n, ipiv, b)
	return nil
}
