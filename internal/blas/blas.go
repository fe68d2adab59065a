// Package blas implements the Basic Linear Algebra Subprograms used by
// the spectral/hp element solvers, from scratch in pure Go.
//
// The paper ("DNS of Turbulence with a PC/Linux Cluster: Fact or
// Fiction?", SC '99) evaluates single-node performance through the
// vendor BLAS libraries (ESSL, SCILIB, SCSL, LIBPERF, and Intel's ASCI
// Red BLAS). This package plays that role: the Level 1 routines
// (dcopy, daxpy, ddot, ...) dominate the right-hand-side setup stages
// of the Navier-Stokes splitting scheme, the Level 2 routine dgemv and
// the Level 3 routine dgemm dominate the elemental transforms, and the
// banded solvers built on top (package lapack) dominate the pressure
// and viscous solves.
//
// Conventions: matrices are dense row-major with an explicit leading
// dimension (stride between rows). Vector routines accept strides
// (increments) like the reference BLAS; negative increments follow the
// reference semantics (the vector is traversed backwards).
//
// Every routine optionally records its operation count through the
// Counters mechanism (see counts.go); the benchmark harness replays
// those counts through the calibrated machine models of package
// machine to regenerate the paper's per-machine timings.
package blas

import "math"

// Transpose selects the operation applied to a matrix operand.
type Transpose int

const (
	// NoTrans uses the matrix as stored.
	NoTrans Transpose = iota
	// Trans uses the transpose of the stored matrix.
	Trans
)

// index returns the element index for a vector of length n with
// increment inc, following reference-BLAS semantics: for negative
// increments the traversal starts from the far end.
func index(i, n, inc int) int {
	if inc >= 0 {
		return i * inc
	}
	return (i - n + 1) * inc
}

// Dcopy copies x into y: y[i] = x[i] for i < n.
func Dcopy(n int, x []float64, incX int, y []float64, incY int) {
	if n <= 0 {
		return
	}
	record(KernelDcopy, n, 0, 16*n)
	if incX == 1 && incY == 1 {
		copy(y[:n], x[:n])
		return
	}
	for i := 0; i < n; i++ {
		y[index(i, n, incY)] = x[index(i, n, incX)]
	}
}

// Dswap exchanges the elements of x and y.
func Dswap(n int, x []float64, incX int, y []float64, incY int) {
	if n <= 0 {
		return
	}
	record(KernelDcopy, n, 0, 32*n)
	for i := 0; i < n; i++ {
		ix, iy := index(i, n, incX), index(i, n, incY)
		x[ix], y[iy] = y[iy], x[ix]
	}
}

// Dscal scales x in place: x[i] *= alpha.
func Dscal(n int, alpha float64, x []float64, incX int) {
	if n <= 0 {
		return
	}
	record(KernelDaxpy, n, n, 16*n)
	if incX == 1 {
		x = x[:n]
		for i := range x {
			x[i] *= alpha
		}
		return
	}
	for i := 0; i < n; i++ {
		x[index(i, n, incX)] *= alpha
	}
}

// Daxpy computes y = alpha*x + y.
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	if n <= 0 || alpha == 0 {
		return
	}
	record(KernelDaxpy, n, 2*n, 24*n)
	if incX == 1 && incY == 1 {
		x = x[:n]
		y = y[:n]
		for i, xv := range x {
			y[i] += alpha * xv
		}
		return
	}
	for i := 0; i < n; i++ {
		y[index(i, n, incY)] += alpha * x[index(i, n, incX)]
	}
}

// Ddot returns the inner product x . y.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	if n <= 0 {
		return 0
	}
	record(KernelDdot, n, 2*n, 16*n)
	var sum float64
	if incX == 1 && incY == 1 {
		x = x[:n]
		y = y[:n]
		// Four-way unrolled accumulation: the partial sums keep the
		// floating-point dependency chain short, which matters for the
		// host-native Figure 3 benchmark.
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= n; i += 4 {
			s0 += x[i] * y[i]
			s1 += x[i+1] * y[i+1]
			s2 += x[i+2] * y[i+2]
			s3 += x[i+3] * y[i+3]
		}
		for ; i < n; i++ {
			s0 += x[i] * y[i]
		}
		return s0 + s1 + s2 + s3
	}
	for i := 0; i < n; i++ {
		sum += x[index(i, n, incX)] * y[index(i, n, incY)]
	}
	return sum
}

// Dnrm2 returns the Euclidean norm of x, guarding against overflow the
// way the reference implementation does (scaled sum of squares).
func Dnrm2(n int, x []float64, incX int) float64 {
	if n <= 0 {
		return 0
	}
	record(KernelDdot, n, 2*n, 8*n)
	scale, ssq := 0.0, 1.0
	for i := 0; i < n; i++ {
		v := x[index(i, n, incX)]
		if v == 0 {
			continue
		}
		if v < 0 {
			v = -v
		}
		if scale < v {
			r := scale / v
			ssq = 1 + ssq*r*r
			scale = v
		} else {
			r := v / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dvmul computes the element-wise (Hadamard) product z = x .* y.
// It is not part of reference BLAS but is the workhorse of the
// quadrature-space nonlinear terms (paper stage 2), so it is counted
// like a Level 1 kernel.
func Dvmul(n int, x []float64, incX int, y []float64, incY int, z []float64, incZ int) {
	if n <= 0 {
		return
	}
	record(KernelDaxpy, n, n, 24*n)
	if incX == 1 && incY == 1 && incZ == 1 {
		x = x[:n]
		y = y[:n]
		z = z[:n]
		for i := range z {
			z[i] = x[i] * y[i]
		}
		return
	}
	for i := 0; i < n; i++ {
		z[index(i, n, incZ)] = x[index(i, n, incX)] * y[index(i, n, incY)]
	}
}

// Dfill sets every element of x to alpha.
func Dfill(n int, alpha float64, x []float64, incX int) {
	if n <= 0 {
		return
	}
	record(KernelDcopy, n, 0, 8*n)
	if incX == 1 {
		x = x[:n]
		for i := range x {
			x[i] = alpha
		}
		return
	}
	for i := 0; i < n; i++ {
		x[index(i, n, incX)] = alpha
	}
}
