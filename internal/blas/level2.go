package blas

// Dgemv computes y = alpha*op(A)*x + beta*y where A is an m-by-n
// row-major matrix with leading dimension lda and op is selected by t.
// For t == NoTrans, x has length n and y length m; for t == Trans the
// roles are swapped.
func Dgemv(t Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	if m <= 0 || n <= 0 {
		return
	}
	record(KernelDgemv, m*n, 2*m*n, 8*(m*n+m+n))
	lenY := m
	if t == Trans {
		lenY = n
	}
	if beta != 1 {
		if beta == 0 {
			Dfill(lenY, 0, y, incY)
		} else {
			Dscal(lenY, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	switch t {
	case NoTrans:
		if incX == 1 && incY == 1 {
			x = x[:n]
			for i := 0; i < m; i++ {
				row := a[i*lda : i*lda+n]
				// Four products a pass, added to the one sum in index
				// order: bit-identical to a one-product loop, whose speed
				// hangs on where the linker places it (on an Intel Xeon,
				// a third slower when it straddles a 64-byte line). The
				// four-element subslices carry the only bounds checks.
				var sum float64
				j := 0
				for ; j+4 <= n; j += 4 {
					r, v := row[j:j+4:j+4], x[j:j+4:j+4]
					sum += r[0] * v[0]
					sum += r[1] * v[1]
					sum += r[2] * v[2]
					sum += r[3] * v[3]
				}
				for ; j < n; j++ {
					sum += row[j] * x[j]
				}
				y[i] += alpha * sum
			}
			return
		}
		for i := 0; i < m; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += a[i*lda+j] * x[index(j, n, incX)]
			}
			y[index(i, m, incY)] += alpha * sum
		}
	case Trans:
		// y_j += alpha * sum_i A_ij x_i; traverse A row-wise for
		// cache-friendly access.
		if incX == 1 && incY == 1 {
			for i := 0; i < m; i++ {
				row := a[i*lda : i*lda+n]
				ax := alpha * x[i]
				if ax == 0 {
					continue
				}
				for j, v := range row {
					y[j] += ax * v
				}
			}
			return
		}
		for i := 0; i < m; i++ {
			ax := alpha * x[index(i, m, incX)]
			for j := 0; j < n; j++ {
				y[index(j, n, incY)] += ax * a[i*lda+j]
			}
		}
	}
}

// Dger performs the rank-one update A += alpha * x * y^T, where A is
// m-by-n row-major with leading dimension lda.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	if m <= 0 || n <= 0 || alpha == 0 {
		return
	}
	record(KernelDgemv, m*n, 2*m*n, 8*(2*m*n+m+n))
	for i := 0; i < m; i++ {
		ax := alpha * x[index(i, m, incX)]
		if ax == 0 {
			continue
		}
		row := a[i*lda : i*lda+n]
		if incY == 1 {
			for j, yv := range y[:n] {
				row[j] += ax * yv
			}
			continue
		}
		for j := 0; j < n; j++ {
			row[j] += ax * y[index(j, n, incY)]
		}
	}
}

// Uplo selects the triangle of a symmetric or triangular matrix.
type Uplo int

const (
	// Upper references the upper triangle.
	Upper Uplo = iota
	// Lower references the lower triangle.
	Lower
)

// Diag indicates whether a triangular matrix has a unit diagonal.
type Diag int

const (
	// NonUnit means the diagonal is stored explicitly.
	NonUnit Diag = iota
	// Unit means the diagonal is implicitly one.
	Unit
)

// Dtrsv solves op(A) * x = b in place (x overwrites b) for a
// triangular n-by-n row-major matrix A.
func Dtrsv(ul Uplo, t Transpose, d Diag, n int, a []float64, lda int, x []float64, incX int) {
	if n <= 0 {
		return
	}
	record(KernelDgemv, n*n/2, n*n, 8*(n*n/2+2*n))
	// Only the combinations used by the factorization code paths are
	// implemented with fast loops; all four orderings are supported.
	switch {
	case ul == Lower && t == NoTrans:
		for i := 0; i < n; i++ {
			sum := x[index(i, n, incX)]
			for j := 0; j < i; j++ {
				sum -= a[i*lda+j] * x[index(j, n, incX)]
			}
			if d == NonUnit {
				sum /= a[i*lda+i]
			}
			x[index(i, n, incX)] = sum
		}
	case ul == Upper && t == NoTrans:
		for i := n - 1; i >= 0; i-- {
			sum := x[index(i, n, incX)]
			for j := i + 1; j < n; j++ {
				sum -= a[i*lda+j] * x[index(j, n, incX)]
			}
			if d == NonUnit {
				sum /= a[i*lda+i]
			}
			x[index(i, n, incX)] = sum
		}
	case ul == Lower && t == Trans:
		// Solve A^T x = b with A lower triangular (A^T is upper).
		for i := n - 1; i >= 0; i-- {
			sum := x[index(i, n, incX)]
			for j := i + 1; j < n; j++ {
				sum -= a[j*lda+i] * x[index(j, n, incX)]
			}
			if d == NonUnit {
				sum /= a[i*lda+i]
			}
			x[index(i, n, incX)] = sum
		}
	case ul == Upper && t == Trans:
		for i := 0; i < n; i++ {
			sum := x[index(i, n, incX)]
			for j := 0; j < i; j++ {
				sum -= a[j*lda+i] * x[index(j, n, incX)]
			}
			if d == NonUnit {
				sum /= a[i*lda+i]
			}
			x[index(i, n, incX)] = sum
		}
	}
}
