// Package fft implements the fast Fourier transforms used by the
// Fourier-spectral/hp solver Nektar-F and the pseudospectral
// turbulence solvers: a mixed-radix complex transform and a
// real-to-half-complex wrapper.
//
// The planner factors the length into radix-4 and radix-2 passes
// (powers of two split as 4·4·…·(2) — fewer, wider passes than an
// all-radix-2 ladder), dedicated radix-3 and radix-5 butterflies with
// precomputed twiddles, and a generic direct-DFT butterfly for any
// other prime factor. NewPlan therefore accepts every length n >= 1;
// lengths of the form 2^a·3^b·5^c run entirely in the dedicated
// butterflies and are the fast set the spectral pipelines use (the
// exact-3/2-rule padded grid M = 3N/2 is 2^(a-1)·3^(b+1)·5^c for a
// power-of-two N), while a stray larger prime p costs an O(p²) pass —
// correct, but not a size a hot path should pick.
//
// The transform engine is a Stockham autosort: each pass reads one
// buffer and scatters to the other, so there is no bit-reversal
// permutation and every pass walks both buffers sequentially. All
// scratch lives in the plan; steady-state transforms allocate nothing,
// and the batched entry points (Plan.Many, RealPlan.ManyReal) walk all
// rows of a slab in one call against one shared workspace.
package fft

import (
	"fmt"
	"math"

	"nektar/internal/blas"
)

// stage is one Stockham pass: the sub-length l of the recursion level,
// its radix r, and m = l/r butterflies per batch. tw holds the stage
// twiddles w_l^{p·j} for p in 0..m-1, j in 1..r-1, flattened row-major
// by p; root holds the r-th roots of unity w_r^k for the generic
// butterfly (nil for the dedicated radices 2..5).
type stage struct {
	r, m int
	tw   []complex128
	root []complex128
}

// Plan holds the factorization, per-stage twiddle tables, and the
// ping-pong scratch buffer for transforms of a fixed length.
type Plan struct {
	N int

	stages  []stage
	scratch []complex128 // Stockham partner buffer, length N
	gather  []complex128 // generic-butterfly input staging, length max radix
	flops   int64        // modeled flop count per transform (5 N log2 N)
}

// factorize splits n into the stage radices, greedily taking 4s from
// the power-of-two part, then 3s, 5s, and finally any remaining primes
// by trial division.
func factorize(n int) []int {
	var fs []int
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	if n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for _, r := range []int{3, 5} {
		for n%r == 0 {
			fs = append(fs, r)
			n /= r
		}
	}
	for d := 7; d*d <= n; d += 2 {
		for n%d == 0 {
			fs = append(fs, d)
			n /= d
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// Smooth5 reports whether every prime factor of n is 2, 3, or 5 — the
// lengths the planner handles entirely with dedicated butterflies.
// The spectral front ends validate grid sizes against this set so the
// de-aliased hot path never falls back to the generic-prime pass.
func Smooth5(n int) bool {
	if n < 1 {
		return false
	}
	for _, r := range []int{2, 3, 5} {
		for n%r == 0 {
			n /= r
		}
	}
	return n == 1
}

// NewPlan creates a plan for any length n >= 1. All lengths are
// accepted; see the package comment for which ones are fast.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: length %d must be >= 1 (fast lengths are 2^a*3^b*5^c)", n)
	}
	p := &Plan{N: n}
	maxR := 1
	l := n
	for _, r := range factorize(n) {
		m := l / r
		st := stage{r: r, m: m}
		// Stage twiddles w_l^{p*j} = exp(-2*pi*i*p*j/l), j = 1..r-1.
		st.tw = make([]complex128, m*(r-1))
		for pp := 0; pp < m; pp++ {
			for j := 1; j < r; j++ {
				ang := -2 * math.Pi * float64(pp*j%l) / float64(l)
				st.tw[pp*(r-1)+j-1] = complex(math.Cos(ang), math.Sin(ang))
			}
		}
		if r > 5 {
			st.root = make([]complex128, r)
			for k := 0; k < r; k++ {
				ang := -2 * math.Pi * float64(k) / float64(r)
				st.root[k] = complex(math.Cos(ang), math.Sin(ang))
			}
			if r > maxR {
				maxR = r
			}
		}
		p.stages = append(p.stages, st)
		l = m
	}
	p.scratch = make([]complex128, n)
	if maxR > 1 {
		p.gather = make([]complex128, maxR)
	}
	if n > 1 {
		p.flops = int64(5 * float64(n) * math.Log2(float64(n)))
	}
	return p, nil
}

// conjIf conjugates w for the inverse transform.
func conjIf(w complex128, inverse bool) complex128 {
	if inverse {
		return complex(real(w), -imag(w))
	}
	return w
}

// pass runs one Stockham stage from src to dst: src holds the data
// with batch stride s, and the radix-r small DFT of the m-strided
// gather lands contiguously (times the stage twiddle) in dst.
func (p *Plan) pass(st *stage, src, dst []complex128, s int, inverse bool) {
	r, m := st.r, st.m
	switch r {
	case 2:
		for pp := 0; pp < m; pp++ {
			w := conjIf(st.tw[pp], inverse)
			i0, o0 := s*pp, s*2*pp
			for q := 0; q < s; q++ {
				a := src[q+i0]
				b := src[q+i0+s*m]
				dst[q+o0] = a + b
				dst[q+o0+s] = (a - b) * w
			}
		}
	case 4:
		// sigma is the -i of the forward radix-4 butterfly; +i inverse.
		sigma := -1.0
		if inverse {
			sigma = 1.0
		}
		for pp := 0; pp < m; pp++ {
			w1 := conjIf(st.tw[3*pp], inverse)
			w2 := conjIf(st.tw[3*pp+1], inverse)
			w3 := conjIf(st.tw[3*pp+2], inverse)
			i0, o0 := s*pp, s*4*pp
			for q := 0; q < s; q++ {
				a0 := src[q+i0]
				a1 := src[q+i0+s*m]
				a2 := src[q+i0+2*s*m]
				a3 := src[q+i0+3*s*m]
				t0, t1 := a0+a2, a0-a2
				t2, t3 := a1+a3, a1-a3
				jt3 := complex(-sigma*imag(t3), sigma*real(t3)) // sigma*i*t3
				dst[q+o0] = t0 + t2
				dst[q+o0+s] = (t1 + jt3) * w1
				dst[q+o0+2*s] = (t0 - t2) * w2
				dst[q+o0+3*s] = (t1 - jt3) * w3
			}
		}
	case 3:
		// w3 = exp(-2*pi*i/3) = -1/2 - i*sqrt(3)/2 (conjugated inverse).
		v := -math.Sqrt(3) / 2
		if inverse {
			v = -v
		}
		for pp := 0; pp < m; pp++ {
			w1 := conjIf(st.tw[2*pp], inverse)
			w2 := conjIf(st.tw[2*pp+1], inverse)
			i0, o0 := s*pp, s*3*pp
			for q := 0; q < s; q++ {
				a0 := src[q+i0]
				a1 := src[q+i0+s*m]
				a2 := src[q+i0+2*s*m]
				sum := a1 + a2
				d := a1 - a2
				mid := a0 - 0.5*sum
				jvd := complex(-v*imag(d), v*real(d)) // i*v*d
				dst[q+o0] = a0 + sum
				dst[q+o0+s] = (mid + jvd) * w1
				dst[q+o0+2*s] = (mid - jvd) * w2
			}
		}
	case 5:
		// cos/sin of 2*pi/5 and 4*pi/5; the sine terms flip for inverse.
		const (
			c1 = 0.30901699437494742 // cos(2*pi/5)
			c2 = -0.8090169943749475 // cos(4*pi/5)
			s1 = 0.9510565162951535  // sin(2*pi/5)
			s2 = 0.5877852522924731  // sin(4*pi/5)
		)
		sg := 1.0
		if inverse {
			sg = -1.0
		}
		for pp := 0; pp < m; pp++ {
			w1 := conjIf(st.tw[4*pp], inverse)
			w2 := conjIf(st.tw[4*pp+1], inverse)
			w3 := conjIf(st.tw[4*pp+2], inverse)
			w4 := conjIf(st.tw[4*pp+3], inverse)
			i0, o0 := s*pp, s*5*pp
			for q := 0; q < s; q++ {
				a0 := src[q+i0]
				a1 := src[q+i0+s*m]
				a2 := src[q+i0+2*s*m]
				a3 := src[q+i0+3*s*m]
				a4 := src[q+i0+4*s*m]
				p1, d1 := a1+a4, a1-a4
				p2, d2 := a2+a3, a2-a3
				e1 := a0 + c1*p1 + c2*p2
				e2 := a0 + c2*p1 + c1*p2
				o1 := s1*d1 + s2*d2
				o2 := s2*d1 - s1*d2
				// h = -sigma*i*o with sigma=+1 forward: X1 = e1 - i*o1.
				h1 := complex(sg*imag(o1), -sg*real(o1))
				h2 := complex(sg*imag(o2), -sg*real(o2))
				dst[q+o0] = a0 + p1 + p2
				dst[q+o0+s] = (e1 + h1) * w1
				dst[q+o0+2*s] = (e2 + h2) * w2
				dst[q+o0+3*s] = (e2 - h2) * w3
				dst[q+o0+4*s] = (e1 - h1) * w4
			}
		}
	default:
		// Generic prime butterfly: a direct O(r^2) DFT against the
		// precomputed r-th roots. Only stray non-{2,3,5} factors land
		// here; the spectral grids never do.
		for pp := 0; pp < m; pp++ {
			i0, o0 := s*pp, s*r*pp
			for q := 0; q < s; q++ {
				g := p.gather[:r]
				for i := 0; i < r; i++ {
					g[i] = src[q+i0+i*s*m]
				}
				dst[q+o0] = 0
				for i := 0; i < r; i++ {
					dst[q+o0] += g[i]
				}
				for j := 1; j < r; j++ {
					acc := g[0]
					for i := 1; i < r; i++ {
						acc += g[i] * conjIf(st.root[i*j%r], inverse)
					}
					dst[q+o0+j*s] = acc * conjIf(st.tw[pp*(r-1)+j-1], inverse)
				}
			}
		}
	}
}

// transform is the unrecorded Stockham driver: ping-pong between x and
// the plan scratch, copying back when the stage count is odd.
func (p *Plan) transform(x []complex128, inverse bool) {
	src, dst := x, p.scratch
	s := 1
	for i := range p.stages {
		st := &p.stages[i]
		p.pass(st, src, dst, s, inverse)
		s *= st.r
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
	if inverse {
		inv := 1 / float64(p.N)
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}

// Transform computes the in-place complex DFT of x (length N).
// inverse selects the inverse transform, which includes the 1/N
// normalization so that Transform(Transform(x), true) == x.
func (p *Plan) Transform(x []complex128, inverse bool) {
	if len(x) != p.N {
		panic(fmt.Sprintf("fft: length %d, plan is for %d", len(x), p.N))
	}
	recordFFT(p.N, 1, p.flops)
	p.transform(x, inverse)
}

// Many transforms rows consecutive length-N rows of x in place — the
// batched entry point the slab pipelines walk a whole spectral slab
// with. One workspace and one cost-model record cover the entire
// batch, and steady-state calls allocate nothing.
func (p *Plan) Many(x []complex128, rows int, inverse bool) {
	if len(x) != rows*p.N {
		panic(fmt.Sprintf("fft: Many got %d values, plan wants %d rows x %d", len(x), rows, p.N))
	}
	recordFFT(p.N, rows, p.flops)
	for i := 0; i < rows; i++ {
		p.transform(x[i*p.N:(i+1)*p.N], inverse)
	}
}

// recordFFT accounts FFT work with the blas counters so the machine
// models can price it: rows transforms of length n at ~5 n log2(n)
// flops each, streamed as daxpy-class work.
func recordFFT(n, rows int, flopsPer int64) {
	var c blas.Counts
	passes := int64(math.Log2(float64(n))) + 1
	c.Ops[blas.KernelDaxpy] = blas.Op{
		Calls: int64(rows),
		N:     int64(n * rows),
		Flops: flopsPer * int64(rows),
		Bytes: int64(16*n*rows) * passes,
	}
	blas.RecordExternal(&c)
}

// RealPlan transforms real sequences of even length n to half-complex
// spectra of n/2+1 coefficients, via a half-length complex plan.
type RealPlan struct {
	N    int
	half *Plan
	z    []complex128 // packed even/odd staging, length N/2
	tw   []complex128 // untangling twiddles exp(-2*pi*i*k/N), k = 0..N/2
}

// NewRealPlan creates a real-transform plan for even n >= 2 (the
// even/odd packing needs n/2 integral; every even 2^a*3^b*5^c length
// is fast, like the complex planner).
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("fft: real length %d must be even and >= 2 (fast lengths are even 2^a*3^b*5^c)", n)
	}
	hp, err := NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	rp := &RealPlan{N: n, half: hp, z: make([]complex128, n/2), tw: make([]complex128, n/2+1)}
	for k := range rp.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		rp.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return rp, nil
}

// Forward computes the spectrum of the real sequence x (length N)
// into out (length N/2+1): out[k] = sum_j x[j] exp(-2*pi*i*j*k/N).
// out[0] and out[N/2] have zero imaginary parts.
func (rp *RealPlan) Forward(x []float64, out []complex128) {
	if len(x) != rp.N || len(out) != rp.N/2+1 {
		panic("fft: RealPlan.Forward length mismatch")
	}
	recordFFT(rp.half.N, 1, rp.half.flops)
	rp.forward(x, out)
}

// forward is the unrecorded body of Forward.
func (rp *RealPlan) forward(x []float64, out []complex128) {
	h := rp.N / 2
	z := rp.z
	for i := range z {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	rp.half.transform(z, false)
	// Untangle even/odd spectra. The half spectrum is h-periodic, so
	// both real-valued end bins pair z[0] with itself.
	out[0] = complex(real(rp.untangle(0, z[0], z[0])), 0)
	out[h] = complex(real(rp.untangle(h, z[0], z[0])), 0)
	for k := 1; k < h; k++ {
		out[k] = rp.untangle(k, z[k], z[h-k])
	}
}

// untangle recovers X_k from Z_k and Z_{h-k}, the half-length spectrum
// of the even samples plus i times the odd ones.
func (rp *RealPlan) untangle(k int, zk, zNk complex128) complex128 {
	even := complex(0.5*(real(zk)+real(zNk)), 0.5*(imag(zk)-imag(zNk)))
	odd := complex(0.5*(imag(zk)+imag(zNk)), 0.5*(real(zNk)-real(zk)))
	return even + rp.tw[k]*odd
}

// Inverse reconstructs the real sequence from a half-complex spectrum,
// including the 1/N normalization (Inverse(Forward(x)) == x).
func (rp *RealPlan) Inverse(spec []complex128, x []float64) {
	if len(spec) != rp.N/2+1 || len(x) != rp.N {
		panic("fft: RealPlan.Inverse length mismatch")
	}
	recordFFT(rp.half.N, 1, rp.half.flops)
	rp.inverse(spec, x)
}

// inverse is the unrecorded body of Inverse.
func (rp *RealPlan) inverse(spec []complex128, x []float64) {
	h := rp.N / 2
	z := rp.z
	// Repack the half-complex spectrum into the length-h complex
	// spectrum of the interleaved sequence.
	// With X the full spectrum, E_k = (X_k + X_{k+h})/2 and
	// O_k = w^{-k}(X_k - X_{k+h})/2 recover the even/odd sample
	// spectra; X_{k+h} = conj(X_{h-k}) by real-input symmetry.
	for k := 0; k < h; k++ {
		sk := spec[k]
		var xkh complex128 // X_{k + N/2}
		if k == 0 {
			xkh = spec[h]
		} else {
			xkh = complex(real(spec[h-k]), -imag(spec[h-k]))
		}
		even := (sk + xkh) * 0.5
		w := complex(real(rp.tw[k]), -imag(rp.tw[k]))
		odd := w * (sk - xkh) * 0.5
		z[k] = complex(real(even)-imag(odd), imag(even)+real(odd))
	}
	rp.half.transform(z, true)
	for i, v := range z {
		x[2*i] = real(v)
		x[2*i+1] = imag(v)
	}
}

// ManyReal batch-transforms rows rows in one call with zero
// steady-state allocations and one cost-model record for the batch:
// forward takes rows*N reals in x to rows*(N/2+1) half-complex rows in
// spec; inverse goes the other way.
func (rp *RealPlan) ManyReal(x []float64, spec []complex128, rows int, inverse bool) {
	n, h := rp.N, rp.N/2
	if len(x) != rows*n || len(spec) != rows*(h+1) {
		panic(fmt.Sprintf("fft: ManyReal got %d reals / %d coeffs, plan wants %d rows of %d / %d",
			len(x), len(spec), rows, n, h+1))
	}
	recordFFT(h, rows, rp.half.flops)
	for i := 0; i < rows; i++ {
		xr := x[i*n : (i+1)*n]
		sr := spec[i*(h+1) : (i+1)*(h+1)]
		if inverse {
			rp.inverse(sr, xr)
		} else {
			rp.forward(xr, sr)
		}
	}
}
