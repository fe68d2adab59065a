package spectral

import (
	"math"
	"testing"

	"nektar/internal/fft"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// randPhys is a deterministic real field on an n x n grid.
func randPhys(n int) []float64 {
	x := make([]float64, n*n)
	for i := range x {
		x[i] = 2*phase01(mix64(uint64(i)+99)) - 1
	}
	return x
}

func TestPlan2DRoundTrip(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		pl, err := NewPlan2D(n, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		phys := randPhys(n)
		spec := make([]complex128, n*n)
		back := make([]float64, n*n)
		pl.Forward(phys, spec)
		pl.Inverse(spec, back)
		for i := range phys {
			if math.Abs(back[i]-phys[i]) > 1e-12 {
				t.Fatalf("n=%d round trip error %g at %d", n, back[i]-phys[i], i)
			}
		}
	}
}

// hermitianSpec builds a random-phase Hermitian-symmetric spectrum with
// zero Nyquist lines (the invariant the solvers maintain), via the PAO
// initializer of a throwaway solver.
func hermitianSpec(t *testing.T, n int, seed uint64) []complex128 {
	t.Helper()
	s, err := NewTurb2D(Config{N: n, Re: 100, Dt: 1e-3, Seed: seed}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.Field()
}

// maxAbs is the max-norm of a real field.
func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// maxDiff is the max-norm of a - b.
func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// inversePipeline is one of the plan's two spectral-to-physical
// pipelines, so the pair tests run the same body over both.
type inversePipeline struct {
	name   string
	padded bool
	single func(pl *Plan2D, spec []complex128, phys []float64)
	pair   func(pl *Plan2D, a, b []complex128, pa, pb []float64)
	side   func(pl *Plan2D) (rows, cols int) // this rank's physical slab
}

var inversePipelines = []inversePipeline{
	{"Inverse", false, (*Plan2D).Inverse, (*Plan2D).InversePair,
		func(pl *Plan2D) (int, int) { return pl.nloc, pl.N }},
	{"InversePad", true, (*Plan2D).InversePad, (*Plan2D).InversePadPair,
		func(pl *Plan2D) (int, int) { return pl.PadRows(), pl.M }},
}

// TestInversePairMatchesSingles: for Hermitian spectra the paired
// inverse is the two single inverses to roundoff, on both pipelines,
// and on every rank count the grid rule allows the slab run reproduces
// the serial pair bit for bit.
func TestInversePairMatchesSingles(t *testing.T) {
	for _, n := range []int{8, 12, 20, 32} {
		a, b := hermitianSpec(t, n, 7), hermitianSpec(t, n, 8)
		for _, ip := range inversePipelines {
			ser, err := NewPlan2D(n, ip.padded, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := ip.side(ser)
			oneA, oneB := make([]float64, rows*cols), make([]float64, rows*cols)
			ip.single(ser, a, oneA)
			ip.single(ser, b, oneB)
			pairA, pairB := make([]float64, rows*cols), make([]float64, rows*cols)
			ip.pair(ser, a, b, pairA, pairB)
			if d, tol := maxDiff(pairA, oneA), 1e-12*maxAbs(oneA); d > tol {
				t.Fatalf("%s n=%d: paired field A off the single form by %g (tol %g)", ip.name, n, d, tol)
			}
			if d, tol := maxDiff(pairB, oneB), 1e-12*maxAbs(oneB); d > tol {
				t.Fatalf("%s n=%d: paired field B off the single form by %g (tol %g)", ip.name, n, d, tol)
			}

			for p := 2; p <= 8; p++ {
				if gridProblem(n, ip.padded, p) != "" {
					continue
				}
				nloc := n / p
				gotA, gotB := make([][]float64, p), make([][]float64, p)
				_, _, err := simnet.Run(p, machine.Muses().Net, func(nd *simnet.Node) {
					pl, err := NewPlan2D(n, ip.padded, mpi.World(nd))
					if err != nil {
						panic(err)
					}
					r, c := ip.side(pl)
					pa, pb := make([]float64, r*c), make([]float64, r*c)
					lo, hi := nd.Rank*nloc*n, (nd.Rank+1)*nloc*n
					ip.pair(pl, a[lo:hi], b[lo:hi], pa, pb)
					gotA[nd.Rank], gotB[nd.Rank] = pa, pb
				})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < p; r++ {
					off := r * len(gotA[r])
					for i := range gotA[r] {
						if gotA[r][i] != pairA[off+i] || gotB[r][i] != pairB[off+i] {
							t.Fatalf("%s n=%d P=%d: rank %d differs from the serial pair at %d", ip.name, n, p, r, i)
						}
					}
				}
			}
		}
	}
}

// TestInversePairCrossTalk: the pair form is for Hermitian spectra
// only. The anti-Hermitian part of the first spectrum transforms to an
// imaginary field; the single form discards it, the pair form adds it
// to the second output — exactly it, and nothing to the first.
func TestInversePairCrossTalk(t *testing.T) {
	const n = 16
	b := hermitianSpec(t, n, 8)
	a := hermitianSpec(t, n, 7)
	for i := range a { // break the symmetry: scale the kx > 0 half only
		if kx := kAt(i%n, n); kx > 0 {
			a[i] *= 3
		}
	}
	minusIA := make([]complex128, len(a))
	for i, v := range a {
		minusIA[i] = complex(imag(v), -real(v))
	}
	for _, ip := range inversePipelines {
		pl, err := NewPlan2D(n, ip.padded, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := ip.side(pl)
		np := rows * cols
		oneA, oneB, leak := make([]float64, np), make([]float64, np), make([]float64, np)
		ip.single(pl, a, oneA)
		ip.single(pl, b, oneB)
		// Re F^-1(-i a) = Im F^-1(a): what the single form threw away.
		ip.single(pl, minusIA, leak)
		if maxAbs(leak) < 0.1*maxAbs(oneA) {
			t.Fatalf("%s: test spectrum is too nearly Hermitian to show a leak", ip.name)
		}
		pairA, pairB := make([]float64, np), make([]float64, np)
		ip.pair(pl, a, b, pairA, pairB)
		if d, tol := maxDiff(pairA, oneA), 1e-12*maxAbs(oneA); d > tol {
			t.Fatalf("%s: field A moved by %g (tol %g)", ip.name, d, tol)
		}
		for i := range oneB {
			oneB[i] += leak[i]
		}
		if d, tol := maxDiff(pairB, oneB), 1e-12*maxAbs(oneB); d > tol {
			t.Fatalf("%s: field B is not the single form plus A's discarded imaginary part: off by %g (tol %g)", ip.name, d, tol)
		}
	}
}

// refForward is the complex-to-complex forward pipeline the real-input
// one replaced, built from fft.Plan.Many on widened data: m x m real
// samples phys[x][y] to the n x n spectrum spec[ky][kx] (m = n: no
// truncation), scaled by (n/m)^2.
func refForward(t *testing.T, phys []float64, n, m int) []complex128 {
	t.Helper()
	plan, err := fft.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(in, out []complex128) {
		if m == n {
			copy(out, in)
		} else {
			truncRow(in, out, n, m)
		}
	}
	wide := make([]complex128, m*m)
	for i, v := range phys {
		wide[i] = complex(v, 0)
	}
	plan.Many(wide, m, false)
	kyx := make([]complex128, n*m) // [ky][x]
	row := make([]complex128, n)
	for x := 0; x < m; x++ {
		keep(wide[x*m:(x+1)*m], row)
		for ky, v := range row {
			kyx[ky*m+x] = v
		}
	}
	plan.Many(kyx, n, false)
	spec := make([]complex128, n*n)
	scale := complex(float64(n*n)/float64(m*m), 0)
	for ky := 0; ky < n; ky++ {
		keep(kyx[ky*m:(ky+1)*m], spec[ky*n:(ky+1)*n])
	}
	for i := range spec {
		spec[i] *= scale
	}
	return spec
}

// TestForwardRealInput: the real-input forward pipelines agree with the
// complex-to-complex reference to roundoff, and their first stage hands
// the transpose a slab that is conjugate-symmetric in ky exactly, not
// to roundoff — every negative-ky column is written as the conjugate of
// its partner.
func TestForwardRealInput(t *testing.T) {
	for _, n := range []int{8, 12, 20, 32} {
		pl, err := NewPlan2D(n, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			m      int
			run    func(phys []float64, spec []complex128)
			stage1 []complex128 // m rows of n ky-columns, as the transpose reads it
		}{
			{"Forward", n, pl.Forward, pl.sb[:n*n]},
			{"ForwardPad", pl.M, pl.ForwardPad, pl.sc},
		} {
			phys := randPhys(tc.m)
			got := make([]complex128, n*n)
			tc.run(phys, got)
			want := refForward(t, phys, n, tc.m)
			scale := 0.0
			for _, v := range want {
				scale = math.Max(scale, math.Hypot(real(v), imag(v)))
			}
			for i := range want {
				if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-12*scale {
					t.Fatalf("%s n=%d: coefficient %d is %v, reference %v", tc.name, n, i, got[i], want[i])
				}
			}
			for x := 0; x < tc.m; x++ {
				row := tc.stage1[x*n : (x+1)*n]
				for ky := 1; ky < n/2; ky++ {
					if v := row[ky]; row[n-ky] != complex(real(v), -imag(v)) {
						t.Fatalf("%s n=%d: stage-1 row %d is not conjugate-symmetric at ky=%d: %v vs %v", tc.name, n, x, ky, v, row[n-ky])
					}
				}
				if imag(row[0]) != 0 || imag(row[n/2]) != 0 {
					t.Fatalf("%s n=%d: stage-1 row %d has complex self-conjugate modes %v, %v", tc.name, n, x, row[0], row[n/2])
				}
			}
		}
	}
}

// TestPlan2DPadRoundTrip: padding to the fine grid and truncating back
// is the identity on band-limited spectra (the fine grid resolves every
// retained mode exactly).
func TestPlan2DPadRoundTrip(t *testing.T) {
	const n = 16
	pl, err := NewPlan2D(n, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := hermitianSpec(t, n, 7)
	phys := make([]float64, pl.PadRows()*pl.M)
	back := make([]complex128, n*n)
	pl.InversePad(spec, phys)
	pl.ForwardPad(phys, back)
	maxAmp := 0.0
	for _, v := range spec {
		if a := real(v)*real(v) + imag(v)*imag(v); a > maxAmp {
			maxAmp = a
		}
	}
	tol := 1e-12 * math.Sqrt(maxAmp)
	for i := range spec {
		d := back[i] - spec[i]
		if math.Abs(real(d)) > tol || math.Abs(imag(d)) > tol {
			t.Fatalf("pad round trip error %g at %d (tol %g)", d, i, tol)
		}
	}
}

// TestPlan2DExactPadGrid: the padded pipeline allocates the exact
// 3/2-rule grid and moves an N x M complex matrix per half-transform.
func TestPlan2DExactPadGrid(t *testing.T) {
	const n = 16
	pl, err := NewPlan2D(n, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.M != 3*n/2 {
		t.Fatalf("M = %d, want %d", pl.M, 3*n/2)
	}
	if got, want := pl.PadTransposeBytes(), int64(16*n*pl.M); got != want {
		t.Fatalf("padded transpose payload %d bytes, want %d", got, want)
	}
}

// TestPlan2DMixedRadixGrids: the unpadded and padded pipelines work on
// the non-power-of-two grid sizes the mixed-radix planner unlocks.
func TestPlan2DMixedRadixGrids(t *testing.T) {
	for _, n := range []int{12, 20, 24, 36, 40, 48} {
		pl, err := NewPlan2D(n, true, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if pl.M != 3*n/2 {
			t.Fatalf("n=%d: M = %d, want %d", n, pl.M, 3*n/2)
		}
		phys := randPhys(n)
		spec := make([]complex128, n*n)
		back := make([]float64, n*n)
		pl.Forward(phys, spec)
		pl.Inverse(spec, back)
		for i := range phys {
			if math.Abs(back[i]-phys[i]) > 1e-11 {
				t.Fatalf("n=%d round trip error %g at %d", n, back[i]-phys[i], i)
			}
		}
	}
}

// TestPlan2DRejectsBadShapes: odd grids, exact-pad grids not divisible
// by 4, and rank counts that divide N but not M all fail loudly.
func TestPlan2DRejectsBadShapes(t *testing.T) {
	if _, err := NewPlan2D(15, false, nil); err == nil {
		t.Fatal("odd grid accepted")
	}
	if _, err := NewPlan2D(18, true, nil); err == nil {
		t.Fatal("exact-3/2 pad of an N % 4 != 0 grid accepted (M would be odd)")
	}
}

// TestPlan2DParallelMatchesSerial: the slab-parallel pipelines must be
// bit-identical to serial — same per-row transforms, transposes are
// pure data movement.
func TestPlan2DParallelMatchesSerial(t *testing.T) {
	const n, p = 16, 4
	spec := hermitianSpec(t, n, 7)

	serU, err := NewPlan2D(n, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPad := make([]float64, serU.PadRows()*serU.M)
	serU.InversePad(spec, wantPad)
	wantSpec := make([]complex128, n*n)
	serU.ForwardPad(wantPad, wantSpec)
	wantPhys := make([]float64, n*n)
	serU.Inverse(spec, wantPhys)

	nloc := n / p
	gotPad := make([][]float64, p)
	gotSpec := make([][]complex128, p)
	gotPhys := make([][]float64, p)
	_, _, err = simnet.Run(p, machine.Muses().Net, func(nd *simnet.Node) {
		comm := mpi.World(nd)
		pl, err := NewPlan2D(n, true, comm)
		if err != nil {
			panic(err)
		}
		slab := spec[nd.Rank*nloc*n : (nd.Rank+1)*nloc*n]
		pad := make([]float64, pl.PadRows()*pl.M)
		pl.InversePad(slab, pad)
		sp := make([]complex128, nloc*n)
		pl.ForwardPad(pad, sp)
		phys := make([]float64, nloc*n)
		pl.Inverse(slab, phys)
		gotPad[nd.Rank], gotSpec[nd.Rank], gotPhys[nd.Rank] = pad, sp, phys
	})
	if err != nil {
		t.Fatal(err)
	}
	mloc := serU.M / p
	for r := 0; r < p; r++ {
		for i, v := range gotPad[r] {
			if want := wantPad[r*mloc*serU.M+i]; want != v {
				t.Fatalf("rank %d padded phys differs at %d: %g vs %g", r, i, v, want)
			}
		}
		for i, v := range gotSpec[r] {
			if want := wantSpec[r*nloc*n+i]; want != v {
				t.Fatalf("rank %d spec differs at %d", r, i)
			}
		}
		for i, v := range gotPhys[r] {
			if want := wantPhys[r*nloc*n+i]; want != v {
				t.Fatalf("rank %d phys differs at %d", r, i)
			}
		}
	}
}
