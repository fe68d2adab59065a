package spectral

import (
	"math"
	"testing"

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

// bandLimitedSpec builds a Hermitian-symmetric spectrum with zero
// Nyquist lines (the invariant the solvers maintain), via the PAO
// initializer of a throwaway solver.
func bandLimitedSpec(t *testing.T, n int) []complex128 {
	t.Helper()
	s, err := NewTurb2D(Config{N: n, Re: 100, Dt: 1e-3, Seed: 7}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.Field()
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
	spec := bandLimitedSpec(t, n)
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
	spec := bandLimitedSpec(t, n)

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
