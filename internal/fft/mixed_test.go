package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"nektar/internal/blas"
)

// smooth5Sizes enumerates every n = 2^a * 3^b * 5^c <= limit, sorted.
func smooth5Sizes(limit int) []int {
	var out []int
	for n := 1; n <= limit; n++ {
		if Smooth5(n) {
			out = append(out, n)
		}
	}
	return out
}

func TestSmooth5(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{1, true}, {2, true}, {6, true}, {30, true}, {360, true}, {384, true},
		{7, false}, {14, false}, {0, false}, {-8, false}, {22, false}} {
		if got := Smooth5(tc.n); got != tc.want {
			t.Errorf("Smooth5(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestMixedRadixExhaustive pins the mixed-radix kernel against the
// O(N^2) reference DFT for EVERY supported fast length up to 360 —
// each radix mix 2^a*3^b*5^c in that range, both directions, plus a
// 1e-12 forward/inverse round-trip bound. This is the blanket
// correctness test the exact-3/2 padded pipeline stands on (its grids
// M = 3N/2 are exactly these mixed sizes).
func TestMixedRadixExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range smooth5Sizes(360) {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		p.Transform(got, false)
		tol := 1e-11 * float64(n)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > tol {
				t.Fatalf("n=%d: X[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		p.Transform(got, true)
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d: round trip error %g at %d", n, cmplx.Abs(got[i]-x[i]), i)
			}
		}
	}
}

// TestGenericPrimeFallback covers lengths with prime factors beyond
// {2,3,5}, which run through the direct-DFT butterfly.
func TestGenericPrimeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{7, 11, 13, 14, 21, 22, 26, 33, 35, 49, 66, 91, 121} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		p.Transform(got, false)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d: X[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		p.Transform(got, true)
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d: round trip error at %d", n, i)
			}
		}
	}
}

// TestManyMatchesPerRow: the batched entry points are the same
// transforms as the per-row calls, just with one workspace and one
// cost-model record per slab.
func TestManyMatchesPerRow(t *testing.T) {
	const n, rows = 24, 5
	rng := rand.New(rand.NewSource(53))
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]complex128, rows*n)
	for i := range batch {
		batch[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	single := append([]complex128(nil), batch...)
	p.Many(batch, rows, false)
	for r := 0; r < rows; r++ {
		p.Transform(single[r*n:(r+1)*n], false)
	}
	for i := range batch {
		if batch[i] != single[i] {
			t.Fatalf("Many diverged from per-row Transform at %d", i)
		}
	}
	p.Many(batch, rows, true)
	for r := 0; r < rows; r++ {
		p.Transform(single[r*n:(r+1)*n], true)
	}
	for i := range batch {
		if batch[i] != single[i] {
			t.Fatalf("inverse Many diverged from per-row Transform at %d", i)
		}
	}
}

// TestManyRealMatchesPerRow pins RealPlan.ManyReal to the scalar
// Forward/Inverse pair, both directions.
func TestManyRealMatchesPerRow(t *testing.T) {
	const n, rows = 48, 4
	h := n / 2
	rng := rand.New(rand.NewSource(59))
	rp, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, rows*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := make([]complex128, rows*(h+1))
	rp.ManyReal(x, spec, rows, false)
	for r := 0; r < rows; r++ {
		want := make([]complex128, h+1)
		rp.Forward(x[r*n:(r+1)*n], want)
		for k := range want {
			if spec[r*(h+1)+k] != want[k] {
				t.Fatalf("row %d: ManyReal forward diverged at %d", r, k)
			}
		}
	}
	back := make([]float64, rows*n)
	rp.ManyReal(back, spec, rows, true)
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-12 {
			t.Fatalf("ManyReal round trip error %g at %d", back[i]-x[i], i)
		}
	}
}

// TestManyRealRecordsTheBatch: ManyReal's one cost-model record carries
// exactly what its rows would have recorded one Forward at a time, so a
// caller that switches to the batch is priced the same.
func TestManyRealRecordsTheBatch(t *testing.T) {
	const n, rows = 48, 4
	rp, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, rows*n)
	spec := make([]complex128, rows*(n/2+1))
	var batch, single blas.Counts
	blas.StartRecording(&batch)
	rp.ManyReal(x, spec, rows, false)
	blas.StartRecording(&single)
	for r := 0; r < rows; r++ {
		rp.Forward(x[r*n:(r+1)*n], spec[:n/2+1])
	}
	blas.StopRecording()
	if batch != single || batch.TotalFlops() == 0 {
		t.Fatalf("ManyReal recorded %+v, %d single Forward calls recorded %+v", batch, rows, single)
	}
}

// TestRealMatchesComplexSmoothLengths: at every even 5-smooth length up
// to 96, and at the 384 of the 256^2 padded grid, the real-input
// transform is the leading half of the complex transform of the
// widened sequence, and its inverse undoes it.
func TestRealMatchesComplexSmoothLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range append(smooth5Sizes(96), 384) {
		if n%2 != 0 {
			continue
		}
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		want := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			want[i] = complex(x[i], 0)
		}
		cp.Transform(want, false)
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, cmplx.Abs(v))
		}
		got := make([]complex128, n/2+1)
		rp.Forward(x, got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-12*scale {
				t.Fatalf("n=%d: X[%d] = %v, complex transform gives %v", n, k, got[k], want[k])
			}
		}
		back := make([]float64, n)
		rp.Inverse(got, back)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d: Inverse(Forward(x))[%d] = %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}
