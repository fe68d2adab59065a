package fft

import (
	"math"
	"testing"

	"nektar/internal/blas"
)

// TestRealRoundTripEverySize pins the Forward/Inverse identity on every
// supported size from the n=2 degenerate plan (whose half-plan is a
// single point) up through 256 — deterministically, so the edge sizes
// are covered on every run rather than when the property sampler
// happens to draw them.
func TestRealRoundTripEverySize(t *testing.T) {
	for n := 2; n <= 256; n *= 2 {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(0.7*float64(i+1)) + 0.3*math.Cos(1.9*float64(i*i+1))
		}
		spec := make([]complex128, n/2+1)
		back := make([]float64, n)
		rp.Forward(x, spec)
		rp.Inverse(spec, back)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: Inverse(Forward(x))[%d] = %g, want %g", n, i, back[i], x[i])
			}
		}
		// The other direction: a valid half-complex spectrum (real DC
		// and Nyquist bins) survives Forward(Inverse(s)) too.
		for k := range spec {
			spec[k] = complex(float64(k+1), 0.5*float64(k))
		}
		spec[0] = complex(real(spec[0]), 0)
		spec[n/2] = complex(real(spec[n/2]), 0)
		rp.Inverse(spec, x)
		spec2 := make([]complex128, n/2+1)
		rp.Forward(x, spec2)
		for k := range spec {
			if d := spec2[k] - spec[k]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
				t.Fatalf("n=%d: Forward(Inverse(s))[%d] = %v, want %v", n, k, spec2[k], spec[k])
			}
		}
	}
}

// TestPlansAreAllocationFree proves plan reuse allocates nothing: all
// scratch lives in the plan, so the per-step transform storm in the
// spectral solvers puts no pressure on the garbage collector.
func TestPlansAreAllocationFree(t *testing.T) {
	const n = 64
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i), float64(n-i))
	}
	if avg := testing.AllocsPerRun(100, func() {
		p.Transform(x, false)
		p.Transform(x, true)
	}); avg != 0 {
		t.Errorf("Plan.Transform allocates %.1f objects per round trip, want 0", avg)
	}

	rp, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	xr := make([]float64, n)
	for i := range xr {
		xr[i] = float64(i % 7)
	}
	spec := make([]complex128, n/2+1)
	if avg := testing.AllocsPerRun(100, func() {
		rp.Forward(xr, spec)
		rp.Inverse(spec, xr)
	}); avg != 0 {
		t.Errorf("RealPlan Forward+Inverse allocates %.1f objects per round trip, want 0", avg)
	}
}

// TestBatchedTransformsAreAllocationFree: the Many/ManyReal slab walks
// reuse the single plan workspace — zero allocations per batch after
// plan construction, at a mixed-radix (non-power-of-two) length so the
// radix-3/5 and radix-4 passes are all on the hook.
func TestBatchedTransformsAreAllocationFree(t *testing.T) {
	const n, rows = 48, 6 // 48 = 2^4 * 3: radix 4,4,3 passes
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, rows*n)
	for i := range x {
		x[i] = complex(float64(i%11), float64(i%7))
	}
	if avg := testing.AllocsPerRun(100, func() {
		p.Many(x, rows, false)
		p.Many(x, rows, true)
	}); avg != 0 {
		t.Errorf("Plan.Many allocates %.1f objects per batched round trip, want 0", avg)
	}

	rp, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	xr := make([]float64, rows*n)
	for i := range xr {
		xr[i] = float64(i % 13)
	}
	spec := make([]complex128, rows*(n/2+1))
	if avg := testing.AllocsPerRun(100, func() {
		rp.ManyReal(xr, spec, rows, false)
		rp.ManyReal(xr, spec, rows, true)
	}); avg != 0 {
		t.Errorf("RealPlan.ManyReal allocates %.1f objects per batched round trip, want 0", avg)
	}

	// The real-input stage of a 256^2 de-aliased step — rows of the
	// M = 384 padded grid — with a cost-model session open, as inside a
	// priced solver: the batch's one record must not allocate either.
	const m, mrows = 384, 8
	rm, err := NewRealPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, mrows*m)
	for i := range xm {
		xm[i] = float64(i % 17)
	}
	specM := make([]complex128, mrows*(m/2+1))
	var counts blas.Counts
	blas.StartRecording(&counts)
	defer blas.StopRecording()
	if avg := testing.AllocsPerRun(20, func() {
		rm.ManyReal(xm, specM, mrows, false)
		rm.ManyReal(xm, specM, mrows, true)
	}); avg != 0 {
		t.Errorf("RealPlan.ManyReal at N=%d allocates %.1f objects per recorded round trip, want 0", m, avg)
	}
}
