package spectral

import (
	"math"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// TestTaylorGreenDecay: w = cos(x) + cos(y) is an exact eigenstate —
// the streamfunction is the vorticity itself (k^2 = 1), so u.grad(w)
// vanishes identically and Crank-Nicolson decays each mode by exactly
// ((1 - nu dt/2)/(1 + nu dt/2)) per step. The solver runs the full
// de-aliased pipeline, so this checks wavenumbers, velocity recovery,
// padding, and the CN update against a closed form.
func TestTaylorGreenDecay(t *testing.T) {
	const n, steps = 16, 20
	cfg := Config{N: n, Re: 50, Dt: 0.01, Seed: 1}
	s, err := NewTurb2D(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	amp := float64(n*n) / 2
	for i := range s.w {
		s.w[i] = 0
	}
	s.w[1] = complex(amp, 0)       // (ky=0, kx=1)
	s.w[n-1] = complex(amp, 0)     // (ky=0, kx=-1)
	s.w[1*n] = complex(amp, 0)     // (ky=1, kx=0)
	s.w[(n-1)*n] = complex(amp, 0) // (ky=-1, kx=0)
	for i := 0; i < steps; i++ {
		s.Step()
	}
	nu := 1 / cfg.Re
	g := (1 - 0.5*cfg.Dt*nu) / (1 + 0.5*cfg.Dt*nu)
	want := amp * math.Pow(g, steps)
	for _, idx := range []int{1, n - 1, 1 * n, (n - 1) * n} {
		got := real(s.w[idx])
		if math.Abs(got-want) > 1e-9*amp {
			t.Fatalf("mode %d: got %.15g want %.15g", idx, got, want)
		}
		if math.Abs(imag(s.w[idx])) > 1e-9*amp {
			t.Fatalf("mode %d grew an imaginary part %g", idx, imag(s.w[idx]))
		}
	}
	// Everything else stays at roundoff level.
	for i, v := range s.w {
		if i == 1 || i == n-1 || i == 1*n || i == (n-1)*n {
			continue
		}
		if math.Abs(real(v)) > 1e-9*amp || math.Abs(imag(v)) > 1e-9*amp {
			t.Fatalf("spurious mode %d = %g", i, v)
		}
	}
}

// TestBasdevantMatchesConvective: on a field band-limited to the 2/3
// band, the Basdevant 4-FFT form and the padded convective form are
// the same advection operator (both alias-free there), so the two
// solvers' nonlinear terms must agree to roundoff inside the band.
func TestBasdevantMatchesConvective(t *testing.T) {
	const n = 16
	forced, err := NewForced(Config{N: n, Re: 100, Dt: 1e-3, Seed: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	decay, err := NewTurb2D(Config{N: n, Re: 100, Dt: 1e-3, Seed: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(decay.w, forced.w) // forced init is already 2/3-band-limited
	forced.stepBasdevant()
	decay.stepConvective()
	maxAmp := 0.0
	for _, v := range decay.specB {
		if a := math.Hypot(real(v), imag(v)); a > maxAmp {
			maxAmp = a
		}
	}
	kmax := n / 3
	for i := 0; i < n; i++ {
		ky := kAt(i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if kx > kmax || kx < -kmax || ky > kmax || ky < -kmax {
				continue
			}
			d := forced.specB[i*n+j] - decay.specB[i*n+j]
			if math.Abs(real(d)) > 1e-10*maxAmp || math.Abs(imag(d)) > 1e-10*maxAmp {
				t.Fatalf("advection mismatch at (ky=%d, kx=%d): %g (scale %g)", ky, kx, d, maxAmp)
			}
		}
	}
}

// TestInitDeterministicAcrossRanks: the PAO field a P-rank run
// assembles must be bit-identical to the serial one — initialization
// hashes global mode indices and normalizes over a fixed global walk.
func TestInitDeterministicAcrossRanks(t *testing.T) {
	const n, p = 16, 4
	cfg := Config{N: n, Re: 200, Dt: 1e-3, Seed: 42}
	ser, err := NewTurb2D(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ser.Field()
	got := make([][]complex128, p)
	_, _, err = simnet.Run(p, machine.Muses().Net, func(nd *simnet.Node) {
		s, err := NewTurb2D(cfg, mpi.World(nd), nil)
		if err != nil {
			panic(err)
		}
		got[nd.Rank] = s.Field()
	})
	if err != nil {
		t.Fatal(err)
	}
	nloc := n / p
	for r := 0; r < p; r++ {
		for i, v := range got[r] {
			if want[r*nloc*n+i] != v {
				t.Fatalf("rank %d init differs from serial at %d", r, i)
			}
		}
	}
}

// TestSerialVsSlabTrajectory: stepping the slab-parallel solver must
// reproduce the serial trajectory bit for bit, for both variants. This
// is the differential that justifies calling the distributed transpose
// a pure parallelization.
func TestSerialVsSlabTrajectory(t *testing.T) {
	const n, p, steps = 16, 4, 4
	cases := []struct {
		name string
		mk   func(comm *mpi.Comm) (*Turb2D, error)
	}{
		{"decay", func(comm *mpi.Comm) (*Turb2D, error) {
			return NewTurb2D(Config{N: n, Re: 300, Dt: 2e-3, Seed: 11}, comm, nil)
		}},
		{"forced", func(comm *mpi.Comm) (*Turb2D, error) {
			return NewForced(Config{N: n, Re: 300, Dt: 2e-3, Seed: 11}, comm, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ser, err := tc.mk(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				ser.Step()
			}
			want := ser.Field()
			got := make([][]complex128, p)
			_, _, err = simnet.Run(p, machine.Muses().Net, func(nd *simnet.Node) {
				s, err := tc.mk(mpi.World(nd))
				if err != nil {
					panic(err)
				}
				for i := 0; i < steps; i++ {
					s.Step()
				}
				got[nd.Rank] = s.Field()
			})
			if err != nil {
				t.Fatal(err)
			}
			nloc := n / p
			for r := 0; r < p; r++ {
				for i, v := range got[r] {
					if want[r*nloc*n+i] != v {
						t.Fatalf("rank %d trajectory differs from serial at %d", r, i)
					}
				}
			}
		})
	}
}

// TestForcedEnergyBounded: the forced run reaches a statistically
// steady state instead of decaying to zero or blowing up — energy
// stays positive and finite over a few hundred steps, and forcing
// keeps it above the pure-decay trajectory.
func TestForcedEnergyBounded(t *testing.T) {
	const n, steps = 16, 200
	s, err := NewForced(Config{N: n, Re: 100, Dt: 5e-3, Seed: 5, E0: 0.01}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		s.Step()
	}
	maxAbs, finite := s.HealthSample()
	if !finite {
		t.Fatal("forced run went non-finite")
	}
	if maxAbs == 0 {
		t.Fatal("forced run decayed to zero despite injection")
	}
	if maxAbs > 1e6 {
		t.Fatalf("forced run blew up: maxAbs=%g", maxAbs)
	}
}

// hermitianDefect is max|w(k) - conj w(-k)| / max|w| over a serial
// solver's spectrum: how far the state is from a real vorticity field.
func hermitianDefect(s *Turb2D) float64 {
	n := s.Cfg.N
	defect, amp := 0.0, 0.0
	for g := 0; g < n; g++ {
		for j := 0; j < n; j++ {
			v, c := s.w[g*n+j], s.w[((n-g)%n)*n+(n-j)%n]
			defect = math.Max(defect, math.Hypot(real(v)-real(c), imag(v)+imag(c)))
			amp = math.Max(amp, math.Hypot(real(v), imag(v)))
		}
	}
	return defect / amp
}

// TestHermitianDefectStaysAtRoundoff: the paired inverse is exact only
// for Hermitian spectra, and the state is Hermitian only to roundoff —
// so the pin is that the anti-Hermitian component gets no feedback from
// the pairing. The forward transform of a real product is Hermitian
// (exactly so in ky), so whatever defect rounding puts into w can only
// decay under the viscous term: after 400 steps it is still at roundoff
// and has not grown past a small multiple of where it stood at step 50.
func TestHermitianDefectStaysAtRoundoff(t *testing.T) {
	cfg := Config{N: 32, Re: 500, Dt: 2e-3, Seed: 5}
	for _, forced := range []bool{false, true} {
		name, mk := "turb2d", NewTurb2D
		if forced {
			name, mk = "turbforce", NewForced
		}
		t.Run(name, func(t *testing.T) {
			s, err := mk(cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var at50 float64
			for i := 1; i <= 400; i++ {
				s.Step()
				if i == 50 {
					at50 = hermitianDefect(s)
				}
			}
			end := hermitianDefect(s)
			t.Logf("%s: Hermitian defect %.3g at step 50, %.3g at step 400", name, at50, end)
			if end > 1e-12 {
				t.Fatalf("Hermitian defect %g after 400 steps, want <= 1e-12", end)
			}
			if end > 4*at50 {
				t.Fatalf("Hermitian defect grew from %g at step 50 to %g at step 400 (more than 4x)", at50, end)
			}
		})
	}
}
