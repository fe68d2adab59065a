package spectral

import (
	"fmt"
	"math"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// transferBound is how close to zero the de-aliased advection term's
// enstrophy and energy transfer sums must be, relative to the sum of
// the magnitudes of their terms.
const transferBound = 1e-13

// transferSums returns the relative enstrophy and energy transfer of
// the advection term a against the vorticity w, both full N x N
// spectral arrays: |Σ Re(conj(w_k) a_k)| and |Σ Re(conj(w_k) a_k)/|k|²|
// over every nonzero k, each over the sum of its terms' magnitudes.
// For a band-limited w and an alias-free Galerkin-truncated a both
// vanish to roundoff: ∫ω u·∇ω and ∫ψ u·∇ω are zero for solenoidal u.
func transferSums(w, a []complex128, n int) (enstrophy, energy float64) {
	var z, zAbs, e, eAbs float64
	for i := 0; i < n; i++ {
		ky := kAt(i, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if kx == 0 && ky == 0 {
				continue
			}
			idx := i*n + j
			term := real(w[idx])*real(a[idx]) + imag(w[idx])*imag(a[idx])
			ik2 := 1 / float64(kx*kx+ky*ky)
			z += term
			zAbs += math.Abs(term)
			e += term * ik2
			eAbs += math.Abs(term) * ik2
		}
	}
	if zAbs == 0 || eAbs == 0 {
		return math.Inf(1), math.Inf(1)
	}
	return math.Abs(z) / zAbs, math.Abs(e) / eAbs
}

// advect builds one rank of the solver, takes one nonlinear-term
// evaluation on its PAO field and returns the rank's slab of w and of
// the advection term.
func advect(cfg Config, comm *mpi.Comm) (w, a []complex128, err error) {
	mk := NewTurb2D
	if cfg.Forced {
		mk = NewForced
	}
	s, err := mk(cfg, comm, nil)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Forced {
		s.stepBasdevant()
	} else {
		s.stepConvective()
	}
	return s.Field(), append([]complex128(nil), s.specB...), nil
}

// TestTransferSumsVanish is a check of the nonlinear term that rests
// on no hash: for both solvers at every N that Check accepts up to 256,
// serially and on P = 2, 4 and 8 slabs wherever Check accepts them, one
// advection evaluation on the PAO field conserves enstrophy and energy
// to roundoff.
func TestTransferSumsVanish(t *testing.T) {
	for n := 8; n <= 256; n++ {
		if !validN(n) {
			continue
		}
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			t.Parallel()
			transferSumsVanishAt(t, n)
		})
	}
}

func transferSumsVanishAt(t *testing.T, n int) {
	for _, forced := range []bool{false, true} {
		cfg := Config{N: n, Re: 500, Dt: 1e-3, Seed: uint64(n), Forced: forced}
		for _, p := range []int{1, 2, 4, 8} {
			if cfg.Check(p) != nil {
				continue
			}
			name := fmt.Sprintf("forced=%v/P=%d", forced, p)
			w, a := make([]complex128, n*n), make([]complex128, n*n)
			if p == 1 {
				ws, as, err := advect(cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				copy(w, ws)
				copy(a, as)
			} else {
				nloc := n / p
				_, _, err := simnet.Run(p, machine.Muses().Net, func(nd *simnet.Node) {
					ws, as, err := advect(cfg, mpi.World(nd))
					if err != nil {
						panic(err)
					}
					copy(w[nd.Rank*nloc*n:], ws)
					copy(a[nd.Rank*nloc*n:], as)
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			z, e := transferSums(w, a, n)
			if !(z <= transferBound && e <= transferBound) {
				t.Errorf("%s: relative enstrophy transfer %.3g, energy transfer %.3g, want both <= %g", name, z, e, transferBound)
			}
		}
	}
}

// TestTransferSumsCatchAliasing shows the bound bites: with the 2/3
// truncation switched off (kmax = 0) on a full-band field (the PAO peak
// moved to N/4, so the band edge carries energy), Basdevant's form on
// the unpadded grid aliases, and the energy transfer misses the bound
// by more than a factor of 1e6.
func TestTransferSumsCatchAliasing(t *testing.T) {
	for _, n := range []int{32, 128} {
		s, err := NewForced(Config{N: n, Re: 500, Dt: 1e-3, Seed: uint64(n), K0: float64(n / 4)}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.kmax = 0
		s.initPAO()
		s.stepBasdevant()
		z, e := transferSums(s.w, s.specB, n)
		if e <= 1e6*transferBound {
			t.Errorf("N=%d aliased: energy transfer %.3g (enstrophy %.3g) within %g of zero: the oracle cannot tell aliased from de-aliased",
				n, e, z, 1e6*transferBound)
		}
	}
}
