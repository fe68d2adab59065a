package spectral

import (
	"fmt"
	"math"
	"testing"
)

// paoReference is the PAO field of one slab computed mode by mode: a
// paoAmp call for every in-band mode of the row-major normalization
// walk and again for every stored mode. The tabulated initPAO must
// reproduce it bit for bit.
func paoReference(s *Turb2D) []complex128 {
	n, k0 := s.Cfg.N, s.Cfg.K0
	sumE := 0.0
	for g := 0; g < n; g++ {
		ky := kAt(g, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if (kx == 0 && ky == 0) || !s.inBand(kx, ky) {
				continue
			}
			k2 := float64(kx*kx + ky*ky)
			a := paoAmp(math.Sqrt(k2), k0)
			sumE += a * a / (2 * k2)
		}
	}
	norm := float64(n) * float64(n) * math.Sqrt(s.Cfg.E0/sumE)
	w := make([]complex128, s.nloc*n)
	for i := 0; i < s.nloc; i++ {
		g := s.rank*s.nloc + i
		ky := kAt(g, n)
		for j := 0; j < n; j++ {
			kx := kAt(j, n)
			if (kx == 0 && ky == 0) || !s.inBand(kx, ky) {
				continue
			}
			gidx := uint64(g*n + j)
			pidx := uint64(((n-g)%n)*n + (n-j)%n)
			canon := min(gidx, pidx)
			theta := 2 * math.Pi * phase01(mix64(s.Cfg.Seed^mix64(canon+1)))
			k2 := float64(kx*kx + ky*ky)
			a := norm * paoAmp(math.Sqrt(k2), k0)
			val := complex(a*math.Cos(theta), a*math.Sin(theta))
			if gidx != canon {
				val = complex(real(val), -imag(val))
			}
			w[i*n+j] = val
		}
	}
	return w
}

// TestPAOTableMatchesPerModeReference: the tabulated initial field is
// bit-equal to the per-mode reference on every rank of P = 1, 2, 4 and
// 16 slabs, at several valid N, for the decaying (Nyquist-only band)
// and the forced (2/3-rule band) solver.
func TestPAOTableMatchesPerModeReference(t *testing.T) {
	for _, n := range []int{16, 48, 80, 144, 256} {
		for _, forced := range []bool{false, true} {
			for _, p := range []int{1, 2, 4, 16} {
				cfg := Config{N: n, Re: 100, Dt: 1e-3, Seed: uint64(7 * n), Forced: forced}.withDefaults()
				for r := 0; r < p; r++ {
					s := &Turb2D{Cfg: cfg, p: p, rank: r, nloc: n / p, w: make([]complex128, n/p*n)}
					if forced {
						s.kmax = n / 3
					}
					for i := range s.w {
						s.w[i] = complex(math.NaN(), 0) // initPAO must write every entry
					}
					s.initPAO()
					want := paoReference(s)
					for i, v := range s.w {
						if math.Float64bits(real(v)) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(v)) != math.Float64bits(imag(want[i])) {
							t.Fatalf("%s: entry %d = %v, reference %v", fmt.Sprintf("N=%d forced=%v P=%d rank %d", n, forced, p, r), i, v, want[i])
						}
					}
				}
			}
		}
	}
}
