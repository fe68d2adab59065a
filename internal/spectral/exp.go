package spectral

import "math"

// exp is e**x computed the way Go's amd64 math.Exp computes it on a CPU
// with FMA (math/exp_amd64.s, the avxfma path: Naoki Shibata's
// reduction and Taylor polynomial, from SLEEF), written in Go with
// every fused instruction as math.FMA. math.Exp picks its path at run
// time from the CPU's features, and the FMA and non-FMA paths round
// differently, so the pinned trajectories seeded through it would
// depend on the host; this one gives the same bits on every CPU and
// GOARCH, and equals math.Exp wherever that takes the FMA path.
func exp(x float64) float64 {
	const (
		ln2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		log2e    = 1.4426950408889634073599246810018920
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	// The asm rounds x*log2e to the nearest int32 (CVTSD2SL); every
	// k below -1075 underflows to 0, including the out-of-range
	// conversions, so clamping first keeps the int conversion defined.
	k := math.RoundToEven(x * log2e)
	if k < -1075 {
		return 0
	}
	r := math.FMA(-k, ln2U, x)
	r = math.FMA(-k, ln2L, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	p = math.FMA(p, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	// y = e**(r*16) - 1 by squaring four times: (y+1)**2 - 1 = y*(y+2).
	y := r * p
	y *= y + 2
	y *= y + 2
	y *= y + 2
	y = math.FMA(y, y+2, 1)
	// Scale by 2**k, in two steps when the result is subnormal.
	e := int64(k) + 1023
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		if e < -52 {
			return 0
		}
		y *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	}
	return y * math.Float64frombits(uint64(e)<<52)
}
