package core

import "math"

// Numerical-health sampling hooks: each solver reports the largest
// field magnitude on this rank and whether every sampled value is
// finite. The engine's watchdog polls them once per step to catch
// NaN/Inf contamination and runaway growth (a blown CFL condition)
// before the corruption reaches a checkpoint. The scan covers the
// fields a restart depends on — velocity and pressure dofs — so a trip
// implies the state is not worth saving.

// healthScan folds one dof slice into a running (maxAbs, finite) pair.
func healthScan(v []float64, maxAbs float64, finite bool) (float64, bool) {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			finite = false
			continue
		}
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, finite
}

// HealthSample reports the rank-local numerical health of the 2D
// solver's velocity and pressure fields.
func (ns *NS2D) HealthSample() (maxAbs float64, finite bool) {
	finite = true
	for c := 0; c < 2; c++ {
		maxAbs, finite = healthScan(ns.U[c], maxAbs, finite)
	}
	maxAbs, finite = healthScan(ns.P, maxAbs, finite)
	return maxAbs, finite
}

// HealthSample reports the rank-local numerical health of this rank's
// Fourier mode (velocity and pressure, real and imaginary parts).
func (ns *NSF) HealthSample() (maxAbs float64, finite bool) {
	finite = true
	for c := 0; c < 3; c++ {
		for part := 0; part < 2; part++ {
			maxAbs, finite = healthScan(ns.U[c][part], maxAbs, finite)
		}
	}
	for part := 0; part < 2; part++ {
		maxAbs, finite = healthScan(ns.P[part], maxAbs, finite)
	}
	return maxAbs, finite
}

// HealthSample reports the rank-local numerical health of the ALE
// solver's velocity and pressure dofs.
func (ns *NSALE) HealthSample() (maxAbs float64, finite bool) {
	finite = true
	for c := 0; c < 3; c++ {
		maxAbs, finite = healthScan(ns.U[c], maxAbs, finite)
	}
	maxAbs, finite = healthScan(ns.Pr, maxAbs, finite)
	return maxAbs, finite
}
