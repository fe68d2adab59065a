// Package policy is the adaptive-resilience layer: the components that
// turn the static checkpoint cadence into a live controller driven by
// what the run actually observes. The paper's operators picked the
// cadence by hand per machine; `repro faultbench` picks it offline from
// a swept table; this package closes the loop online, so a campaign
// tunes itself to the failure rate and I/O cost it measures instead of
// the ones the operator guessed.
//
// Two components, wired together by internal/supervisor:
//
//   - MTBFEstimator (mtbf.go): exponentially-weighted inter-failure
//     intervals from the supervisor's verdict history, seeded from the
//     fault plan or a -mtbf hint.
//   - CadenceController (cadence.go): Young's-formula optimal
//     checkpoint interval from the estimated MTBF and the measured
//     per-checkpoint cost, with clamping and hysteresis; implements
//     engine.CadencePolicy.
//
// The layer is on or off: a supervised run with a Config runs both
// components live, one without runs neither. Every retune is emitted
// as a structured policy_switch trace event carrying its evidence, so
// a recorded run explains every deviation from the static cadence.
package policy

import "fmt"

// Config parametrizes the adaptive layer: the two values some caller
// chooses. The zero value of Alpha means "use the default";
// WithDefaults resolves it.
type Config struct {
	// PriorMTBFS seeds the MTBF estimator: the expected CLUSTER-level
	// mean time between failures in virtual seconds (a per-node MTBF
	// hint divided by the rank count), from the fault plan or the
	// operator's -mtbf flag. Required — with no failures yet observed,
	// the prior is all the cadence controller has.
	PriorMTBFS float64
	// Alpha is the exponential weight given to each new inter-failure
	// or cost observation (default 0.3: the newest observation carries
	// 30%, history decays geometrically).
	Alpha float64
}

// The cadence controller's fixed tuning: constants rather than Config
// fields, because every caller runs with these values.
const (
	// minInterval/maxInterval clamp the cadence controller: Young's
	// formula near theta -> 0 or delta -> 0 would otherwise ask for
	// absurd cadences.
	minInterval = 1
	maxInterval = 500
	// hysteresisFrac suppresses cadence changes smaller than this
	// fraction of the current interval, so measurement noise cannot
	// make the cadence thrash.
	hysteresisFrac = 0.25
)

// WithDefaults resolves zero fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	return c
}

// Validate rejects configurations the controllers cannot run under.
func (c Config) Validate() error {
	if !(c.PriorMTBFS > 0) {
		return fmt.Errorf("policy: the adaptive layer needs a positive PriorMTBFS, got %g (seed it from the fault plan or the -mtbf hint)", c.PriorMTBFS)
	}
	return nil
}
