// Package policy holds the checkpoint-interval arithmetic: Young's
// first-order optimum, a live cadence controller built on it, and an
// online MTBF estimator. The paper's operators picked the checkpoint
// cadence by hand per machine; these components pick it from what a
// run observes instead of what the operator guessed.
//
//   - MTBFEstimator (mtbf.go): exponentially-weighted inter-failure
//     intervals, seeded from a prior. The job farm (internal/farm)
//     reports its estimate in /v1/stats.
//   - CadenceController (cadence.go): Young's-formula optimal
//     checkpoint interval from the estimated MTBF and the measured
//     per-checkpoint cost, with clamping and hysteresis; implements
//     engine.CadencePolicy for engine.Loop.Cadence.
//
// Every retune is emitted as a structured policy_switch trace event
// carrying its evidence, so a recorded run explains every deviation
// from the static cadence.
package policy

import "fmt"

// Config parametrizes the cadence controller: the two values some
// caller chooses. The zero value of Alpha means "use the default";
// WithDefaults resolves it.
type Config struct {
	// PriorMTBFS is the expected CLUSTER-level mean time between
	// failures in seconds (a per-node MTBF divided by the rank count).
	// Required — with no failures yet observed, the prior is all the
	// cadence controller has.
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
		return fmt.Errorf("policy: the cadence controller needs a positive PriorMTBFS, got %g", c.PriorMTBFS)
	}
	return nil
}
