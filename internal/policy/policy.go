// Package policy is the adaptive-resilience layer: the components that
// turn the static fault-tolerance knobs — checkpoint cadence, writer
// choice, recovery strategy — into live controllers driven by what the
// run actually observes. The paper's operators picked these by hand
// per machine; `repro faultbench` picks them offline from a swept table;
// this package closes the loop online, so a campaign tunes itself to
// the failure rate and I/O cost it measures instead of the ones the
// operator guessed.
//
// Four components, wired together by internal/supervisor:
//
//   - MTBFEstimator (mtbf.go): exponentially-weighted inter-failure
//     intervals from the supervisor's verdict history, seeded from the
//     fault plan or a -mtbf hint.
//   - CadenceController (cadence.go): Young's-formula optimal
//     checkpoint interval from the estimated MTBF and the measured
//     per-checkpoint cost, with clamping and hysteresis; implements
//     engine.CadencePolicy.
//   - SimSelector (writer.go): runtime write-mode selection on the
//     simulated cluster — the supervisor's writer starts with
//     node-local files; the selector prices one striped write and
//     switches the writer's mode when the fabric makes it affordable.
//   - Ladder (ladder.go): the watchdog escalation ladder — roll back
//     deeper once, then convict and re-home.
//
// The layer is on or off: a supervised run with a Config runs every
// component live, one without runs none. Every decision is emitted as
// a structured policy_switch or escalate trace event carrying its
// evidence, so a recorded run explains every deviation from the static
// configuration.
package policy

import (
	"fmt"

	"nektar/internal/engine"
)

// Config parametrizes the adaptive layer: the three values some caller
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

	// Trace, when set, receives policy_switch and escalate events.
	Trace *engine.Tracer
}

// The controllers' fixed tuning: constants rather than Config fields,
// because every caller runs with these values.
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

	// probeAfter is the checkpoint count at which the writer selector
	// runs its probe: enough submits to trust the local cost
	// measurement.
	probeAfter = 3
	// maxStripePenalty bounds promotion to striped mode: the measured
	// striped cost must not exceed this multiple of the local cost
	// (striping doubles the restart-read bandwidth, so paying up to 2x
	// on the write breaks even; BENCH_ckpt.json measures 6.4x on
	// Ethernet and 2.5x on Myrinet, so promotion only fires on
	// genuinely low-latency fabrics).
	maxStripePenalty = 2.0

	// rollbackBudget is the escalation ladder's first rung: how many
	// watchdog trips are answered by rolling back one commit deeper.
	// Past it the ladder convicts the tripping rank and re-homes it
	// onto a spare.
	rollbackBudget = 1
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
