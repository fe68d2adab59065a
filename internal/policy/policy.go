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
//     simulated cluster — start with node-local files, price one
//     striped write, promote when the fabric makes it affordable.
//   - Ladder (ladder.go): the watchdog escalation ladder — retry with
//     reduced dt, roll back deeper, convict and re-home — with
//     per-rung budgets.
//
// Every decision is emitted as a structured policy_switch or escalate
// trace event carrying its evidence, so a recorded run explains every
// deviation from the static configuration.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"nektar/internal/engine"
)

// Mode selects how much of the adaptive layer is live.
type Mode int

const (
	// Static: the adaptive layer is off; the run uses the operator's
	// fixed cadence and writer (the pre-policy behavior).
	Static Mode = iota
	// Adaptive: all controllers live — cadence retunes at every
	// checkpoint, writers promote on evidence, the escalation ladder
	// drives recovery.
	Adaptive
	// Pinned: the controllers are installed but held — cadence stays at
	// its initial interval and no measurement traffic is added, so the
	// trajectory and the virtual clock are bit-identical to a Static
	// run at the same interval. This is the determinism-audit mode.
	Pinned
)

func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Adaptive:
		return "adaptive"
	case Pinned:
		return "pinned"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

var modes = map[string]Mode{
	"static":   Static,
	"adaptive": Adaptive,
	"pinned":   Pinned,
}

// ModeNames lists the registered policy names, sorted.
func ModeNames() []string {
	names := make([]string, 0, len(modes))
	for n := range modes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModeByName resolves a policy name; the error for an unknown name
// lists what is registered (matching the workload-registry UX).
func ModeByName(name string) (Mode, error) {
	m, ok := modes[name]
	if !ok {
		return Static, fmt.Errorf("policy: unknown policy %q: registered policies are %s",
			name, strings.Join(ModeNames(), ", "))
	}
	return m, nil
}

// Config parametrizes the adaptive layer: the five values some caller
// chooses. The zero value of Alpha and InitialInterval means "use the
// default"; WithDefaults resolves them.
type Config struct {
	// Mode selects static/adaptive/pinned (see Mode).
	Mode Mode

	// PriorMTBFS seeds the MTBF estimator: the expected CLUSTER-level
	// mean time between failures in virtual seconds (a per-node MTBF
	// hint divided by the rank count), from the fault plan or the
	// operator's -mtbf flag. Required for Adaptive mode — with no
	// failures yet observed, the prior is all the cadence controller
	// has.
	PriorMTBFS float64
	// Alpha is the exponential weight given to each new inter-failure
	// or cost observation (default 0.3: the newest observation carries
	// 30%, history decays geometrically).
	Alpha float64

	// InitialInterval is the starting checkpoint cadence in steps
	// (default 10); Pinned mode holds it forever.
	InitialInterval int

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

	// retryBudget is the escalation ladder's first rung: how many
	// watchdog trips are answered with a dt-reduced retry before
	// escalating. rollbackBudget is the second: how many are answered
	// by rolling back one commit deeper. Past both the ladder convicts
	// the tripping rank and re-homes it onto a spare.
	retryBudget    = 2
	rollbackBudget = 1
	// dtFactor is the time-step reduction applied per first-rung retry.
	dtFactor = 0.5
)

// WithDefaults resolves zero fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.InitialInterval < 1 {
		c.InitialInterval = 10
	}
	return c
}

// Validate rejects configurations the controllers cannot run under.
func (c Config) Validate() error {
	if c.Mode == Adaptive && c.PriorMTBFS <= 0 {
		return fmt.Errorf("policy: adaptive mode needs a positive PriorMTBFS (seed it from the fault plan or the -mtbf hint)")
	}
	if c.PriorMTBFS < 0 {
		return fmt.Errorf("policy: negative PriorMTBFS %g", c.PriorMTBFS)
	}
	return nil
}
