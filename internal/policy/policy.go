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
//   - AdaptiveSink / SimSelector (writer.go): runtime writer
//     selection — start conservative, measure, promote when the
//     evidence justifies it.
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

// Config parametrizes the adaptive layer. The zero value of every
// field means "use the default"; Withdefaults() resolves them.
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
	// MinInterval/MaxInterval clamp the controller (defaults 1 / 500):
	// Young's formula near theta -> 0 or delta -> 0 would otherwise ask
	// for absurd cadences.
	MinInterval int
	MaxInterval int
	// HysteresisFrac suppresses cadence changes smaller than this
	// fraction of the current interval (default 0.25), so measurement
	// noise cannot make the cadence thrash.
	HysteresisFrac float64

	// ProbeAfter is the checkpoint count at which the writer selector
	// runs its probe (default 3: enough submits to trust the local cost
	// measurement).
	ProbeAfter int
	// MaxStripePenalty bounds writer promotion to striped mode: the
	// measured striped cost must not exceed this multiple of the local
	// cost (default 2.0 — striping doubles the restart-read bandwidth,
	// so paying up to 2x on the write breaks even; BENCH_ckpt.json
	// measures 6.4x on Ethernet and 2.5x on Myrinet, so promotion only
	// fires on genuinely low-latency fabrics).
	MaxStripePenalty float64
	// MaxExposedFrac bounds the host-side sync writer: when measured
	// exposed checkpoint time exceeds this fraction of elapsed wall
	// time over the probe window, the sink promotes to async (default
	// 0.02).
	MaxExposedFrac float64

	// RetryBudget is the escalation ladder's first-rung budget: how
	// many watchdog trips are answered with a dt-reduced retry before
	// escalating (default 2). RollbackBudget is the second rung: how
	// many trips are answered by rolling back one commit deeper
	// (default 1). Past both budgets the ladder convicts the tripping
	// rank and re-homes it onto a spare.
	RetryBudget    int
	RollbackBudget int
	// DtFactor is the time-step reduction applied per first-rung retry
	// (default 0.5).
	DtFactor float64

	// Trace, when set, receives policy_switch and escalate events.
	Trace *engine.Tracer
}

// WithDefaults resolves zero fields to their defaults.
func (c Config) WithDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.InitialInterval < 1 {
		c.InitialInterval = 10
	}
	if c.MinInterval < 1 {
		c.MinInterval = 1
	}
	if c.MaxInterval < c.MinInterval {
		c.MaxInterval = 500
	}
	if c.HysteresisFrac <= 0 {
		c.HysteresisFrac = 0.25
	}
	if c.ProbeAfter < 1 {
		c.ProbeAfter = 3
	}
	if c.MaxStripePenalty <= 0 {
		c.MaxStripePenalty = 2.0
	}
	if c.MaxExposedFrac <= 0 {
		c.MaxExposedFrac = 0.02
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	} else if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RollbackBudget == 0 {
		c.RollbackBudget = 1
	} else if c.RollbackBudget < 0 {
		c.RollbackBudget = 0
	}
	if c.DtFactor <= 0 || c.DtFactor >= 1 {
		c.DtFactor = 0.5
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
