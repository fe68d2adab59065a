package policy

import (
	"math"
	"strconv"

	"nektar/internal/engine"
)

// CadenceController is the live checkpoint-cadence policy
// (engine.CadencePolicy): it fires checkpoints on a step interval it
// retunes with Young's formula as the MTBF estimate and the measured
// per-checkpoint cost evolve.
//
// Young's first-order result: with checkpoint period tau (seconds),
// per-checkpoint cost delta, and mean time between failures theta, the
// fractional overhead is
//
//	overhead(tau) ~= delta/tau + tau/(2*theta)
//
// (amortized write cost plus expected recomputation loss), minimized
// at tau_opt = sqrt(2*delta*theta). The controller converts tau_opt to
// a step interval with the measured mean step duration, clamps it to
// [minInterval, maxInterval], and applies hysteresis: a retune smaller
// than hysteresisFrac of the current interval is noise and is ignored.
//
// Determinism contract: in a parallel run every rank holds its own
// controller instance, and checkpoint staging is collective, so every
// instance must make identical decisions. Observe must therefore be
// fed rank-identical inputs (Allreduce-Max the measured cost and step
// duration before calling it) at identical
// steps (checkpoint boundaries — which all ranks share by
// construction). ShouldCheckpoint is then a pure function of shared
// state.
type CadenceController struct {
	cfg Config

	interval int
	anchor   int // step the current interval was adopted at; fires at anchor + k*interval

	deltaS float64 // EW per-checkpoint cost, seconds
	stepS  float64 // EW per-step duration, seconds
	nobs   int

	trace *engine.Tracer // nil on every rank but the one that reports
}

// YoungInterval is Young's optimal checkpoint period in seconds:
// sqrt(2 * delta * theta) for per-checkpoint cost delta and MTBF
// theta.
func YoungInterval(deltaS, thetaS float64) float64 {
	if deltaS <= 0 || thetaS <= 0 {
		return 0
	}
	return math.Sqrt(2 * deltaS * thetaS)
}

// YoungOverhead is the first-order fractional overhead of period tauS.
func YoungOverhead(deltaS, tauS, thetaS float64) float64 {
	if tauS <= 0 || thetaS <= 0 {
		return math.Inf(1)
	}
	return deltaS/tauS + tauS/(2*thetaS)
}

// NewCadence builds a controller firing at anchor + k*interval from an
// (interval >= 1, anchor) state, so a retuned cadence survives a
// restart (every rank's controller must be built from the same
// state). A run starts at (CheckpointEvery, 0), whose grid
// {k*interval} is the static CheckpointEvery rule. trace, when set,
// receives each retune as a policy_switch event; a parallel run hands
// it to rank 0's instance only, so each switch is emitted once.
func NewCadence(cfg Config, trace *engine.Tracer, interval, anchor int) *CadenceController {
	return &CadenceController{cfg: cfg.WithDefaults(), interval: interval, anchor: anchor, trace: trace}
}

// Interval returns the current cadence in steps; Anchor the step it
// was adopted at (fires at anchor + k*interval).
func (c *CadenceController) Interval() int { return c.interval }
func (c *CadenceController) Anchor() int   { return c.anchor }

// ShouldCheckpoint implements engine.CadencePolicy.
func (c *CadenceController) ShouldCheckpoint(step int) bool {
	d := step - c.anchor
	return d > 0 && d%c.interval == 0
}

// Observe feeds one checkpoint's measurements: the write's cost in
// seconds, the mean per-step duration since the previous checkpoint,
// and the current MTBF estimate. All three must be rank-identical
// (Allreduce them first). Called at the checkpoint step the
// measurements belong to.
func (c *CadenceController) Observe(step int, costS, stepWallS, mtbfS float64) {
	a := c.cfg.Alpha
	if c.nobs == 0 {
		c.deltaS, c.stepS = costS, stepWallS
	} else {
		c.deltaS = (1-a)*c.deltaS + a*costS
		c.stepS = (1-a)*c.stepS + a*stepWallS
	}
	c.nobs++
	if c.stepS <= 0 {
		return
	}

	tau := YoungInterval(c.deltaS, mtbfS)
	want := int(math.Round(tau / c.stepS))
	if want < minInterval {
		want = minInterval
	}
	if want > maxInterval {
		want = maxInterval
	}
	// Hysteresis: ignore retunes within the noise band.
	band := int(math.Ceil(hysteresisFrac * float64(c.interval)))
	if band < 1 {
		band = 1
	}
	diff := want - c.interval
	if diff < 0 {
		diff = -diff
	}
	if diff < band {
		return
	}
	if c.trace != nil {
		c.trace.Emit(engine.Event{
			Ev: engine.EvPolicySwitch, Step: step,
			Policy: "cadence",
			From:   strconv.Itoa(c.interval), To: strconv.Itoa(want),
			MTBFS: mtbfS, DeltaS: c.deltaS, Interval: want,
		})
	}
	c.interval = want
	// Re-anchor at the current checkpoint so the next fire is exactly
	// one new interval out (every rank re-anchors at the same step).
	c.anchor = step
}
