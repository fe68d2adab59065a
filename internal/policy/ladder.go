package policy

import "nektar/internal/engine"

// Action is one rung of the watchdog escalation ladder.
type Action int

const (
	// ActionRetryDt: relaunch from the last commit with the time step
	// reduced by dtFactor — the cheapest response to a numerical
	// excursion (a CFL violation often just needs a smaller dt).
	ActionRetryDt Action = iota
	// ActionRollback: the reduced dt didn't help, so the instability
	// was already latent in the restart state — roll back one commit
	// deeper and recompute through the bad region.
	ActionRollback
	// ActionConvict: repeated trips from the same state point at the
	// hardware (a flaky FPU, bad memory) — convict the tripping rank's
	// node, re-home the rank onto a spare, and retry.
	ActionConvict
)

func (a Action) String() string {
	switch a {
	case ActionRetryDt:
		return "retry-dt"
	case ActionRollback:
		return "rollback"
	case ActionConvict:
		return "convict"
	}
	return "action(?)"
}

// Decision is the ladder's verdict for one watchdog trip: the action
// to take and the dt scale in force for the next attempt.
type Decision struct {
	Action  Action
	DtScale float64
}

// Ladder is the adaptive watchdog recovery policy: each watchdog trip
// climbs one rung — retry with reduced dt while retryBudget lasts,
// then roll back deeper while rollbackBudget lasts, then convict the
// tripping rank. Budgets are per campaign, not per trip, so a
// persistently sick run escalates monotonically instead of cycling.
// Every decision is emitted as an escalate trace event.
type Ladder struct {
	cfg Config

	retries   int
	rollbacks int
	dtScale   float64
}

// NewLadder builds a ladder with full budgets and dt scale 1.
func NewLadder(cfg Config) *Ladder {
	return &Ladder{cfg: cfg.WithDefaults(), dtScale: 1}
}

// Decide takes the next rung for a watchdog trip by rank at step
// (attempt labels the trace event).
func (l *Ladder) Decide(attempt, rank, step int) Decision {
	var d Decision
	switch {
	case l.retries < retryBudget:
		l.retries++
		l.dtScale *= dtFactor
		d = Decision{Action: ActionRetryDt, DtScale: l.dtScale}
	case l.rollbacks < rollbackBudget:
		l.rollbacks++
		d = Decision{Action: ActionRollback, DtScale: l.dtScale}
	default:
		d = Decision{Action: ActionConvict, DtScale: l.dtScale}
	}
	if l.cfg.Trace != nil {
		l.cfg.Trace.Emit(engine.Event{
			Ev: engine.EvEscalate, Rank: rank, Step: step, Attempt: attempt,
			Policy: "watchdog", To: d.Action.String(), DtScale: d.DtScale,
		})
	}
	return d
}
