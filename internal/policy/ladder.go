package policy

import "nektar/internal/engine"

// Action is one rung of the watchdog escalation ladder.
type Action int

const (
	// ActionRollback: the instability is latent in the restart state —
	// roll back one commit deeper and recompute through the bad region.
	ActionRollback Action = iota
	// ActionConvict: repeated trips from the same state point at the
	// hardware (a flaky FPU, bad memory) — convict the tripping rank's
	// node, re-home the rank onto a spare, and retry.
	ActionConvict
)

func (a Action) String() string {
	switch a {
	case ActionRollback:
		return "rollback"
	case ActionConvict:
		return "convict"
	}
	return "action(?)"
}

// Ladder is the adaptive watchdog recovery policy: each watchdog trip
// climbs one rung — roll back deeper while rollbackBudget lasts, then
// convict the tripping rank. The budget is per campaign, not per trip,
// so a persistently sick run escalates monotonically instead of
// cycling. Every decision is emitted as an escalate trace event.
type Ladder struct {
	cfg Config

	rollbacks int
}

// NewLadder builds a ladder with a full budget.
func NewLadder(cfg Config) *Ladder {
	return &Ladder{cfg: cfg.WithDefaults()}
}

// Decide takes the next rung for a watchdog trip by rank at step
// (attempt labels the trace event).
func (l *Ladder) Decide(attempt, rank, step int) Action {
	a := ActionConvict
	if l.rollbacks < rollbackBudget {
		l.rollbacks++
		a = ActionRollback
	}
	if l.cfg.Trace != nil {
		l.cfg.Trace.Emit(engine.Event{
			Ev: engine.EvEscalate, Rank: rank, Step: step, Attempt: attempt,
			Policy: "watchdog", To: a.String(),
		})
	}
	return a
}
