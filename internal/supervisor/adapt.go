package supervisor

import "nektar/internal/policy"

// defaultAdaptInterval starts the cadence controller of a campaign
// that disables static checkpointing (CheckpointEvery 0).
const defaultAdaptInterval = 10

// adaptRuntime is the adaptive layer's campaign-level state: the
// pieces that must survive across attempts (the controllers inside an
// attempt die with its rank goroutines). The supervisor's control
// path is serial, so no locking.
type adaptRuntime struct {
	cfg policy.Config
	est *policy.MTBFEstimator

	// interval/anchor persist the cadence controller's state: a retune
	// survives the rollback that follows a failure.
	interval int
	anchor   int
}

// newAdaptRuntime validates cfg and builds the campaign state, with
// checkpointEvery as the controller's starting interval.
func newAdaptRuntime(ac policy.Config, checkpointEvery int) (*adaptRuntime, error) {
	if err := ac.Validate(); err != nil {
		return nil, err
	}
	ac = ac.WithDefaults()
	if checkpointEvery < 1 {
		checkpointEvery = defaultAdaptInterval
	}
	return &adaptRuntime{
		cfg:      ac,
		est:      policy.NewMTBFEstimator(ac.PriorMTBFS, ac.Alpha),
		interval: checkpointEvery,
	}, nil
}

// attemptState freezes the runtime for one attempt: every rank of the
// attempt must see identical policy inputs (the cadence decision is
// collective), so the MTBF estimate is sampled once here and held.
func (rt *adaptRuntime) attemptState() *attemptAdapt {
	return &attemptAdapt{
		cfg:      rt.cfg,
		mtbfS:    rt.est.MTBFS(),
		interval: rt.interval,
		anchor:   rt.anchor,
	}
}

// absorb reads back the state rank 0's controller reached, so the
// next attempt resumes the tuning instead of restarting it. On a
// crashed attempt it still holds its last consistent pre-crash state
// (cadence decisions are collective, so every rank agreed on it).
func (rt *adaptRuntime) absorb(ad *attemptAdapt) {
	if ad.ctl != nil {
		rt.interval = ad.ctl.Interval()
		rt.anchor = ad.ctl.Anchor()
	}
}

// attemptAdapt is the adaptive layer's per-attempt state handed to the
// rank bodies: frozen campaign inputs plus rank 0's live controller
// for post-run read-back. Rank goroutines are serialized by the
// simulator and only rank 0 writes the read-back slot.
type attemptAdapt struct {
	cfg      policy.Config
	mtbfS    float64
	interval int
	anchor   int

	ctl *policy.CadenceController
}
