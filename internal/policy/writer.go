package policy

import (
	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
)

// SimSelector is the simulated-cluster writer selector
// (engine.CheckpointSink): it wraps a ckpt.SimWriter that starts in
// local mode and, at the probeAfter-th checkpoint, prices one striped
// write through the calibrated network to decide whether striping is
// affordable on this fabric. Striped restart shards read back at the
// aggregate disk bandwidth of the whole cluster, so promotion pays
// when the measured write penalty is below maxStripePenalty; on the
// paper's Ethernet (penalty ~6.4x) it never fires, on a low-latency
// fabric it does.
//
// The probe is collective (all ranks submit at the same steps, so all
// probe at the same step) and the verdict is an Allreduce-Max of the
// measured costs, so every rank promotes — or doesn't — identically.
type SimSelector struct {
	cfg Config
	// W is the wrapped writer; the selector mutates W.Mode.
	W *ckpt.SimWriter

	submits int
	probed  bool
	// evidence from the probe, for reports
	localCostS   float64
	stripedCostS float64
}

// NewSimSelector wraps w (which must start in local mode).
func NewSimSelector(cfg Config, w *ckpt.SimWriter) *SimSelector {
	cfg = cfg.WithDefaults()
	w.Mode = ckpt.WriteLocal
	return &SimSelector{cfg: cfg, W: w}
}

// Submit implements engine.CheckpointSink.
func (s *SimSelector) Submit(step int, state []byte, final bool) error {
	if err := s.W.Submit(step, state, final); err != nil {
		return err
	}
	if final {
		return nil
	}
	s.submits++
	if s.cfg.Mode != Adaptive || s.probed || s.submits < probeAfter {
		return nil
	}
	s.probed = true
	local := s.W.LastCostS()
	// Price a striped write of the same state through the same comm
	// and disks, without persisting: a scratch writer with no store is
	// the pure cost model. The probe itself is charged to the virtual
	// clock — measurements aren't free — and is collective, so every
	// rank pays it at the same step.
	probe := &ckpt.SimWriter{
		Kind: s.W.Kind, Comm: s.W.Comm, DiskMBs: s.W.DiskMBs,
		Mode: ckpt.WriteStriped,
	}
	if err := probe.Submit(step, state, false); err != nil {
		return err
	}
	striped := probe.LastCostS()
	// The verdict must be identical on every rank: agree on the
	// worst-case costs.
	costs := s.W.Comm.Allreduce([]float64{local, striped}, mpi.Max)
	s.localCostS, s.stripedCostS = costs[0], costs[1]
	if s.localCostS <= 0 || s.stripedCostS > maxStripePenalty*s.localCostS {
		return nil // striping too expensive on this fabric
	}
	if s.cfg.Trace != nil && s.W.Comm.Rank() == 0 {
		s.cfg.Trace.Emit(engine.Event{
			Ev: engine.EvPolicySwitch, Rank: 0, Step: step,
			Policy: "writer", From: "local", To: "striped",
			DeltaS: s.stripedCostS, HostS: s.localCostS,
		})
	}
	s.W.Mode = ckpt.WriteStriped
	return nil
}

// Adopt restores persisted selector state — a previous attempt's
// write mode and probe flag — so the probe runs once per campaign,
// not once per restart.
func (s *SimSelector) Adopt(mode ckpt.WriteMode, probed bool) {
	s.W.Mode = mode
	s.probed = probed
}

// Probed reports whether the striping probe has run.
func (s *SimSelector) Probed() bool { return s.probed }

// Drain implements engine.CheckpointSink.
func (s *SimSelector) Drain() error { return s.W.Drain() }

// Mode reports the write mode currently in force.
func (s *SimSelector) Mode() string { return s.W.Mode.String() }

// Penalty returns the probe's measured striped/local cost ratio, or 0
// before the probe has run.
func (s *SimSelector) Penalty() float64 {
	if !s.probed || s.localCostS <= 0 {
		return 0
	}
	return s.stripedCostS / s.localCostS
}
