package policy

import (
	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
)

// SimSelector chooses the write mode of the supervisor's checkpoint
// writer on the simulated cluster. The writer starts in local mode; at
// an attempt's probeAfter-th checkpoint the selector prices one
// striped write of the record just written, through the calibrated
// network, to decide whether striping is affordable on this fabric.
// Striped restart shards read back at the aggregate disk bandwidth of
// the whole cluster, so promotion pays when the measured write penalty
// is below maxStripePenalty; on the paper's Ethernet (penalty ~6.4x)
// it never fires, on a low-latency fabric it does. The probe runs once
// per campaign.
//
// The probe is collective (all ranks checkpoint at the same steps, so
// all probe at the same step) and the verdict is an Allreduce-Max of
// the measured costs, so every rank promotes — or doesn't — identically.
type SimSelector struct {
	trace   *engine.Tracer
	submits int
	probed  bool
}

// NewSimSelector builds one attempt's selector; probed carries the
// campaign's state, so a probe that already ran does not run again
// after a restart.
func NewSimSelector(cfg Config, probed bool) *SimSelector {
	return &SimSelector{trace: cfg.Trace, probed: probed}
}

// Observe is called after w has written each checkpoint record (step
// labels the trace event). At the probe it sets w.Mode.
func (s *SimSelector) Observe(w *ckpt.SimWriter, step int) {
	s.submits++
	if s.probed || s.submits < probeAfter {
		return
	}
	s.probed = true
	local := w.LastCostS()
	// Price a striped write of the same record through the same comm
	// and disks, without persisting it. The probe itself is charged to
	// the virtual clock — measurements aren't free — and is collective,
	// so every rank pays it at the same step.
	striped := w.Price(ckpt.WriteStriped)
	// The verdict must be identical on every rank: agree on the
	// worst-case costs.
	costs := w.Comm.Allreduce([]float64{local, striped}, mpi.Max)
	local, striped = costs[0], costs[1]
	if local <= 0 || striped > maxStripePenalty*local {
		return // striping too expensive on this fabric
	}
	if s.trace != nil && w.Comm.Rank() == 0 {
		s.trace.Emit(engine.Event{
			Ev: engine.EvPolicySwitch, Rank: 0, Step: step,
			Policy: "writer", From: "local", To: "striped",
			DeltaS: striped, HostS: local,
		})
	}
	w.Mode = ckpt.WriteStriped
}

// Probed reports whether the striping probe has run.
func (s *SimSelector) Probed() bool { return s.probed }
