package spectral

import (
	"fmt"
	"io"

	"nektar/internal/engine"
)

// turbState is the serialized per-rank form of the solver state; the
// layout guards (rank, size, grid, variant) reject a stream restored
// into the wrong slab.
type turbState struct {
	Step   int
	Rank   int
	Size   int
	N      int
	Forced bool
	W      []complex128
	PrevN  []complex128
}

// Checkpoint implements engine.Solver: the complete time-stepping state
// (step counter, spectral vorticity, AB2 history). Every rank must save
// at the same step for a parallel checkpoint to be consistent.
func (s *Turb2D) Checkpoint(w io.Writer) error {
	st := turbState{
		Step: s.step, Rank: s.rank, Size: s.p,
		N: s.Cfg.N, Forced: s.Cfg.Forced,
		W: s.w, PrevN: s.prevN,
	}
	return engine.EncodeState(w, &st)
}

// Restore implements engine.Solver: loads a state written by Checkpoint
// into a solver built with the same configuration and rank layout,
// after which stepping resumes bit-identically (the AB2 history and the
// step-keyed forcing both come along).
func (s *Turb2D) Restore(r io.Reader) error {
	var st turbState
	if err := engine.DecodeState(r, &st); err != nil {
		return err
	}
	if st.Rank != s.rank || st.Size != s.p {
		return fmt.Errorf("spectral: checkpoint is for rank %d of %d, this solver is rank %d of %d",
			st.Rank, st.Size, s.rank, s.p)
	}
	if st.N != s.Cfg.N || st.Forced != s.Cfg.Forced {
		return fmt.Errorf("spectral: checkpoint is a %d-grid forced=%v run, this solver is %d-grid forced=%v",
			st.N, st.Forced, s.Cfg.N, s.Cfg.Forced)
	}
	if len(st.W) != len(s.w) || len(st.PrevN) != len(s.prevN) {
		return fmt.Errorf("spectral: checkpoint slab sizes (%d, %d) do not match solver (%d, %d)",
			len(st.W), len(st.PrevN), len(s.w), len(s.prevN))
	}
	s.step = st.Step
	copy(s.w, st.W)
	copy(s.prevN, st.PrevN)
	return nil
}
