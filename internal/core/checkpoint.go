package core

import (
	"fmt"
	"io"

	"nektar/internal/engine"
)

// Checkpointing: the paper's production runs took 250 hours of CPU
// time per processor, which is only survivable with restart files.
// The serial solver's complete time-stepping state (fields, pressure,
// multistep histories) round-trips through the engine's codec; the mesh and
// operators are rebuilt from the same configuration on restart.

// ns2dState is the serialized form of the solver state.
type ns2dState struct {
	Step  int
	U     [2][]float64
	P     []float64
	HistU [][2][][]float64
	HistN [][2][][]float64
}

// Checkpoint writes the solver's time-stepping state to w.
func (ns *NS2D) Checkpoint(w io.Writer) error {
	st := ns2dState{
		Step:  ns.step,
		U:     ns.U,
		P:     ns.P,
		HistU: ns.histU,
		HistN: ns.histN,
	}
	return engine.EncodeState(w, &st)
}

// Restore loads a state written by Checkpoint into a solver built
// with the same mesh and configuration. Time stepping resumes exactly
// where the saved run stopped (bit-identical trajectories).
func (ns *NS2D) Restore(r io.Reader) error {
	var st ns2dState
	if err := engine.DecodeState(r, &st); err != nil {
		return err
	}
	if len(st.U[0]) != ns.AV.NGlobal || len(st.P) != ns.AP.NGlobal {
		return fmt.Errorf("core: checkpoint dof counts (%d, %d) do not match solver (%d, %d)",
			len(st.U[0]), len(st.P), ns.AV.NGlobal, ns.AP.NGlobal)
	}
	for _, lvl := range st.HistU {
		for c := 0; c < 2; c++ {
			if len(lvl[c]) != len(ns.M.Elems) {
				return fmt.Errorf("core: checkpoint history element count mismatch")
			}
		}
	}
	ns.step = st.Step
	ns.U = st.U
	ns.P = st.P
	ns.histU = st.HistU
	ns.histN = st.HistN
	return nil
}

// nsfState is the serialized per-rank state of the Fourier solver.
// Each rank owns one Fourier mode (a pair of real planes), so a
// cluster checkpoint is one stream per rank; K guards against loading
// a stream into the wrong rank after a restart.
type nsfState struct {
	Step  int
	K     int
	U     [3][2][]float64
	P     [2][]float64
	HistU [][3][2][][]float64
	HistN [][3][2][][]float64
}

// Checkpoint writes this rank's time-stepping state to w. Every rank
// must save at the same step for the checkpoint to be consistent.
func (ns *NSF) Checkpoint(w io.Writer) error {
	st := nsfState{
		Step:  ns.step,
		K:     ns.K,
		U:     ns.U,
		P:     ns.P,
		HistU: ns.histU,
		HistN: ns.histN,
	}
	return engine.EncodeState(w, &st)
}

// Restore loads a state written by Checkpoint into a solver built
// with the same mesh, configuration, and rank layout. Time stepping
// resumes bit-identically.
func (ns *NSF) Restore(r io.Reader) error {
	var st nsfState
	if err := engine.DecodeState(r, &st); err != nil {
		return err
	}
	if st.K != ns.K {
		return fmt.Errorf("core: checkpoint holds Fourier mode %d, this rank owns mode %d", st.K, ns.K)
	}
	if len(st.U[0][0]) != ns.AV.NGlobal || len(st.P[0]) != ns.AP.NGlobal {
		return fmt.Errorf("core: checkpoint dof counts (%d, %d) do not match solver (%d, %d)",
			len(st.U[0][0]), len(st.P[0]), ns.AV.NGlobal, ns.AP.NGlobal)
	}
	ns.step = st.Step
	ns.U = st.U
	ns.P = st.P
	ns.histU = st.HistU
	ns.histN = st.HistN
	return nil
}

// aleState is the serialized per-rank state of the ALE solver: the
// local dof values, the multistep histories, the simulation time, and
// (for moving meshes) the vertex coordinates the geometry had reached.
type aleState struct {
	Step  int
	Time  float64
	Rank  int
	Size  int
	U     [3][]float64
	Pr    []float64
	HistU [][3][][]float64
	HistN [][3][][]float64
	Verts [][3]float64
}

// Checkpoint writes this rank's time-stepping state to w. Every rank
// must save at the same step for the checkpoint to be consistent.
func (ns *NSALE) Checkpoint(w io.Writer) error {
	st := aleState{
		Step:  ns.step,
		Time:  ns.time,
		Rank:  ns.Comm.Rank(),
		Size:  ns.Comm.Size(),
		U:     ns.U,
		Pr:    ns.Pr,
		HistU: ns.histU,
		HistN: ns.histN,
		Verts: ns.M.Verts,
	}
	return engine.EncodeState(w, &st)
}

// Restore loads a state written by Checkpoint into a solver built
// with the same mesh, configuration, partition, and communicator
// layout. The mesh geometry is moved back to the checkpointed vertex
// positions and the time-dependent Dirichlet data is recomputed, so
// time stepping resumes bit-identically.
func (ns *NSALE) Restore(r io.Reader) error {
	var st aleState
	if err := engine.DecodeState(r, &st); err != nil {
		return err
	}
	if st.Rank != ns.Comm.Rank() || st.Size != ns.Comm.Size() {
		return fmt.Errorf("core: checkpoint is for rank %d of %d, this solver is rank %d of %d",
			st.Rank, st.Size, ns.Comm.Rank(), ns.Comm.Size())
	}
	if len(st.U[0]) != len(ns.sysV.gdof) || len(st.Pr) != len(ns.sysP.gdof) {
		return fmt.Errorf("core: checkpoint local dof counts (%d, %d) do not match solver (%d, %d)",
			len(st.U[0]), len(st.Pr), len(ns.sysV.gdof), len(ns.sysP.gdof))
	}
	if len(st.Verts) != len(ns.M.Verts) {
		return fmt.Errorf("core: checkpoint has %d mesh vertices, solver mesh has %d",
			len(st.Verts), len(ns.M.Verts))
	}
	if err := ns.M.MoveVertices(st.Verts); err != nil {
		return fmt.Errorf("core: restoring checkpointed mesh geometry: %w", err)
	}
	ns.sysV.invalidate()
	ns.sysP.invalidate()
	ns.step = st.Step
	ns.time = st.Time
	ns.U = st.U
	ns.Pr = st.Pr
	ns.histU = st.HistU
	ns.histN = st.HistN
	// Dirichlet data is a function of the restored time; recompute it
	// exactly as the end of the checkpointed step did.
	ns.refreshDirichlet()
	return nil
}
