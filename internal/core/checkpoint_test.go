package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

func TestNSFCheckpointRoundTripBitIdentical(t *testing.T) {
	// Save the parallel Fourier solver mid-run, reload into a fresh
	// solver, continue both, and demand bit-identical fields.
	nu, dt := 0.1, 2e-3
	const preSteps, postSteps = 3, 3
	cfg := nsfChannelCfg(nu, dt)
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := NewNSF(channelMesh(t, 4, 3, 2, 3), cfg, comm, nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0)
		for i := 0; i < preSteps; i++ {
			ns.Step()
		}
		var buf bytes.Buffer
		if err := ns.Checkpoint(&buf); err != nil {
			panic(err)
		}
		for i := 0; i < postSteps; i++ {
			ns.Step()
		}

		ns2, err := NewNSF(channelMesh(t, 4, 3, 2, 3), cfg, comm, nil)
		if err != nil {
			panic(err)
		}
		if err := ns2.Restore(&buf); err != nil {
			panic(err)
		}
		if ns2.step != preSteps {
			t.Errorf("rank %d: restored step = %d, want %d", comm.Rank(), ns2.step, preSteps)
		}
		for i := 0; i < postSteps; i++ {
			ns2.Step()
		}
		for c := 0; c < 3; c++ {
			for part := 0; part < 2; part++ {
				for i := range ns.U[c][part] {
					if ns.U[c][part][i] != ns2.U[c][part][i] {
						t.Fatalf("rank %d: U[%d][%d][%d] differs after restart: %v vs %v",
							comm.Rank(), c, part, i, ns.U[c][part][i], ns2.U[c][part][i])
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestALECheckpointRoundTripBitIdentical(t *testing.T) {
	// The moving-mesh ALE solver: the checkpoint must capture the
	// displaced geometry and the simulation time as well as the
	// fields. Runs domain-decomposed on 2 ranks.
	cfg := ALEConfig{
		Nu: 0.05, Dt: 2e-3, Order: 2,
		FarfieldVel: [3]float64{1, 0, 0},
		WallVelocity: func(t float64) [3]float64 {
			return [3]float64{0, 0.3 * math.Cos(2*math.Pi*t), 0}
		},
		MoveMesh: true,
	}
	const preSteps, postSteps = 2, 2
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := NewNSALE(wingMesh(t, 2, 12, 2, 2), cfg, comm, nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0, 0)
		for i := 0; i < preSteps; i++ {
			ns.Step()
		}
		var buf bytes.Buffer
		if err := ns.Checkpoint(&buf); err != nil {
			panic(err)
		}
		for i := 0; i < postSteps; i++ {
			ns.Step()
		}

		ns2, err := NewNSALE(wingMesh(t, 2, 12, 2, 2), cfg, comm, nil)
		if err != nil {
			panic(err)
		}
		if err := ns2.Restore(&buf); err != nil {
			panic(err)
		}
		if ns2.time != ns.time-float64(postSteps)*cfg.Dt {
			t.Errorf("rank %d: restored time = %v", comm.Rank(), ns2.time)
		}
		for i := 0; i < postSteps; i++ {
			ns2.Step()
		}
		for c := 0; c < 3; c++ {
			for i := range ns.U[c] {
				if ns.U[c][i] != ns2.U[c][i] {
					t.Fatalf("rank %d: U[%d][%d] differs after restart: %v vs %v",
						comm.Rank(), c, i, ns.U[c][i], ns2.U[c][i])
				}
			}
		}
		for i := range ns.Pr {
			if ns.Pr[i] != ns2.Pr[i] {
				t.Fatalf("rank %d: Pr[%d] differs after restart", comm.Rank(), i)
			}
		}
		for v := range ns.M.Verts {
			if ns.M.Verts[v] != ns2.M.Verts[v] {
				t.Fatalf("rank %d: vertex %d differs after restart", comm.Rank(), v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCorruptedStream(t *testing.T) {
	// Truncated and garbage checkpoints must fail with a clean decode
	// error, never restore partial state.
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := NewNSF(channelMesh(t, 4, 3, 2, 3), nsfChannelCfg(0.1, 2e-3), comm, nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0)
		ns.Step()
		var buf bytes.Buffer
		if err := ns.Checkpoint(&buf); err != nil {
			panic(err)
		}
		stepBefore := ns.step

		truncated := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
		if err := ns.Restore(truncated); err == nil {
			t.Errorf("rank %d: truncated checkpoint loaded without error", comm.Rank())
		} else if !strings.Contains(err.Error(), "decoding checkpoint") {
			t.Errorf("rank %d: unexpected truncation error: %v", comm.Rank(), err)
		}
		garbage := bytes.NewReader([]byte("not a checkpoint at all"))
		if err := ns.Restore(garbage); err == nil {
			t.Errorf("rank %d: garbage checkpoint loaded without error", comm.Rank())
		}
		if ns.step != stepBefore {
			t.Errorf("rank %d: failed load mutated solver state", comm.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNSFCheckpointRejectsWrongRank(t *testing.T) {
	// A checkpoint from rank 0 (mode 0) must not load into rank 1's
	// solver (a different Fourier mode).
	saved := make([][]byte, 2)
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := NewNSF(channelMesh(t, 4, 3, 2, 3), nsfChannelCfg(0.1, 2e-3), comm, nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0)
		ns.Step()
		var buf bytes.Buffer
		if err := ns.Checkpoint(&buf); err != nil {
			panic(err)
		}
		saved[n.Rank] = buf.Bytes()
		comm.Barrier()
		other := saved[1-n.Rank]
		if err := ns.Restore(bytes.NewReader(other)); err == nil {
			t.Errorf("rank %d: loaded another rank's checkpoint", comm.Rank())
		} else if !strings.Contains(err.Error(), "Fourier mode") {
			t.Errorf("rank %d: unexpected cross-rank error: %v", comm.Rank(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
