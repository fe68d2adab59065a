package core

import (
	"math"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

func nsfChannelCfg(nu, dt float64) NSFConfig {
	return NSFConfig{
		Nu: nu, Dt: dt, Order: 2, Lz: 2 * math.Pi,
		VelDirichlet: map[string]VelBC{
			"wall":   ConstantVel(0, 0),
			"inflow": func(x, y float64) (float64, float64) { return 1 - y*y, 0 },
		},
		PresDirichlet: map[string]bool{"outflow": true},
	}
}

func TestNSFMeanModeMatchesSerial2D(t *testing.T) {
	// With all higher Fourier modes zero, the k = 0 mode of Nektar-F
	// must reproduce the serial 2D solver exactly (same splitting,
	// same operators). This ties the parallel implementation to the
	// validated serial one.
	nu, dt := 0.1, 2e-3
	steps := 5

	m2 := channelMesh(t, 4, 3, 2, 3)
	serial, err := NewNS2D(m2, poiseuilleCfg(nu, dt))
	if err != nil {
		t.Fatal(err)
	}
	serial.SetUniformInitial(1, 0)
	for i := 0; i < steps; i++ {
		serial.Step()
	}

	var u0, v0 []float64
	model := &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1},
	}
	_, _, err = simnet.Run(2, model, func(n *simnet.Node) {
		comm := mpi.World(n)
		mf := channelMesh(t, 4, 3, 2, 3)
		nsf, err := NewNSF(mf, nsfChannelCfg(nu, dt), comm, nil)
		if err != nil {
			panic(err)
		}
		nsf.SetUniformInitial(1, 0)
		for i := 0; i < steps; i++ {
			nsf.Step()
		}
		if comm.Rank() == 0 {
			u0 = nsf.U[0][0]
			v0 = nsf.U[1][0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.U[0] {
		if math.Abs(u0[i]-serial.U[0][i]) > 1e-9 || math.Abs(v0[i]-serial.U[1][i]) > 1e-9 {
			t.Fatalf("dof %d: fourier (%v,%v) vs serial (%v,%v)",
				i, u0[i], v0[i], serial.U[0][i], serial.U[1][i])
		}
	}
}

func TestNSFPerturbationDecays(t *testing.T) {
	// A small 3D disturbance on the higher modes of viscous channel
	// flow must decay (no instability at this Reynolds number).
	var e0, e1 float64
	model := &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1},
	}
	_, _, err := simnet.Run(2, model, func(n *simnet.Node) {
		comm := mpi.World(n)
		mf := channelMesh(t, 3, 3, 2, 3)
		nsf, err := NewNSF(mf, nsfChannelCfg(0.5, 1e-3), comm, nil)
		if err != nil {
			panic(err)
		}
		nsf.SetUniformInitial(1, 0)
		nsf.PerturbMode(1e-3)
		if comm.Rank() == 1 {
			e0 = nsf.ModeEnergy()
		}
		for i := 0; i < 20; i++ {
			nsf.Step()
		}
		if comm.Rank() == 1 {
			e1 = nsf.ModeEnergy()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e0 == 0 {
		t.Fatal("perturbation had no energy")
	}
	if e1 >= e0 {
		t.Fatalf("mode-1 energy grew: %g -> %g", e0, e1)
	}
}

func TestNSFTimingOnSimulatedCluster(t *testing.T) {
	// With a CPU model attached, the simulated clocks advance and wall
	// >= cpu on every rank (idle time in the Alltoall).
	pc, err := machine.ByName("Muses")
	if err != nil {
		t.Fatal(err)
	}
	wall, cpu, err := simnet.Run(4, pc.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		mf := channelMesh(t, 3, 2, 2, 3)
		nsf, err := NewNSF(mf, nsfChannelCfg(0.1, 1e-3), comm, &pc.CPU)
		if err != nil {
			panic(err)
		}
		nsf.SetUniformInitial(1, 0)
		for i := 0; i < 2; i++ {
			nsf.Step()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range wall {
		if cpu[r] <= 0 {
			t.Fatalf("rank %d: cpu time %v", r, cpu[r])
		}
		if wall[r] < cpu[r] {
			t.Fatalf("rank %d: wall %v < cpu %v", r, wall[r], cpu[r])
		}
	}
	// Communication must cost something: some rank idles.
	var anyGap bool
	for r := range wall {
		if wall[r] > cpu[r]*1.0001 {
			anyGap = true
		}
	}
	if !anyGap {
		t.Fatal("no rank shows any communication wait")
	}
}

func TestNSFRejectsBadConfig(t *testing.T) {
	m := channelMesh(t, 2, 2, 2, 2)
	model := &simnet.Model{Name: "t", Inter: simnet.LinkModel{LatencyUS: 1, BandwidthMBs: 100}}
	_, _, err := simnet.Run(3, model, func(n *simnet.Node) {
		// 3 ranks -> 6 planes: not a power of two.
		_, err := NewNSF(m, nsfChannelCfg(0.1, 1e-3), mpi.World(n), nil)
		if err == nil {
			panic("expected error for non-power-of-two planes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
