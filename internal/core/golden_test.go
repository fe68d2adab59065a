package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// Golden determinism hashes: SHA-256 over the raw float bits of each
// solver's complete time-stepping state after a fixed short run,
// captured from the pre-engine-refactor code. The engine refactor must
// not change a single bit of any trajectory. The hash reads the solver
// fields directly, so the pins outlive a change of checkpoint format.
const (
	goldenNS2D = "62075ca6409de6d14a2873473020a4ac212e6c9fce740480c71ca4d255c6d212"
	goldenNSF0 = "19bcd5cea2b6eea26da542bfe0427f0d8fd7afd03c62d90624bb45d428c30e10"
	goldenNSF1 = "0482b5b2261cca707f2894ccc391710cbbb3011429f6cbc66a945932a6d93d39"
	goldenALE0 = "2d0f322f9420125ba3e583b40d3a480b117a816ed4a1c9a79827074357433e13"
	goldenALE1 = "ebaccd8dfbaeb210cd56382583d22f70b3683e969963319c019d788c8ae58601"
)

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashFloats(h hash.Hash, xs ...[]float64) {
	var b [8]byte
	for _, s := range xs {
		hashInt(h, len(s))
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

func ns2dStateHash(ns *NS2D) string {
	h := sha256.New()
	hashInt(h, ns.step)
	hashFloats(h, ns.U[0], ns.U[1], ns.P)
	for _, lvl := range ns.histU {
		for c := 0; c < 2; c++ {
			hashFloats(h, lvl[c]...)
		}
	}
	for _, lvl := range ns.histN {
		for c := 0; c < 2; c++ {
			hashFloats(h, lvl[c]...)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func nsfStateHash(ns *NSF) string {
	h := sha256.New()
	hashInt(h, ns.step)
	hashInt(h, ns.K)
	for c := 0; c < 3; c++ {
		hashFloats(h, ns.U[c][0], ns.U[c][1])
	}
	hashFloats(h, ns.P[0], ns.P[1])
	for _, lvl := range ns.histU {
		for c := 0; c < 3; c++ {
			hashFloats(h, lvl[c][0]...)
			hashFloats(h, lvl[c][1]...)
		}
	}
	for _, lvl := range ns.histN {
		for c := 0; c < 3; c++ {
			hashFloats(h, lvl[c][0]...)
			hashFloats(h, lvl[c][1]...)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func aleStateHash(ns *NSALE) string {
	h := sha256.New()
	hashInt(h, ns.step)
	hashFloats(h, []float64{ns.time})
	hashFloats(h, ns.U[0], ns.U[1], ns.U[2], ns.Pr)
	for _, lvl := range ns.histU {
		for c := 0; c < 3; c++ {
			hashFloats(h, lvl[c]...)
		}
	}
	for _, lvl := range ns.histN {
		for c := 0; c < 3; c++ {
			hashFloats(h, lvl[c]...)
		}
	}
	for _, v := range ns.M.Verts {
		hashFloats(h, v[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenNS2D(t *testing.T) {
	m := channelMesh(t, 5, 4, 2, 4)
	ns, err := NewNS2D(m, poiseuilleCfg(0.1, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	ns.SetInitial(func(x, y float64) (float64, float64) { return 1 - y*y, 0 })
	for i := 0; i < 5; i++ {
		ns.Step()
	}
	h := ns2dStateHash(ns)
	t.Logf("NS2D golden: %s", h)
	if goldenNS2D != "PRINT" && h != goldenNS2D {
		t.Fatalf("NS2D trajectory diverged from pre-refactor golden:\n got %s\nwant %s", h, goldenNS2D)
	}
}

func TestGoldenNSF(t *testing.T) {
	got := make([]string, 2)
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, err := NewNSF(channelMesh(t, 4, 3, 2, 3), nsfChannelCfg(0.1, 2e-3), comm, nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0)
		for i := 0; i < 5; i++ {
			ns.Step()
		}
		got[n.Rank] = nsfStateHash(ns)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NSF golden: rank0 %s rank1 %s", got[0], got[1])
	for r, want := range []string{goldenNSF0, goldenNSF1} {
		if want != "PRINT" && got[r] != want {
			t.Fatalf("NSF rank %d trajectory diverged from pre-refactor golden:\n got %s\nwant %s", r, got[r], want)
		}
	}
}

func TestGoldenNSALE(t *testing.T) {
	cfg := ALEConfig{
		Nu: 0.05, Dt: 2e-3, Order: 2,
		FarfieldVel: [3]float64{1, 0, 0},
		WallVelocity: func(tm float64) [3]float64 {
			return [3]float64{0, 0.3 * math.Cos(2*math.Pi*tm), 0}
		},
		MoveMesh: true,
	}
	got := make([]string, 2)
	_, _, err := simnet.Run(2, aleTestNet(), func(n *simnet.Node) {
		ns, err := NewNSALE(wingMesh(t, 2, 12, 2, 2), cfg, mpi.World(n), nil)
		if err != nil {
			panic(err)
		}
		ns.SetUniformInitial(1, 0, 0)
		for i := 0; i < 4; i++ {
			ns.Step()
		}
		got[n.Rank] = aleStateHash(ns)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NSALE golden: rank0 %s rank1 %s", got[0], got[1])
	for r, want := range []string{goldenALE0, goldenALE1} {
		if want != "PRINT" && got[r] != want {
			t.Fatalf("NSALE rank %d trajectory diverged from pre-refactor golden:\n got %s\nwant %s", r, got[r], want)
		}
	}
}
