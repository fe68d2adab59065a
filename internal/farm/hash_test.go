package farm

import (
	"testing"

	"nektar/internal/engine"
)

// marshalSpin runs a spin trajectory and returns its encoded state.
func marshalSpin(t *testing.T, steps int) []byte {
	t.Helper()
	s := NewSpinSolver(7, 8)
	for i := 0; i < steps; i++ {
		s.Step()
	}
	b, err := engine.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// HashState must identify equal trajectories across processes: the
// farmbench audit compares daemon-computed results against reference
// runs from the test process. The stream is canonical, so the digest
// of a fixed trajectory is a literal any process, in any order of
// earlier encodes, must reproduce.
func TestHashStateCrossProcessGolden(t *testing.T) {
	const golden = "de0b1b990bee62e08a8424f844967f15d9052d0279f18a22b31daebf657cdfc1"
	if got := HashState(marshalSpin(t, 25)); got != golden {
		t.Fatalf("spin(7, 8) after 25 steps hashes to %s, want %s", got, golden)
	}
}

// The hash must pin the trajectory, and garbage input must hash, not
// fail.
func TestHashStateCanonicalPinsTrajectory(t *testing.T) {
	b := marshalSpin(t, 25)
	if HashState(b) == HashState(marshalSpin(t, 26)) {
		t.Fatalf("different trajectories produced equal hashes")
	}
	for _, raw := range [][]byte{{0xff}, {0x05, 0x01}, b[:len(b)-3]} {
		if HashState(raw) == "" {
			t.Fatalf("empty hash for %x", raw)
		}
	}
}
