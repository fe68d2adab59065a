package spectral

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// goldenExp pins exp's bits over expSweep. It was pinned on an amd64
// host with FMA, where exp equals math.Exp on every argument of the
// sweep; it must hold unchanged on any CPU and GOARCH.
const goldenExp = "879479172a53b51bb8e825f7654a327c6d6e1ba1a0ed993ee3cd5d1ccd87daf2"

// expSweep is every paoAmp argument -(|k|/k0)^2 of an N <= 512 grid for
// k0 in {4, 6, 8, 10}, a hashed uniform sweep over the whole finite
// range (-760, 760), which takes in the subnormal and overflow
// branches, and the special values.
func expSweep() []float64 {
	var xs []float64
	for _, k0 := range []float64{4, 6, 8, 10} {
		for ay := 0; ay <= 256; ay++ {
			for ax := 0; ax <= ay; ax++ {
				k := math.Sqrt(float64(ax*ax + ay*ay))
				xs = append(xs, -(k/k0)*(k/k0))
			}
		}
	}
	for i := uint64(0); i < 1<<17; i++ {
		xs = append(xs, (2*phase01(mix64(i))-1)*760)
	}
	return append(xs, 0, math.Copysign(0, -1), 1, -1, 709.78, 709.79, -745.1, -745.2,
		-1e10, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64)
}

func TestExpPinned(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	for _, x := range expSweep() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(exp(x)))
		h.Write(b[:])
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("exp sweep hash: %s", got)
	if got != goldenExp {
		t.Fatalf("exp changed bits:\n got %s\nwant %s", got, goldenExp)
	}
	if exp(0) != 1 || exp(1) != math.E || exp(-746) != 0 || !math.IsInf(exp(710), 1) {
		t.Fatalf("exp(0, 1, -746, 710) = %v, %v, %v, %v", exp(0), exp(1), exp(-746), exp(710))
	}
}

// TestGoldensWithoutFMA re-runs the pinned trajectories in a child
// process with the runtime told the CPU has no FMA, which switches
// math.Exp and the other amd64 routines with an FMA path to their
// non-FMA code: the goldens must not depend on the host's features.
func TestGoldensWithoutFMA(t *testing.T) {
	tests := []string{"TestGoldenTrajectories", "TestExpPinned"}
	godebug := "cpu.fma=off"
	if g := os.Getenv("GODEBUG"); g != "" {
		godebug = g + "," + godebug
	}
	cmd := exec.Command(os.Args[0], "-test.run=^("+strings.Join(tests, "|")+")$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("under GODEBUG=%s: %v\n%s", godebug, err, out)
	}
	for _, name := range tests {
		if !strings.Contains(string(out), "--- PASS: "+name+" ") {
			t.Fatalf("under GODEBUG=%s, %s did not pass:\n%s", godebug, name, out)
		}
	}
}
