package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nektar/internal/blas"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// TestSpectralBenchQuick runs the budget-limited sweep on every test
// pass: the bit-identity enforcement inside RunSpectralBench (one-rank
// reference vs slab) is the assertion; the numbers are incidental
// here.
func TestSpectralBenchQuick(t *testing.T) {
	res, tbl, err := RunSpectralBench(QuickSpectral)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("quick sweep produced %d cells, want 2 (turb2d + turbforce at P=4)", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.VirtualWallS <= 0 {
			t.Errorf("%s P=%d: non-positive virtual wall %g", c.Workload, c.Procs, c.VirtualWallS)
		}
	}
	var buf bytes.Buffer
	tbl.Write(&buf)
	if !strings.Contains(buf.String(), "turbforce") {
		t.Fatalf("bench table missing turbforce row:\n%s", buf.String())
	}
}

// sendCounter is a simnet.Injector and Dropper that injects nothing
// and counts the inter-node eager messages each rank sends, each rank
// in its own slot.
type sendCounter struct{ sent []int64 }

func (c *sendCounter) DropMessage(src, dst, n int, t float64) bool { c.sent[src]++; return false }
func (c *sendCounter) CrashTime(rank int) float64                  { return math.Inf(1) }

// TestStepCostsMatchARecordedStep holds stepCosts, which the baseline
// and its table print, to what a step of each solver does: the flops
// the cost-model recorder sees in one serial step, less the step's
// pointwise work, and the blocks one P = 4 step puts on the wire.
func TestStepCostsMatchARecordedStep(t *testing.T) {
	const n, p = 16, 4
	for _, tc := range []struct {
		name string
		l    int // row length of the step's transforms and transposes
		// pointwise is what a step records beside its FFTs: five mode
		// loops at 6 flops a mode (velocities, update, the pair packs,
		// and the gradient resp. Basdevant combine and forcing), and the
		// physical-space products (one flop a sample per Dvmul, two per
		// Daxpy) on the l x l grid.
		pointwise int64
	}{
		{"turb2d", 3 * n / 2, 5*6*n*n + (2+2)*(3*n/2)*(3*n/2)},
		{"turbforce", n, 5*6*n*n + (3+2)*n*n},
	} {
		c := spectralCase{name: tc.name, seed: benchSeed, n: n}
		wantFlops, wantBytes := stepCosts(tc.name, n)

		ser, err := c.build(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var counts blas.Counts
		blas.StartRecording(&counts)
		ser.Step()
		blas.StopRecording()
		if got := counts.TotalFlops() - tc.pointwise; got != wantFlops {
			t.Errorf("%s: one serial step records %d FFT flops (%d in all, %d pointwise), stepCosts says %d",
				tc.name, got, counts.TotalFlops(), tc.pointwise, wantFlops)
		}

		// Every transpose is one Alltoall of p*p equal blocks, the p on
		// the diagonal staying home: p*(p-1) messages carry (p-1)/p of
		// its n x l complex matrix.
		ctr := &sendCounter{sent: make([]int64, p)}
		mach := machine.Muses()
		_, _, err = simnet.RunWithFaults(p, mach.Net, ctr, func(nd *simnet.Node) {
			s, err := c.build(mpi.World(nd), &mach.CPU, nil)
			if err != nil {
				panic(err)
			}
			s.Step()
		})
		if err != nil {
			t.Fatal(err)
		}
		var msgs int64
		for _, m := range ctr.sent {
			msgs += m
		}
		blockBytes := int64(16 * (n / p) * (tc.l / p))
		if got := msgs * blockBytes * p / (p - 1); got != wantBytes {
			t.Errorf("%s: one P=%d step transposes %d bytes (%d messages of %d), stepCosts says %d",
				tc.name, p, got, msgs, blockBytes, wantBytes)
		}
	}
}
