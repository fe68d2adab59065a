package bench

import (
	"bytes"
	"strings"
	"testing"
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
