package bench

import "testing"

// TestSimbenchQuick runs the budget-limited sweep: it both exercises
// RunSimbench end to end and re-checks the scheduler-equivalence
// contract it enforces (RunSimbench fails on any virtual-clock
// divergence between the serial and parallel runs).
func TestSimbenchQuick(t *testing.T) {
	res, tbl, err := RunSimbench(QuickSimbench)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(QuickSimbench.Cells) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(QuickSimbench.Cells))
	}
	for _, c := range res.Cells {
		if c.SerialHostS <= 0 || c.ParallelHostS <= 0 || c.VirtualWallS <= 0 {
			t.Errorf("%s P=%d: non-positive measurement: %+v", c.Workload, c.Procs, c)
		}
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
}
