package bench

import (
	"strings"
	"testing"

	"nektar/internal/workload"
)

// TestClusterForRejectsThroughCheck: a (workload, procs) pair the
// table's Check refuses is refused by clusterFor, which starts nothing
// — a power-of-two rule alone would let turb2d on 16 ranks through to a
// rank panic — and the traced run reports that same error.
func TestClusterForRejectsThroughCheck(t *testing.T) {
	_, _, err := clusterFor("RoadRunner-eth", "turb2d", 16)
	if err == nil {
		t.Fatal("turb2d (N=16, M=24) accepted on 16 ranks")
	}
	for _, want := range []string{"N=16", "M=24", "valid rank counts: 1, 2, 4, 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	tr := PaperTrace
	tr.Workload, tr.Procs = "turb2d", 16
	if terr := RunTrace(tr, nil); terr == nil || terr.Error() != err.Error() {
		t.Errorf("RunTrace = %v, want clusterFor's %v", terr, err)
	}
	if _, _, err := clusterFor("RoadRunner-eth", "nsf", 3); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("nsf on 3 ranks: %v, want the power-of-two rule", err)
	}
}

// TestWorkloadNamesAreTheTables: the experiments accept exactly the
// table's names, and answer an unknown one with the table's sentence.
func TestWorkloadNamesAreTheTables(t *testing.T) {
	for _, name := range workload.Names() {
		if _, _, err := clusterFor("RoadRunner-eth", name, 1); err != nil {
			t.Errorf("clusterFor(%s) on one rank: %v", name, err)
		}
	}
	_, want := workload.ByName("bogus")
	if _, _, err := clusterFor("RoadRunner-eth", "bogus", 1); err == nil || err.Error() != "bench: "+want.Error() {
		t.Errorf("unknown workload: %v, want bench: %v", err, want)
	}
}
