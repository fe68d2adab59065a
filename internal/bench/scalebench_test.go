package bench

import (
	"fmt"
	"strings"
	"testing"

	"nektar/internal/simnet"
	"nektar/internal/workload"
)

// TestScalebenchQuick runs the test-sized weak/strong sweep on both
// capacity-sweep interconnect models.
func TestScalebenchQuick(t *testing.T) {
	t.Setenv(simnet.SchedulerEnv, "")
	res, tbl, err := RunScalebench(QuickScalebench)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(QuickScalebench.Machines) * 2 * len(QuickScalebench.Procs)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	for _, c := range res.Cells {
		if c.StepVirtualS <= 0 || c.Efficiency <= 0 {
			t.Errorf("%s %s P=%d: non-positive measurement: %+v", c.Machine, c.Mode, c.Procs, c)
		}
		if c.Procs == QuickScalebench.Procs[0] && c.Efficiency != 1 {
			t.Errorf("%s %s baseline efficiency = %v, want 1", c.Machine, c.Mode, c.Efficiency)
		}
	}
	// The kernel-bypass GbE must beat the TCP Fast Ethernet per step at
	// every rank count — the point of calibrating both.
	perStep := map[string]map[int]float64{}
	for _, c := range res.Cells {
		if c.Mode != "weak" {
			continue
		}
		if perStep[c.Machine] == nil {
			perStep[c.Machine] = map[int]float64{}
		}
		perStep[c.Machine][c.Procs] = c.StepVirtualS
	}
	for _, p := range QuickScalebench.Procs {
		if !(perStep["Tanaka"][p] < perStep["PMS"][p]) {
			t.Errorf("P=%d: Tanaka %.6fs/step not below PMS %.6fs/step",
				p, perStep["Tanaka"][p], perStep["PMS"][p])
		}
	}
}

// TestScalebenchSolverWorkloads: the real solvers run as capacity-sweep
// workloads — weak cells at N = 2P, strong cells at N = 2*maxP — and
// the skeleton keeps its own rank list.
func TestScalebenchSolverWorkloads(t *testing.T) {
	t.Setenv(simnet.SchedulerEnv, "")
	cfg := ScalebenchConfig{
		Machines:    []string{"PMS"},
		Procs:       []int{4, 8},
		Steps:       2,
		HaloElems:   512,
		ComputeS:    1e-4,
		Workloads:   []string{"skeleton", "turb2d", "turbforce"},
		SolverProcs: []int{4, 8},
	}
	res, tbl, err := RunScalebench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 2 modes x 2 rank counts on one machine.
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.StepVirtualS <= 0 || c.Efficiency <= 0 {
			t.Errorf("%s %s %s P=%d: non-positive measurement: %+v", c.Machine, c.Workload, c.Mode, c.Procs, c)
		}
		switch {
		case c.Workload == "skeleton":
			if c.GridN != 0 {
				t.Errorf("skeleton cell carries grid N=%d", c.GridN)
			}
		case c.Mode == "weak":
			if c.GridN != 2*c.Procs {
				t.Errorf("%s weak P=%d: grid N=%d, want %d", c.Workload, c.Procs, c.GridN, 2*c.Procs)
			}
		default: // solver strong scaling
			if c.GridN != 16 {
				t.Errorf("%s strong P=%d: grid N=%d, want 16", c.Workload, c.Procs, c.GridN)
			}
		}
	}
	// The solver workloads must cost more virtual time per step than the
	// synthetic skeleton at the same rank count: they move whole N x M
	// matrices through the transposes, not a fixed halo ring.
	byKey := map[string]float64{}
	for _, c := range res.Cells {
		byKey[fmt.Sprintf("%s/%s/%d", c.Workload, c.Mode, c.Procs)] = c.StepVirtualS
	}
	if !(byKey["turb2d/weak/8"] > byKey["skeleton/weak/8"]) {
		t.Errorf("turb2d weak P=8 (%.6fs/step) not above skeleton (%.6fs/step)",
			byKey["turb2d/weak/8"], byKey["skeleton/weak/8"])
	}
	if tbl == nil {
		t.Fatal("missing table")
	}
}

// TestScalebenchSolverNeedsProcs: a solver workload without SolverProcs
// is a config error, not a silent skeleton fallback — and a workload
// name off the menu is rejected with the menu, not run as turb2d.
func TestScalebenchSolverNeedsProcs(t *testing.T) {
	cfg := QuickScalebench
	cfg.Workloads = []string{"turb2d"}
	if _, _, err := RunScalebench(cfg); err == nil {
		t.Fatal("expected SolverProcs rejection")
	}
	cfg.Workloads, cfg.SolverProcs = []string{"turb3d"}, []int{4, 8}
	_, _, err := RunScalebench(cfg)
	if err == nil {
		t.Fatal("expected unknown-workload rejection for turb3d")
	}
	for _, name := range workload.Names("skeleton") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-workload error does not list %q: %v", name, err)
		}
	}
}

// TestScalebenchRejectsOverMaxProcs: projecting a model past its
// MaxProcs must fail loudly, not extrapolate silently.
func TestScalebenchRejectsOverMaxProcs(t *testing.T) {
	cfg := QuickScalebench
	cfg.Machines = []string{"Muses"} // MaxProcs 4
	if _, _, err := RunScalebench(cfg); err == nil {
		t.Fatal("expected MaxProcs rejection for Muses at P=8")
	}
	// Steps is the divisor of every cell's virtual wall: zero must be
	// refused, not reported as +Inf s/step.
	cfg = QuickScalebench
	cfg.Steps = 0
	if _, _, err := RunScalebench(cfg); err == nil || !strings.Contains(err.Error(), "Steps") {
		t.Fatalf("expected Steps rejection, got %v", err)
	}
}
