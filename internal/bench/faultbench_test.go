package bench

import (
	"strings"
	"testing"

	"nektar/internal/policy"
)

func quickFaultbench() FaultbenchConfig {
	cfg := PaperFaultbench
	cfg.Procs = 2
	cfg.ProbeNt, cfg.ProbeNr = 6, 2
	cfg.Order = 3
	cfg.Steps = 1
	cfg.IntervalSteps = []int{10, 100, 1000}
	cfg.MTBFHours = []float64{24, 168}
	return cfg
}

func TestFaultbenchYoungSweep(t *testing.T) {
	cfg := quickFaultbench()
	res, tbl, err := RunFaultbench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepWallS <= 0 {
		t.Errorf("probe measured non-positive per-step wall %v", res.StepWallS)
	}
	if res.CheckpointMB <= 0 || res.DeltaS <= 0 {
		t.Errorf("probe measured empty checkpoint (%v MB, delta %v s)", res.CheckpointMB, res.DeltaS)
	}
	if len(res.OptimalTauS) != len(cfg.MTBFHours) {
		t.Fatalf("got %d optima, want %d", len(res.OptimalTauS), len(cfg.MTBFHours))
	}
	for i, theta := range res.ClusterMTBFS {
		opt := policy.YoungOverhead(res.DeltaS, res.OptimalTauS[i], theta)
		for _, steps := range cfg.IntervalSteps {
			tau := float64(steps) * res.StepWallS
			if got := policy.YoungOverhead(res.DeltaS, tau, theta); got < opt-1e-12 {
				t.Errorf("interval %d beats the analytic optimum at theta=%v: %v < %v", steps, theta, got, opt)
			}
		}
	}
	var sb strings.Builder
	tbl.Write(&sb)
	out := sb.String()
	for _, want := range []string{"node MTBF 24h", "node MTBF 168h", "tau_opt"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFaultbenchRecoveryTable(t *testing.T) {
	tbl, err := RunFaultbenchRecovery(quickFaultbench(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "node crash + recovery") {
		t.Errorf("rendered table missing recovery row:\n%s", out)
	}
}
