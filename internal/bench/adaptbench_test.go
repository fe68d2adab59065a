package bench

import "testing"

func quickAdaptbench() AdaptbenchConfig {
	return QuickAdaptbench
}

// The quick sweep exercises the whole differential pipeline: probe,
// reference, static sweep, adaptive campaign, bit-identity audit.
func TestAdaptbenchQuickSweep(t *testing.T) {
	res, tbl, err := RunAdaptbench(quickAdaptbench())
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if !c.BitIdentical {
		t.Error("faulted campaigns not bit-identical to the reference")
	}
	if c.AdaptiveWallS <= 0 || c.BestStaticS <= 0 || c.WorstStaticS < c.BestStaticS {
		t.Errorf("degenerate cell walls: %+v", c)
	}
	if res.DeltaS["RoadRunner-eth"] <= 0 || res.RefWallS["RoadRunner-eth"] <= 0 {
		t.Errorf("probe quantities missing: delta=%v ref=%v", res.DeltaS, res.RefWallS)
	}
	if c.FinalInterval < 1 {
		t.Errorf("adaptive end state not reported: %+v", c)
	}
}

func TestAdaptbenchValidation(t *testing.T) {
	bad := func(mut func(*AdaptbenchConfig)) error {
		cfg := quickAdaptbench()
		mut(&cfg)
		return ValidateAdaptbench(cfg)
	}
	cases := map[string]func(*AdaptbenchConfig){
		"no machines":     func(c *AdaptbenchConfig) { c.Machines = nil },
		"unknown machine": func(c *AdaptbenchConfig) { c.Machines = []string{"Cray-T3E"} },
		"bad workload":    func(c *AdaptbenchConfig) { c.Solver = "nsq" },
		"odd ranks":       func(c *AdaptbenchConfig) { c.Procs = 3; c.Spares = 3 },
		"thin spares":     func(c *AdaptbenchConfig) { c.Spares = 1 },
		"no statics":      func(c *AdaptbenchConfig) { c.StaticIntervals = []int{4} },
		"zero interval":   func(c *AdaptbenchConfig) { c.StaticIntervals = []int{0, 4} },
		"bad seed cad":    func(c *AdaptbenchConfig) { c.SeedInterval = 0 },
		"no regimes":      func(c *AdaptbenchConfig) { c.MTBFFracs = nil },
		"bad regime":      func(c *AdaptbenchConfig) { c.MTBFFracs = []float64{-1} },
		"no disk":         func(c *AdaptbenchConfig) { c.DiskMBs = 0 },
		"no seeds":        func(c *AdaptbenchConfig) { c.Seeds = 0 },
	}
	for name, mut := range cases {
		if err := bad(mut); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if err := ValidateAdaptbench(quickAdaptbench()); err != nil {
		t.Errorf("quick config rejected: %v", err)
	}
}
