package bench

import (
	"os"
	"testing"

	"nektar/internal/farm"
)

// TestMain lets this test binary serve as the farm-daemon image: when
// the chaos harness re-execs it with the daemon environment set,
// MaybeDaemon runs farmd and exits instead of running the tests.
func TestMain(m *testing.M) {
	farm.MaybeDaemon()
	os.Exit(m.Run())
}

func TestFarmbenchValidate(t *testing.T) {
	if err := ValidateFarmbench(QuickFarmbench); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	bad := QuickFarmbench
	bad.Jobs = 0
	if err := ValidateFarmbench(bad); err == nil {
		t.Fatal("zero jobs accepted")
	}
	bad = QuickFarmbench
	bad.KillEveryMS = 0
	if err := ValidateFarmbench(bad); err == nil {
		t.Fatal("zero kill cadence accepted")
	}
}

// TestFarmbenchChaos is the tier-1 crash-safety audit: a real daemon
// subprocess, real SIGKILLs, and the three zero-tolerance ledger
// checks.
func TestFarmbenchChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos campaign; skipped in -short")
	}
	cfg := QuickFarmbench
	cfg.Dir = t.TempDir()
	res, tbl, err := RunFarmbench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Write(os.Stderr)
	if res.LostAcked != 0 {
		t.Errorf("lost %d acknowledged jobs, want 0", res.LostAcked)
	}
	if res.DupResults != 0 {
		t.Errorf("%d duplicate results, want 0", res.DupResults)
	}
	if res.HashMismatches != 0 {
		t.Errorf("%d hash mismatches vs uninterrupted reference, want 0", res.HashMismatches)
	}
	if res.FailedJobs != 0 {
		t.Errorf("%d jobs failed outright, want 0", res.FailedJobs)
	}
	if res.DaemonKills < cfg.DaemonKills {
		t.Errorf("injected %d daemon kills, want %d", res.DaemonKills, cfg.DaemonKills)
	}
	if res.JobsPerSec <= 0 {
		t.Errorf("jobs/s = %g, want > 0", res.JobsPerSec)
	}
}
