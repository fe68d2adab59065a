package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/report"
)

// Ckptbench: what does durable checkpointing cost on the host? The
// same small NS2D run is driven three times at an equal checkpoint
// cadence — no durability, a synchronous writer (the step loop pays
// marshal + compress + CRC + disk write inline), and the async
// double-buffered writer (the loop pays only the marshal; the
// background goroutine hides the rest) — tabulating exposed vs hidden
// write seconds from the writers' own counters.

// CkptbenchConfig parametrizes the run.
type CkptbenchConfig struct {
	// NS2D probe mesh.
	Nt, Nr, Order int
	// Steps are measured steps (after the 2-step order ramp); Every is
	// the checkpoint cadence shared by the sync and async variants.
	Steps, Every int

	// Dir roots the stores; empty uses a temp dir.
	Dir string
}

// PaperCkptbench is the default: a small serial DNS.
var PaperCkptbench = CkptbenchConfig{
	Nt: 24, Nr: 6, Order: 6,
	Steps: 12, Every: 2,
}

// CkptbenchResult carries the measurement; it is the schema of
// BENCH_ckpt.json.
type CkptbenchResult struct {
	Nt, Nr, Order, Steps, Every int

	// Per full run at the shared cadence.
	Snapshots              int
	RawMB, StoredMB, Ratio float64
	NoneLoopS              float64 // step-loop host wall, no durability
	SyncLoopS, AsyncLoopS  float64
	SyncExposedS           float64 // write time the step loop waited on
	AsyncExposedS          float64
	AsyncHiddenS           float64 // write time overlapped with stepping
}

// ValidateCkptbench checks a configuration and returns an actionable
// error for each way the experiment cannot run.
func ValidateCkptbench(cfg CkptbenchConfig) error {
	if cfg.Steps < 1 || cfg.Every < 1 {
		return fmt.Errorf("bench: ckptbench needs positive steps and cadence, got %d/%d", cfg.Steps, cfg.Every)
	}
	return nil
}

// runCkptVariant drives one host-side run through sink (nil: no
// durability) and reports the step-loop host wall.
func runCkptVariant(cfg CkptbenchConfig, sink engine.CheckpointSink) (float64, error) {
	// A fresh, ramped solver per variant: each must step an identical
	// trajectory.
	ns, err := bluffNS2D(cfg.Order, cfg.Nt, cfg.Nr)
	if err != nil {
		return 0, err
	}
	loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + cfg.Steps,
		Watchdog: engine.Watchdog{Disabled: true}}
	if sink != nil {
		loop.Sink = sink
		loop.CheckpointEvery = cfg.Every
	}
	t0 := time.Now()
	_, err = loop.Run()
	return time.Since(t0).Seconds(), err
}

// RunCkptbench executes the three runs and renders the table.
func RunCkptbench(cfg CkptbenchConfig) (*CkptbenchResult, *report.Table, error) {
	if err := ValidateCkptbench(cfg); err != nil {
		return nil, nil, err
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ckptbench")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	res := &CkptbenchResult{Nt: cfg.Nt, Nr: cfg.Nr, Order: cfg.Order,
		Steps: cfg.Steps, Every: cfg.Every}

	// Host side: none, then sync, then async — fresh solver and fresh
	// store each, so the three runs do identical solver work.
	var err error
	if res.NoneLoopS, err = runCkptVariant(cfg, nil); err != nil {
		return nil, nil, err
	}
	syncStore, err := ckpt.NewDirStore(dir + "/sync")
	if err != nil {
		return nil, nil, err
	}
	sw := ckpt.NewSyncWriter(syncStore, ckpt.WriterConfig{Kind: "ns2d"})
	if res.SyncLoopS, err = runCkptVariant(cfg, sw); err != nil {
		return nil, nil, err
	}
	syncStats := sw.Stats()
	asyncStore, err := ckpt.NewDirStore(dir + "/async")
	if err != nil {
		return nil, nil, err
	}
	aw := ckpt.NewAsyncWriter(asyncStore, ckpt.WriterConfig{Kind: "ns2d"})
	res.AsyncLoopS, err = runCkptVariant(cfg, aw)
	asyncStats := aw.Stats()
	if cerr := aw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	res.Snapshots = int(syncStats.Snapshots)
	res.RawMB = float64(syncStats.RawBytes) / 1e6
	res.StoredMB = float64(syncStats.StoredBytes) / 1e6
	res.Ratio = syncStats.Ratio()
	res.SyncExposedS = syncStats.ExposedS
	res.AsyncExposedS = asyncStats.ExposedS
	res.AsyncHiddenS = asyncStats.HiddenS

	hostTbl := report.NewTable(
		fmt.Sprintf("Ckptbench: host async vs sync snapshotting — NS2D %dx%d order %d, %d steps, ckpt every %d (%d snapshots, %.2f MB raw -> %.2f MB stored, %.2fx)",
			cfg.Nt, cfg.Nr, cfg.Order, cfg.Steps, cfg.Every,
			res.Snapshots, res.RawMB, res.StoredMB, res.Ratio),
		"writer", "step-loop wall (s)", "exposed write (s)", "hidden write (s)")
	hostTbl.AddRow("none", fmt.Sprintf("%.4f", res.NoneLoopS), "—", "—")
	hostTbl.AddRow("sync", fmt.Sprintf("%.4f", res.SyncLoopS),
		fmt.Sprintf("%.4f", res.SyncExposedS), "0")
	hostTbl.AddRow("async", fmt.Sprintf("%.4f", res.AsyncLoopS),
		fmt.Sprintf("%.4f", res.AsyncExposedS), fmt.Sprintf("%.4f", res.AsyncHiddenS))

	return res, hostTbl, nil
}

func runCkptbench(cfg CkptbenchConfig, w io.Writer) (any, error) {
	res, tbl, err := RunCkptbench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	return res, nil
}
