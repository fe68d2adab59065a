package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
)

// Ckptbench: what does durable checkpointing cost? Two measurements.
//
// Host side: the same small NS2D run is driven three times at an equal
// checkpoint cadence — no durability, a synchronous writer (the step
// loop pays marshal + compress + CRC + disk write inline), and the
// async double-buffered writer (the loop pays only the marshal; the
// background goroutine hides the rest) — tabulating exposed vs hidden
// write seconds from the writers' own counters.
//
// Virtual side: a Nektar-F state is written through the simulated
// cluster's cost model (ckpt.SimWriter) as node-local restart files vs
// striped 1/P-th shards, pricing the striping penalty per machine —
// the quantified version of the paper's choice of local restart files
// over a parallel file system on commodity Ethernet.

// CkptbenchConfig parametrizes both tables.
type CkptbenchConfig struct {
	// NS2D probe mesh for the host-side table.
	Nt, Nr, Order int
	// Steps are measured steps (after the 2-step order ramp); Every is
	// the checkpoint cadence shared by the sync and async variants.
	Steps, Every int

	// Dir roots the host-side stores; empty uses a temp dir.
	Dir string

	// Virtual-side sweep: one probe Nektar-F record per rank written by
	// Procs ranks on each machine, local vs striped, against DiskMBs
	// node-local disks.
	Machines []string
	Procs    int
	DiskMBs  float64
}

// PaperCkptbench is the default: a small serial DNS for the host
// table, and the paper's two RoadRunner interconnects for the striping
// penalty.
var PaperCkptbench = CkptbenchConfig{
	Nt: 24, Nr: 6, Order: 6,
	Steps: 12, Every: 2,
	Machines: []string{"RoadRunner-eth", "RoadRunner-myr"},
	Procs:    4,
	DiskMBs:  20,
}

// StripedCost is one machine's virtual-side row.
type StripedCost struct {
	Machine          string
	Procs            int
	StateMB          float64 // raw per-rank state
	LocalS, StripedS float64 // max-over-ranks virtual write cost
}

// CkptbenchResult carries both measurements; it is the schema of
// BENCH_ckpt.json.
type CkptbenchResult struct {
	Nt, Nr, Order, Steps, Every int

	// Host-side, per full run at the shared cadence.
	Snapshots              int
	RawMB, StoredMB, Ratio float64
	NoneLoopS              float64 // step-loop host wall, no durability
	SyncLoopS, AsyncLoopS  float64
	SyncExposedS           float64 // write time the step loop waited on
	AsyncExposedS          float64
	AsyncHiddenS           float64 // write time overlapped with stepping

	Striped []StripedCost
}

// ValidateCkptbench checks a configuration and returns an actionable
// error for each way the experiment cannot run.
func ValidateCkptbench(cfg CkptbenchConfig) error {
	if cfg.Steps < 1 || cfg.Every < 1 {
		return fmt.Errorf("bench: ckptbench needs positive steps and cadence, got %d/%d", cfg.Steps, cfg.Every)
	}
	for _, name := range cfg.Machines {
		if _, _, err := clusterFor(name, "nsf", cfg.Procs, 0); err != nil {
			return err
		}
	}
	if cfg.DiskMBs <= 0 {
		return fmt.Errorf("bench: disk bandwidth %g MB/s must be positive", cfg.DiskMBs)
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

// stripedCostCell measures one machine's local vs striped virtual
// write cost for a real marshalled Nektar-F state (the faultbench
// probe mesh).
func stripedCostCell(name string, procs int, diskMBs float64, order int) (StripedCost, error) {
	mach, err := machine.ByName(name)
	if err != nil {
		return StripedCost{}, err
	}
	sc := StripedCost{Machine: name, Procs: procs}
	_, _, err = simnet.Run(procs, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		ns, nerr := nsfProbe(mach, order, 8, 2)(comm)
		if nerr != nil {
			panic(nerr)
		}
		ns.Step()
		state, serr := engine.Marshal(ns)
		if serr != nil {
			panic(serr)
		}
		local := &ckpt.SimWriter{Kind: "nsf", Comm: comm, DiskMBs: diskMBs, Mode: ckpt.WriteLocal}
		if werr := local.Submit(ns.StepCount(), state, false); werr != nil {
			panic(werr)
		}
		striped := &ckpt.SimWriter{Kind: "nsf", Comm: comm, DiskMBs: diskMBs, Mode: ckpt.WriteStriped}
		if werr := striped.Submit(ns.StepCount(), state, false); werr != nil {
			panic(werr)
		}
		mx := comm.Allreduce([]float64{local.LastCostS(), striped.LastCostS(), float64(len(state))}, mpi.Max)
		if comm.Rank() == 0 {
			sc.LocalS, sc.StripedS, sc.StateMB = mx[0], mx[1], mx[2]/1e6
		}
	})
	return sc, err
}

// RunCkptbench executes both measurements and renders the two tables.
func RunCkptbench(cfg CkptbenchConfig) (*CkptbenchResult, []*report.Table, error) {
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

	// Virtual side: the striping penalty per machine.
	stripeTbl := report.NewTable(
		fmt.Sprintf("Ckptbench: simulated parallel-write cost, P=%d, %g MB/s node-local disks — restart files vs striped shards",
			cfg.Procs, cfg.DiskMBs),
		"machine", "state (MB/rank)", "local (s)", "striped (s)", "striping penalty")
	for _, name := range cfg.Machines {
		sc, err := stripedCostCell(name, cfg.Procs, cfg.DiskMBs, cfg.Order)
		if err != nil {
			return nil, nil, err
		}
		res.Striped = append(res.Striped, sc)
		stripeTbl.AddRow(sc.Machine, fmt.Sprintf("%.3f", sc.StateMB),
			fmt.Sprintf("%.4g", sc.LocalS), fmt.Sprintf("%.4g", sc.StripedS),
			fmt.Sprintf("%+.1f%%", 100*(sc.StripedS/sc.LocalS-1)))
	}
	return res, []*report.Table{hostTbl, stripeTbl}, nil
}

func runCkptbench(cfg CkptbenchConfig, w io.Writer) (any, error) {
	res, tables, err := RunCkptbench(cfg)
	if err != nil {
		return nil, err
	}
	for i, tbl := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		tbl.Write(w)
	}
	return res, nil
}
