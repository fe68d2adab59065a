package bench

import (
	"bytes"
	"fmt"
	"io"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
)

// Trace: a demonstration-scale parallel run with the structured
// per-step event stream switched on. Every rank drives its solver
// through engine.Loop on the simulated cluster and checkpoints through
// a synchronous writer into an in-memory store, so the stream carries
// one event per step and per active stage (priced and virtual-wall
// seconds) plus the checkpoint, ckpt_begin/ckpt_done and done markers;
// this experiment writes the stream to w, inspectable offline.

// TraceConfig parametrizes a traced run.
type TraceConfig struct {
	Machine  string
	Workload string // internal/workload table name
	Procs    int

	Steps           int
	CheckpointEvery int
}

// PaperTrace is the default traced run: the Ethernet Beowulf at four
// ranks.
var PaperTrace = TraceConfig{
	Machine:  "RoadRunner-eth",
	Workload: "nsf",
	Procs:    4,
	Steps:    8, CheckpointEvery: 2,
}

// RunTrace executes the configured run with tracing enabled, writing
// one JSON event per line to w. A configuration that cannot run is
// refused before any rank starts.
func RunTrace(cfg TraceConfig, w io.Writer) error {
	mach, newSolver, err := clusterFor(cfg.Machine, cfg.Workload, cfg.Procs)
	if err != nil {
		return err
	}
	if cfg.Steps < 1 {
		return fmt.Errorf("bench: need at least one step, got %d", cfg.Steps)
	}
	tracer := engine.NewTracer(w)
	store := ckpt.NewMemStore()
	_, _, err = simnet.Run(cfg.Procs, mach.Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := newSolver(comm)
		if err != nil {
			panic(err)
		}
		loop := engine.Loop{
			Solver: s, Steps: cfg.Steps, Rank: comm.Rank(),
			CheckpointEvery: cfg.CheckpointEvery,
			Sink:            ckpt.NewSyncWriter(store, ckpt.WriterConfig{Kind: cfg.Workload, Rank: comm.Rank(), Trace: tracer}),
			Watchdog:        engine.Watchdog{Disabled: true},
			Trace:           tracer,
		}
		if _, err := loop.Run(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return fmt.Errorf("bench: traced run: %w", err)
	}
	return nil
}

// runTrace is the registry's trace experiment. The raw JSONL stream is
// the artifact; the breakdown table that follows is internal/report's
// offline aggregation of it.
func runTrace(cfg TraceConfig, w io.Writer) (any, error) {
	var buf bytes.Buffer
	if err := RunTrace(cfg, &buf); err != nil {
		return nil, err
	}
	return nil, writeTrace(w, &buf, func(events int) string {
		return fmt.Sprintf("Trace: engine event stream — %s, %s, P=%d, %d steps, ckpt every %d (%d events)",
			cfg.Machine, cfg.Workload, cfg.Procs, cfg.Steps, cfg.CheckpointEvery, events)
	})
}

// writeTrace writes a buffered JSONL event stream to w, then a blank
// line and the stream's breakdown table under title(event count).
func writeTrace(w io.Writer, buf *bytes.Buffer, title func(events int) string) error {
	evs, err := engine.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	report.TraceBreakdown(evs, title(len(evs))).Write(w)
	return nil
}
