package bench

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"nektar/internal/engine"
	"nektar/internal/fault"
	"nektar/internal/report"
	"nektar/internal/supervisor"
)

// Trace: a demonstration-scale supervised campaign with the structured
// per-step event stream switched on. The engine emits one JSONL event
// per step and per active stage (priced and virtual-wall seconds), plus
// checkpoint, rollback, trip, halt and done markers; this experiment
// writes the stream to w and returns the campaign result. With
// CrashNode set, a seeded node crash forces the supervisor to move the
// rank onto the one spare and roll back, so the stream shows the
// recovery round trip, inspectable offline.

// TraceConfig parametrizes a traced run.
type TraceConfig struct {
	Machine  string
	Workload string // internal/workload table name
	Procs    int

	Steps           int
	CheckpointEvery int

	// CrashNode >= 0 injects a node crash at CrashFrac of the
	// reference virtual wall, so the trace includes the crash attempt
	// and the rollback. Negative disables.
	CrashNode int
	CrashFrac float64
	Seed      int64
}

// PaperTrace is the default traced run: the Ethernet Beowulf at four
// ranks with a mid-run node crash.
var PaperTrace = TraceConfig{
	Machine:  "RoadRunner-eth",
	Workload: "nsf",
	Procs:    4,
	Steps:    8, CheckpointEvery: 2,
	CrashNode: 2, CrashFrac: 0.6,
	Seed: 1,
}

// ValidateTrace checks a trace configuration.
func ValidateTrace(cfg TraceConfig) error {
	if _, _, err := clusterFor(cfg.Machine, cfg.Workload, cfg.Procs, traceSpares); err != nil {
		return err
	}
	if cfg.Steps < 1 {
		return fmt.Errorf("bench: need at least one step, got %d", cfg.Steps)
	}
	if cfg.CrashNode >= cfg.Procs {
		return fmt.Errorf("bench: crash node %d is not one of the %d ranks", cfg.CrashNode, cfg.Procs)
	}
	if cfg.CrashNode >= 0 && (cfg.CrashFrac <= 0 || cfg.CrashFrac >= 1) {
		return fmt.Errorf("bench: crash fraction %g must lie in (0, 1) — it places the crash inside the reference run", cfg.CrashFrac)
	}
	return nil
}

// traceSpares is the hot-spare count of the traced campaign: its one
// crash consumes one.
const traceSpares = 1

// RunTrace executes the configured campaign with tracing enabled,
// writing one JSON event per line to w. It fails unless the recovered
// trajectory is bit-identical to the fault-free reference.
func RunTrace(cfg TraceConfig, w io.Writer) (*supervisor.Result, error) {
	if err := ValidateTrace(cfg); err != nil {
		return nil, err
	}
	mach, newSolver, err := clusterFor(cfg.Machine, cfg.Workload, cfg.Procs, traceSpares)
	if err != nil {
		return nil, err
	}
	sup := supervisedConfig(mach, newSolver, cfg.Procs, traceSpares, cfg.Steps)
	sup.CheckpointEvery = cfg.CheckpointEvery
	var ref *supervisor.Result
	if cfg.CrashNode >= 0 {
		// The crash time is a fraction of the fault-free wall, so run an
		// untraced reference first to measure it.
		if ref, err = supervisor.Run(sup); err != nil {
			return nil, fmt.Errorf("bench: trace reference run: %w", err)
		}
		sup.Faults = fault.NewPlan(cfg.Seed).Crash(cfg.CrashNode, cfg.CrashFrac*ref.VirtualWall)
		sup.Heartbeat.InitialInterval = ref.VirtualWall / float64(cfg.Steps)
	}
	sup.Trace = engine.NewTracer(w)
	res, err := supervisor.Run(sup)
	if err != nil {
		return nil, fmt.Errorf("bench: traced run: %w", err)
	}
	if ref != nil && !slices.EqualFunc(ref.FinalStates, res.FinalStates, bytes.Equal) {
		return res, fmt.Errorf("bench: traced recovery is NOT bit-identical to the fault-free reference")
	}
	return res, nil
}

// runTrace is the registry's trace experiment. The raw JSONL stream is
// the artifact; the breakdown table that follows is internal/report's
// offline aggregation of it.
func runTrace(cfg TraceConfig, w io.Writer) (any, error) {
	var buf bytes.Buffer
	if _, err := RunTrace(cfg, &buf); err != nil {
		return nil, err
	}
	recovered := ""
	if cfg.CrashNode >= 0 {
		recovered = ", recovery bit-identical" // RunTrace fails otherwise
	}
	return nil, writeTrace(w, &buf, func(events int) string {
		return fmt.Sprintf("Trace: supervised engine event stream — %s, %s, P=%d +%d spare, %d steps, ckpt every %d (%d events%s)",
			cfg.Machine, cfg.Workload, cfg.Procs, traceSpares, cfg.Steps, cfg.CheckpointEvery, events, recovered)
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
