package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"nektar/internal/engine"
	"nektar/internal/report"
)

// Engine bench: the driver loop's own overhead on top of a real (small)
// NS2D solver — stepping, checkpoint serialization, and the per-step
// trace emission — as host ns, allocations and bytes per operation.

// EngineOp is one operation's cost; a map of them keyed by operation
// name is the schema of BENCH_engine.json.
type EngineOp struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// measureOps times one call of run, which performs n operations, and
// charges it the heap allocations made meanwhile.
func measureOps(n int, run func() error) (EngineOp, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := run()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return EngineOp{
		NsPerOp:     d.Nanoseconds() / int64(n),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
	}, err
}

// runEngine measures ops operations of each kind, each on a fresh
// solver.
func runEngine(ops int, w io.Writer) (any, error) {
	out := map[string]EngineOp{}
	tbl := report.NewTable(
		fmt.Sprintf("Engine: driver-loop overhead on a small NS2D solver (host, %d ops each)", ops),
		"op", "ns/op", "allocs/op", "B/op")
	for _, b := range []struct {
		name    string
		trace   *engine.Tracer
		marshal bool
	}{
		{name: "EngineStep"},
		{name: "EngineCheckpoint", marshal: true},
		{name: "EngineTracedStep", trace: engine.NewTracer(io.Discard)},
	} {
		ns, err := bluffNS2D(3, 8, 2)
		if err != nil {
			return nil, err
		}
		loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + ops,
			Watchdog: engine.Watchdog{Disabled: true}, Trace: b.trace}
		run := func() error { _, err := loop.Run(); return err }
		if b.marshal {
			run = func() error {
				for i := 0; i < ops; i++ {
					if _, err := engine.Marshal(ns); err != nil {
						return err
					}
				}
				return nil
			}
		}
		op, err := measureOps(ops, run)
		if err != nil {
			return nil, fmt.Errorf("bench: engine %s: %w", b.name, err)
		}
		out[b.name] = op
		tbl.AddRow(b.name, fmt.Sprint(op.NsPerOp), fmt.Sprint(op.AllocsPerOp), fmt.Sprint(op.BytesPerOp))
	}
	tbl.Write(w)
	return out, nil
}
