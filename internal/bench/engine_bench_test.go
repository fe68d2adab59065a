package bench

import (
	"io"
	"testing"

	"nektar/internal/core"
	"nektar/internal/engine"
)

// Engine micro-benchmarks: the driver loop's own overhead on top of a
// real (small) NS2D solver — stepping, checkpoint serialization, and
// the per-step trace emission — the `go test -bench Engine` twins of
// the registry's engine experiment (engine.go), which records the
// committed BENCH_engine.json.

func benchNS2D(b *testing.B) *core.NS2D {
	b.Helper()
	ns, err := bluffNS2D(3, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	return ns
}

func BenchmarkEngineStep(b *testing.B) {
	ns := benchNS2D(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + b.N,
		Watchdog: engine.Watchdog{Disabled: true}}
	if _, err := loop.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineCheckpoint(b *testing.B) {
	ns := benchNS2D(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Marshal(ns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTracedStep(b *testing.B) {
	ns := benchNS2D(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + b.N,
		Watchdog: engine.Watchdog{Disabled: true},
		Trace:    engine.NewTracer(io.Discard)}
	if _, err := loop.Run(); err != nil {
		b.Fatal(err)
	}
}
