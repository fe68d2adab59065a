package report

import (
	"bytes"
	"strings"
	"testing"

	"nektar/internal/engine"
)

func TestTraceBreakdown(t *testing.T) {
	evs := []engine.Event{
		{Ev: engine.EvStage, Rank: 0, Step: 1, Stage: "solve", PricedS: 1, WallS: 2},
		{Ev: engine.EvStage, Rank: 0, Step: 2, Stage: "solve", PricedS: 1, WallS: 2},
		{Ev: engine.EvStage, Rank: 0, Step: 2, Stage: "rhs", PricedS: 0.5, WallS: 0.5},
		{Ev: engine.EvStep, Rank: 0, Step: 1, PricedS: 1, WallS: 2},
		{Ev: engine.EvStep, Rank: 0, Step: 2, PricedS: 1.5, WallS: 2.5},
		{Ev: engine.EvCheckpoint, Rank: 0, Step: 2, Bytes: 100},
		{Ev: engine.EvCkptDone, Rank: 0, Step: 2, Stored: 80, HiddenS: 0.25, ExposedS: 0.125},
		{Ev: engine.EvCkptDone, Rank: 0, Step: 4, Stored: 80, HiddenS: 0.25, Final: true},
		{Ev: engine.EvDone, Rank: 0, Step: 4},
	}
	var buf bytes.Buffer
	TraceBreakdown(evs, "trace test").Write(&buf)
	out := buf.String()
	for _, want := range []string{
		"solve", "rhs", "[steps]", "100 bytes", "[completed ranks]",
		"[durable writes]", "160 bytes stored", "0.125 exposed + 0.5 hidden",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
	// Stage rows aggregate across steps: solve saw 2 events, 2 priced
	// seconds, 4 wall seconds.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "solve") {
			for _, cell := range []string{"2 ", "4"} {
				if !strings.Contains(line, cell) {
					t.Fatalf("solve row missing %q: %s", cell, line)
				}
			}
		}
	}
	// Trips and halts are omitted when the run saw none.
	if strings.Contains(out, "[watchdog trips]") || strings.Contains(out, "[halts]") {
		t.Fatalf("unexpected trip/halt rows in a clean trace:\n%s", out)
	}
}
