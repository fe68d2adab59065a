package report

import (
	"fmt"

	"nektar/internal/engine"
)

// TraceBreakdown aggregates a recorded engine event stream into a
// per-stage table: events, priced seconds, and virtual-wall seconds
// per stage (first-seen order), followed by marker rows summarizing
// the steps, checkpoints, durable writes, trips, and halts
// the run saw.
// This rebuilds the paper's per-stage breakdowns offline from a trace
// instead of from live instrumentation.
func TraceBreakdown(evs []engine.Event, title string) *Table {
	type agg struct {
		n            int
		priced, wall float64
	}
	var order []string
	stages := map[string]*agg{}
	var steps, ckpts, ckptBytes, trips, halts, dones int
	var stepPriced, stepWall float64
	var writes, storedBytes int
	var writeHidden, writeExposed float64
	var spectra int
	var lastEnergy, lastDissipation float64
	var haveDiss bool
	for _, e := range evs {
		switch e.Ev {
		case engine.EvStage:
			a := stages[e.Stage]
			if a == nil {
				a = &agg{}
				stages[e.Stage] = a
				order = append(order, e.Stage)
			}
			a.n++
			a.priced += e.PricedS
			a.wall += e.WallS
		case engine.EvStep:
			steps++
			stepPriced += e.PricedS
			stepWall += e.WallS
		case engine.EvCheckpoint:
			ckpts++
			ckptBytes += e.Bytes
		case engine.EvCkptDone:
			writes++
			storedBytes += e.Stored
			writeHidden += e.HiddenS
			writeExposed += e.ExposedS
		case engine.EvTrip:
			trips++
		case engine.EvHalt:
			halts++
		case engine.EvDone:
			dones++
		case engine.EvSpectrum:
			spectra++
			lastEnergy = e.Energy
		case engine.EvDissipation:
			haveDiss = true
			lastEnergy = e.Energy
			lastDissipation = e.Dissipation
		}
	}
	t := NewTable(title, "stage", "events", "priced (s)", "wall (s)")
	for _, name := range order {
		a := stages[name]
		t.AddRow(name, fmt.Sprintf("%d", a.n),
			fmt.Sprintf("%.4g", a.priced), fmt.Sprintf("%.4g", a.wall))
	}
	t.AddRow("[steps]", fmt.Sprintf("%d", steps),
		fmt.Sprintf("%.4g", stepPriced), fmt.Sprintf("%.4g", stepWall))
	t.AddRow("[checkpoints]", fmt.Sprintf("%d", ckpts),
		fmt.Sprintf("%d bytes", ckptBytes), "")
	if writes > 0 {
		t.AddRow("[durable writes]", fmt.Sprintf("%d", writes),
			fmt.Sprintf("%d bytes stored", storedBytes),
			fmt.Sprintf("%.4g exposed + %.4g hidden", writeExposed, writeHidden))
	}
	if spectra > 0 || haveDiss {
		t.AddRow("[spectra]", fmt.Sprintf("%d", spectra),
			fmt.Sprintf("E=%.4g", lastEnergy),
			fmt.Sprintf("eps=%.4g", lastDissipation))
	}
	if trips > 0 {
		t.AddRow("[watchdog trips]", fmt.Sprintf("%d", trips), "", "")
	}
	if halts > 0 {
		t.AddRow("[halts]", fmt.Sprintf("%d", halts), "", "")
	}
	t.AddRow("[completed ranks]", fmt.Sprintf("%d", dones), "", "")
	return t
}
