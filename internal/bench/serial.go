package bench

import (
	"flag"
	"fmt"
	"io"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/report"
	"nektar/internal/timing"
)

// SerialConfig parametrizes the Table 1 / Figure 12 experiment: the
// serial bluff-body DNS on an O-grid of Nt x Nr spectral elements.
type SerialConfig struct {
	Nt, Nr int
	Order  int
	Steps  int // measured steps (after a 2-step order ramp)
	Instrument
}

// PaperSerial is the paper's discretization: 902 elements at
// polynomial order 8 (~230,000 total degrees of freedom over the three
// fields).
var PaperSerial = SerialConfig{Nt: 82, Nr: 11, Order: 8, Steps: 1}

// Table1Machines are the rows of the paper's Table 1.
var Table1Machines = []string{
	"AP3000", "Onyx2", "Muses", "SP2-Thin2", "SP2-Silver", "T3E", "P2SC",
}

// table1Label maps machine names onto the paper's row labels.
var table1Label = map[string]string{
	"Muses": "Pentium II, 450Mhz", "SP2-Thin2": "SP2 \"Thin2\" nodes",
	"SP2-Silver": "SP2 \"Silver\" nodes", "AP3000": "Fujitsu AP3000",
	"Onyx2": "Onyx 2",
}

// SerialResult is one machine's Table 1 entry plus its Figure 12 stage
// breakdown.
type SerialResult struct {
	Machine  string
	CPU      float64 // seconds per step
	StageSec [7]float64
	StagePct [7]float64
}

// RunSerial executes the serial DNS for real at the configured scale,
// records the per-stage BLAS operation counts of one step, and prices
// them on every Table 1 machine.
func RunSerial(cfg SerialConfig) ([]SerialResult, *timing.Stages, error) {
	ns, err := bluffNS2D(cfg.Order, cfg.Nt, cfg.Nr)
	if err != nil {
		return nil, nil, err
	}
	st := ns.Stages()
	st.Reset()
	st.Attach()
	loop := engine.Loop{Solver: ns, Steps: ns.StepCount() + cfg.Steps,
		Watchdog: engine.Watchdog{Disabled: true}, Trace: cfg.Trace}
	_, lerr := loop.Run()
	st.Detach()
	if lerr != nil {
		return nil, nil, lerr
	}

	var out []SerialResult
	for _, name := range Table1Machines {
		mach, err := machine.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		r := SerialResult{Machine: name}
		for si := range st.Counts {
			c := st.Counts[si]
			r.StageSec[si] = mach.CPU.ApplicationSeconds(&c) / float64(cfg.Steps)
			r.CPU += r.StageSec[si]
		}
		pct := timing.Percent(r.StageSec[:])
		copy(r.StagePct[:], pct)
		out = append(out, r)
	}
	return out, st, nil
}

// Table1 renders the Table 1 report from serial results.
func Table1(res []SerialResult) *report.Table {
	t := report.NewTable("Table 1: CPU time for serial algorithm bluff body simulation",
		"Machine", "CPU time (s)/step")
	for _, r := range res {
		label := r.Machine
		if l, ok := table1Label[r.Machine]; ok {
			label = l
		}
		t.AddRowf(label, "%.2f", r.CPU)
	}
	return t
}

// Fig12 renders the Figure 12 stage-percentage breakdowns for the
// requested machines (the paper shows Onyx2 and the Pentium II).
func Fig12(res []SerialResult, machines ...string) (string, error) {
	out := ""
	for _, want := range machines {
		found := false
		for _, r := range res {
			if r.Machine != want {
				continue
			}
			out += report.PieBreakdown(
				fmt.Sprintf("Figure 12: serial stage breakdown, %s", want),
				core.StageNames, r.StagePct[:]) + "\n"
			found = true
		}
		if !found {
			return "", fmt.Errorf("bench: machine %q not in results", want)
		}
	}
	return out, nil
}

func serialFlags(fs *flag.FlagSet, c *SerialConfig) {
	fs.IntVar(&c.Nt, "nt", c.Nt, "O-grid sectors")
	fs.IntVar(&c.Nr, "nr", c.Nr, "O-grid rings")
	fs.IntVar(&c.Order, "order", c.Order, "polynomial order")
	fs.IntVar(&c.Steps, "steps", c.Steps, "measured steps")
	c.Instrument.flags(fs)
}

func runSerial(cfg SerialConfig, w io.Writer) (any, error) {
	return nil, cfg.instrumented(func() error {
		res, _, err := RunSerial(cfg)
		if err != nil {
			return err
		}
		Table1(res).Write(w)
		txt, err := Fig12(res, "Onyx2", "Muses")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s", txt)
		return nil
	})
}
