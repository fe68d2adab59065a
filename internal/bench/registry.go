package bench

import (
	"flag"
	"fmt"
	"io"
	"strings"
)

// Experiment is one entry of the registry, the only declaration of an
// experiment: cmd/repro runs it by Name, `repro -record` writes its
// baseline. Build one with entry.
type Experiment struct {
	Name, Desc string

	// Paper and Quick are the experiment's two configurations (the same
	// type): the paper-scale one and the budget-limited one `repro
	// -quick` selects.
	Paper, Quick any

	// Baseline is the stem of the committed BENCH_<stem>.json that
	// `repro -record` writes the run's result to; "" for experiments
	// whose committed artifact is their table.
	Baseline string

	// Bind selects the paper or quick configuration, registers the
	// experiment's flags (if any) on fs, and returns a pointer to the
	// bound configuration and the run: called after fs is parsed, run
	// writes the experiment's tables to w and returns the baseline
	// payload, nil when there is none.
	Bind func(fs *flag.FlagSet, quick bool) (cfg any, run func(w io.Writer) (result any, err error))
}

// entry completes e with its two configurations, the optional hook
// that binds command-line flags onto the selected one, and the run
// over it.
func entry[C any](e Experiment, paper, quick C, flags func(*flag.FlagSet, *C), run func(C, io.Writer) (any, error)) Experiment {
	e.Paper, e.Quick = paper, quick
	e.Bind = func(fs *flag.FlagSet, q bool) (any, func(io.Writer) (any, error)) {
		cfg := paper
		if q {
			cfg = quick
		}
		if flags != nil {
			flags(fs, &cfg)
		}
		return &cfg, func(w io.Writer) (any, error) { return run(cfg, w) }
	}
	return e
}

// with returns c after edit: a quick configuration stated as its
// difference from the paper one.
func with[C any](c C, edit func(*C)) C {
	edit(&c)
	return c
}

// experiments is the registry, in paper order. Names double as the
// CLI selectors and the -outdir file names.
var experiments = []Experiment{
	entry(Experiment{Name: "fig1-6_kernels", Desc: "BLAS kernel figures on the priced machines (-native: on this host)"},
		KernelsConfig{}, KernelsConfig{}, kernelsFlags, runKernels),
	entry(Experiment{Name: "fig7_pingpong", Desc: "MPI ping-pong latency/bandwidth"},
		struct{}{}, struct{}{}, nil, runPingPong),
	entry(Experiment{Name: "fig8_alltoall", Desc: "MPI all-to-all exchange"},
		[]int{4, 8}, []int{4, 8}, nil, runAlltoall),
	entry(Experiment{Name: "fig9-10_basis", Desc: "modal ordering and Laplacian sparsity of the tri/quad expansions (-sparsity=false: Figure 9 alone)"},
		BasisConfig{Sparsity: true}, BasisConfig{Sparsity: true}, basisFlags, runBasis),
	entry(Experiment{Name: "table1_fig12_serial", Desc: "serial DNS: Table 1 + Figure 12"},
		PaperSerial, SerialConfig{Nt: 24, Nr: 6, Order: 6, Steps: 1}, serialFlags, runSerial),
	entry(Experiment{Name: "table2_fig13-14_nektarf", Desc: "Nektar-F weak scaling: Table 2 + Figures 13-14"},
		PaperFourier, with(PaperFourier, func(c *FourierConfig) { c.Procs, c.Steps = []int{2, 4, 8, 16}, 1 }),
		fourierFlags, runTable2),
	entry(Experiment{Name: "ckptbench", Desc: "durable checkpoint store: async vs sync host writers", Baseline: "ckpt"},
		PaperCkptbench, with(PaperCkptbench, func(c *CkptbenchConfig) {
			c.Nt, c.Nr, c.Order, c.Steps = 12, 3, 4, 6
		}), nil, runCkptbench),
	entry(Experiment{Name: "trace", Desc: "engine per-step JSONL trace of a checkpointed parallel run"},
		PaperTrace, with(PaperTrace, func(c *TraceConfig) { c.Procs, c.Steps = 2, 6 }),
		nil, runTrace),
	entry(Experiment{Name: "farmbench", Desc: "job-farm chaos campaign: SIGKILL the daemon, audit the ledger", Baseline: "farm"},
		PaperFarmbench, QuickFarmbench, nil, runFarmbench),
	entry(Experiment{Name: "scalebench", Desc: "simnet capacity sweep: weak/strong scaling on the PMS and Tanaka models to P=1024"},
		PaperScalebench, QuickScalebench, nil, runScalebench),
	entry(Experiment{Name: "spectral", Desc: "pseudospectral turbulence: serial vs slab bit-identity + online spectra",
		Baseline: "spectral"},
		PaperSpectral, QuickSpectral, spectralFlags, runSpectral),
	entry(Experiment{Name: "fftbench", Desc: "FFT kernel rows at N and 3N/2 on this host"},
		PaperFftbench, QuickFftbench, nil, runFftbench),
	entry(Experiment{Name: "engine", Desc: "engine loop overhead: step, checkpoint marshal, traced step", Baseline: "engine"},
		2000, 200, nil, runEngine),
	entry(Experiment{Name: "table3_fig15-16_nektarale", Desc: "Nektar-ALE flapping wing: Table 3 + Figures 15-16"},
		PaperALE, with(PaperALE, func(c *ALEConfig) { c.Procs = []int{16, 32} }), aleFlags, runTable3),
}

// Experiments returns the registry, in run order.
func Experiments() []Experiment { return experiments }

// ExperimentByName resolves one experiment; the error for an unknown
// name lists what is registered.
func ExperimentByName(name string) (*Experiment, error) {
	names := make([]string, len(experiments))
	for i := range experiments {
		if experiments[i].Name == name {
			return &experiments[i], nil
		}
		names[i] = experiments[i].Name
	}
	return nil, fmt.Errorf("unknown experiment %q: registered experiments are %s", name, strings.Join(names, ", "))
}
