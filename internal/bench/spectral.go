package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
	"nektar/internal/workload"
)

// Spectral bench: the slab-decomposed pseudospectral solvers against
// their serial selves. Each cell runs one variant two ways — a plain
// one-rank host run (no simnet) and the P-rank slab run on the
// simulated cluster — and requires the two trajectories to be
// bit-identical before any number is recorded: the one-rank host run
// is the physics reference.

// SpectralBenchConfig parametrizes the sweep.
type SpectralBenchConfig struct {
	N     int   // grid size (>= 8, divisible by 4, 5-smooth)
	Steps int   // steps per run
	Procs []int // slab rank counts (each must divide N and 3N/2)

	one spectralRun // the CLI's single run; replaces the sweep when one.procs >= 1
}

// spectralRun is one solver run from the command line, at grid N:
// decaying unless forced, on procs slab ranks of the simulated Muses
// cluster, seed 1, spectrum/dissipation diagnostics every 10 steps.
type spectralRun struct {
	procs, steps int
	forced       bool
}

// PaperSpectral is the committed-baseline configuration.
var PaperSpectral = SpectralBenchConfig{N: 32, Steps: 4, Procs: []int{4, 8}, one: spectralRun{steps: 50}}

// QuickSpectral is the budget-limited variant.
var QuickSpectral = SpectralBenchConfig{N: 16, Steps: 2, Procs: []int{4}, one: spectralRun{steps: 50}}

// SpectralCellResult is one variant x rank-count measurement.
type SpectralCellResult struct {
	Workload string
	Procs    int

	SerialHostS     float64 // one-rank reference run, real host seconds
	SlabSerialHostS float64 // P-rank slab run, real host seconds

	// VirtualWallS is the max per-rank virtual wall clock of the slab
	// run.
	VirtualWallS float64

	// TransformFlopsPerStep is the modeled transform work of one step
	// (5 L log2 L per length-L row FFT, summed over the step's
	// pipeline), and TransposeBytesPerStep the global Alltoall payload
	// the step's distributed transposes move.
	TransformFlopsPerStep int64
	TransposeBytesPerStep int64
}

// SpectralBenchResult is the schema of BENCH_spectral.json.
type SpectralBenchResult struct {
	N int
	// PadM stamps the de-aliasing grid the decaying pipeline ran on.
	PadM  int
	Steps int
	Cells []SpectralCellResult
}

// fftModelFlops is the 5 L log2 L transform cost model, matching what
// internal/fft records into the machine pricing.
func fftModelFlops(l int) int64 {
	if l <= 1 {
		return 0
	}
	return int64(5 * float64(l) * math.Log2(float64(l)))
}

// stepCosts returns the modeled FFT flops and global transpose bytes of
// one solver step: three 2-D transforms and three transposes either
// way. The decaying variant runs 2 InversePadPair + 1 ForwardPad, each
// moving an N x M matrix through Alltoall; a paired inverse transforms
// N + M complex rows of length M, the forward M real rows of length M
// (half-length complex transforms) and then N complex ones. The forced
// variant runs 1 InversePair + 2 Forward on the unpadded N x N
// pipeline. TestStepCostsMatchARecordedStep holds both numbers to what
// a step records.
func stepCosts(variant string, n int) (flops, bytes int64) {
	l := n
	inverses, forwards := int64(1), int64(2)
	if variant == "turb2d" {
		l = 3 * n / 2
		inverses, forwards = 2, 1
	}
	inverse := int64(n+l) * fftModelFlops(l)
	forward := int64(l)*fftModelFlops(l/2) + int64(n)*fftModelFlops(l)
	return inverses*inverse + forwards*forward, 3 * 16 * int64(n) * int64(l)
}

// spectralCase is the problem of one spectral table entry as this
// experiment runs it: grid n, and spectrum/dissipation diagnostics
// every diagEvery steps (0: none) into the tracer build is given.
type spectralCase struct {
	name         string
	seed         uint64
	n, diagEvery int
}

func (c spectralCase) params() (workload.Entry, workload.Params) {
	wl := tableEntry(c.name)
	p := wl.Default
	p.Seed, p.N = c.seed, c.n
	return wl, p
}

// build makes one rank's solver (comm nil: serial on the host).
func (c spectralCase) build(comm *mpi.Comm, cpu *machine.CPU, tracer *engine.Tracer) (*spectral.Turb2D, error) {
	wl, p := c.params()
	s, err := wl.New(p, comm, cpu)
	if err != nil {
		return nil, err
	}
	t := s.(*spectral.Turb2D)
	t.Trace, t.Cfg.DiagEvery = tracer, c.diagEvery
	return t, nil
}

// hashField canonicalizes a spectral state slab to its float bits.
func hashField(w []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSlab runs the case on p ranks of the simulated Muses cluster,
// rank 0's diagnostics into tracer, and returns per-rank slab hashes,
// the max virtual wall, and host seconds. A (grid, p) the table's
// Check refuses is an error before any rank starts.
func (c spectralCase) runSlab(p, steps int, tracer *engine.Tracer) ([]string, float64, float64, error) {
	wl, params := c.params()
	if p < 1 {
		return nil, 0, 0, fmt.Errorf("bench: spectral: need at least one rank, got %d", p)
	}
	if err := wl.Check(params, p); err != nil {
		return nil, 0, 0, err
	}
	mach := machine.Muses()
	hashes := make([]string, p)
	t0 := time.Now()
	wall, _, err := simnet.Run(p, mach.Net, func(nd *simnet.Node) {
		rankTracer := tracer
		if nd.Rank != 0 {
			rankTracer = nil
		}
		s, err := c.build(mpi.World(nd), &mach.CPU, rankTracer)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		hashes[nd.Rank] = hashField(s.Field())
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return hashes, slices.Max(wall), time.Since(t0).Seconds(), nil
}

// benchSeed seeds every run of the sweep and its trace demo.
const benchSeed = 33

// RunSpectralBench executes the sweep and renders the comparison table.
func RunSpectralBench(cfg SpectralBenchConfig) (*SpectralBenchResult, *report.Table, error) {
	res := &SpectralBenchResult{N: cfg.N, PadM: 3 * cfg.N / 2, Steps: cfg.Steps}
	for _, name := range []string{"turb2d", "turbforce"} {
		c := spectralCase{name: name, seed: benchSeed, n: cfg.N}
		// One-rank physics reference: per-slab hashes of the serial field,
		// so the slab runs compare slab-for-slab.
		ser, err := c.build(nil, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: spectral: %w", err)
		}
		t0 := time.Now()
		for i := 0; i < cfg.Steps; i++ {
			ser.Step()
		}
		serialS := time.Since(t0).Seconds()
		field := ser.Field()

		for _, p := range cfg.Procs {
			nloc := cfg.N / p
			want := make([]string, p)
			for r := 0; r < p; r++ {
				want[r] = hashField(field[r*nloc*cfg.N : (r+1)*nloc*cfg.N])
			}
			hs, wallS, slabS, err := c.runSlab(p, cfg.Steps, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: spectral %s P=%d: %w", name, p, err)
			}
			for r := 0; r < p; r++ {
				if hs[r] != want[r] {
					return nil, nil, fmt.Errorf(
						"bench: spectral %s P=%d: slab trajectory diverged from the serial reference at rank %d", name, p, r)
				}
			}
			flops, bytes := stepCosts(name, cfg.N)
			res.Cells = append(res.Cells, SpectralCellResult{
				Workload:              name,
				Procs:                 p,
				SerialHostS:           serialS,
				SlabSerialHostS:       slabS,
				VirtualWallS:          wallS,
				TransformFlopsPerStep: flops,
				TransposeBytesPerStep: bytes,
			})
		}
	}

	tbl := report.NewTable(
		fmt.Sprintf("Spectral bench: serial vs slab-parallel pseudospectral solvers, bit-identity enforced (N=%d, M=%d, %d steps)",
			res.N, res.PadM, res.Steps),
		"workload", "P", "1-rank host s", "slab serial s", "virtual wall s", "Mflop/step", "xpose B/step")
	for _, c := range res.Cells {
		tbl.AddRow(c.Workload, fmt.Sprintf("%d", c.Procs),
			fmt.Sprintf("%.3f", c.SerialHostS), fmt.Sprintf("%.3f", c.SlabSerialHostS),
			fmt.Sprintf("%.4f", c.VirtualWallS),
			fmt.Sprintf("%.3f", float64(c.TransformFlopsPerStep)/1e6),
			fmt.Sprintf("%d", c.TransposeBytesPerStep))
	}
	return res, tbl, nil
}

// runSpectral is the registry's spectral experiment: the bench sweep,
// then a short forced run with the tracer on, to show the online
// spectrum/dissipation stream and its offline aggregation. With -procs
// it is the single run of spectralRun instead.
func runSpectral(cfg SpectralBenchConfig, w io.Writer) (any, error) {
	if cfg.one.procs >= 1 {
		return nil, runSpectralOne(cfg.N, cfg.one, w)
	}
	res, tbl, err := RunSpectralBench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	var buf bytes.Buffer
	tracer := engine.NewTracer(&buf)
	s, err := spectralCase{name: "turbforce", seed: benchSeed, n: cfg.N, diagEvery: 2}.build(nil, nil, tracer)
	if err != nil {
		return nil, err
	}
	loop := engine.Loop{Solver: s, Steps: 8, Trace: tracer}
	if _, err := loop.Run(); err != nil {
		return nil, err
	}
	return res, writeTrace(w, &buf, func(events int) string {
		return fmt.Sprintf("Spectral trace: forced 2D turbulence event stream — N=%d, 8 steps, diag every 2 (%d events)",
			cfg.N, events)
	})
}

func spectralFlags(fs *flag.FlagSet, c *SpectralBenchConfig) {
	fs.IntVar(&c.N, "n", c.N, "grid size per dimension (>= 8, divisible by 4, only prime factors 2/3/5: 8, 12, 16, 20, 24, 32, 36, ...)")
	fs.IntVar(&c.one.procs, "procs", c.one.procs, "run one solver on this many slab ranks instead of the sweep; must divide -n, and 3n/2 unless -forced")
	fs.IntVar(&c.one.steps, "steps", c.one.steps, "steps to run (with -procs)")
	fs.BoolVar(&c.one.forced, "forced", c.one.forced, "run the white-noise-forced variant instead of decay (with -procs)")
}

// runSpectralOne runs one solver on the simulated cluster and prints
// the offline breakdown of its buffered diagnostics stream.
func runSpectralOne(n int, run spectralRun, w io.Writer) error {
	c, variant := spectralCase{name: "turb2d", seed: 1, n: n, diagEvery: 10}, "decaying"
	if run.forced {
		c.name, variant = "turbforce", "forced"
	}
	var buf bytes.Buffer
	if _, _, _, err := c.runSlab(run.procs, run.steps, engine.NewTracer(&buf)); err != nil {
		return err
	}
	evs, err := engine.ReadEvents(&buf)
	if err != nil {
		return err
	}
	report.TraceBreakdown(evs, fmt.Sprintf(
		"Spectral: %s 2D turbulence — N=%d, Re=500, P=%d, %d steps, diag every %d (%d events)",
		variant, n, run.procs, run.steps, c.diagEvery, len(evs))).Write(w)
	return nil
}
