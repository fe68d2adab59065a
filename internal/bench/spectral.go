package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"nektar/internal/cliutil"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/report"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
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
}

// PaperSpectral is the committed-baseline configuration.
var PaperSpectral = SpectralBenchConfig{N: 32, Steps: 4, Procs: []int{4, 8}}

// QuickSpectral is the budget-limited variant.
var QuickSpectral = SpectralBenchConfig{N: 16, Steps: 2, Procs: []int{4}}

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

// stepCosts returns the modeled transform flops and global transpose
// bytes of one solver step. The decaying variant runs 4 InversePad + 1
// ForwardPad per step, each moving an N x M matrix through Alltoall
// and transforming N rows + M rows of length M; the forced variant
// runs 2 Inverse + 2 Forward on the unpadded N x N pipeline.
func stepCosts(variant string, n int) (flops, bytes int64) {
	if variant == "turb2d" {
		m := 3 * n / 2
		perHalf := int64(n+m) * fftModelFlops(m)
		return 5 * perHalf, 5 * 16 * int64(n) * int64(m)
	}
	perTransform := int64(2*n) * fftModelFlops(n)
	return 4 * perTransform, 4 * 16 * int64(n) * int64(n)
}

// spectralVariants names the two solver builds the bench sweeps.
var spectralVariants = []struct {
	name string
	mk   func(cfg spectral.Config, comm *mpi.Comm, cpu *machine.CPU) (*spectral.Turb2D, error)
}{
	{"turb2d", spectral.NewTurb2D},
	{"turbforce", spectral.NewForced},
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

// runSpectralSlab runs one variant at p ranks and returns per-rank
// slab hashes, the max virtual wall, and host seconds.
func runSpectralSlab(cfg spectral.Config, mk func(spectral.Config, *mpi.Comm, *machine.CPU) (*spectral.Turb2D, error),
	p, steps int) ([]string, float64, float64, error) {
	mach := machine.Muses()
	hashes := make([]string, p)
	t0 := time.Now()
	wall, _, err := simnet.Run(p, mach.Net, func(n *simnet.Node) {
		s, err := mk(cfg, mpi.World(n), &mach.CPU)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		hashes[n.Rank] = hashField(s.Field())
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return hashes, slices.Max(wall), time.Since(t0).Seconds(), nil
}

// RunSpectralBench executes the sweep and renders the comparison table.
func RunSpectralBench(cfg SpectralBenchConfig) (*SpectralBenchResult, *report.Table, error) {
	res := &SpectralBenchResult{N: cfg.N, PadM: 3 * cfg.N / 2, Steps: cfg.Steps}
	for _, v := range spectralVariants {
		scfg := spectral.Config{N: cfg.N, Re: 500, Dt: 2e-3, Seed: 33}

		// One-rank physics reference: per-slab hashes of the serial field,
		// so the slab runs compare slab-for-slab.
		ser, err := v.mk(scfg, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: spectral %s: %w", v.name, err)
		}
		t0 := time.Now()
		for i := 0; i < cfg.Steps; i++ {
			ser.Step()
		}
		serialS := time.Since(t0).Seconds()
		field := ser.Field()

		for _, p := range cfg.Procs {
			if p < 1 || cfg.N%p != 0 {
				return nil, nil, fmt.Errorf("bench: spectral: P=%d does not divide N=%d", p, cfg.N)
			}
			nloc := cfg.N / p
			want := make([]string, p)
			for r := 0; r < p; r++ {
				want[r] = hashField(field[r*nloc*cfg.N : (r+1)*nloc*cfg.N])
			}
			hs, wallS, slabS, err := runSpectralSlab(scfg, v.mk, p, cfg.Steps)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: spectral %s P=%d: %w", v.name, p, err)
			}
			for r := 0; r < p; r++ {
				if hs[r] != want[r] {
					return nil, nil, fmt.Errorf(
						"bench: spectral %s P=%d: slab trajectory diverged from the serial reference at rank %d", v.name, p, r)
				}
			}
			flops, bytes := stepCosts(v.name, cfg.N)
			res.Cells = append(res.Cells, SpectralCellResult{
				Workload:              v.name,
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
// spectrum/dissipation stream and its offline aggregation.
func runSpectral(cfg SpectralBenchConfig, w io.Writer) (any, error) {
	if err := cliutil.SpectralFlags(cfg.N, 500, true, 3, 5); err != nil {
		return nil, err
	}
	res, tbl, err := RunSpectralBench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	var buf bytes.Buffer
	s, err := spectral.NewForced(spectral.Config{
		N: cfg.N, Re: 500, Dt: 2e-3, Seed: 33, DiagEvery: 2,
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	s.Trace = engine.NewTracer(&buf)
	loop := engine.Loop{Solver: s, Steps: 8, Trace: s.Trace}
	if _, err := loop.Run(); err != nil {
		return nil, err
	}
	return res, writeTrace(w, &buf, func(events int) string {
		return fmt.Sprintf("Spectral trace: forced 2D turbulence event stream — N=%d, 8 steps, diag every 2 (%d events)",
			cfg.N, events)
	})
}
