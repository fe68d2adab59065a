package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"nektar/internal/fft"
	"nektar/internal/report"
)

// Fftbench: the FFT kernel behind the spectral hot path, on the host.
// For each grid size N it times one batched row transform at length N
// (the unpadded pipeline's rows) and at M = 3N/2 (the de-aliasing
// grid's), and the padded half-transform those rows add up to: N + M
// rows of length M.

// FftbenchConfig parametrizes the microbenchmark.
type FftbenchConfig struct {
	Sizes []int // grid sizes N (3N/2 must be integral)
	Rows  int   // rows per batched Many call
	Reps  int   // forward+inverse round trips per measurement
}

// PaperFftbench covers the grid sizes the spectral benches run.
var PaperFftbench = FftbenchConfig{Sizes: []int{64, 128, 256, 512, 1024}, Rows: 64, Reps: 200}

// QuickFftbench is the smoke-test variant.
var QuickFftbench = FftbenchConfig{Sizes: []int{16, 32, 64}, Rows: 16, Reps: 20}

// fftRowSeconds returns host seconds per single row transform of
// length n: rows batched per Many call, reps forward+inverse round
// trips (the round trip keeps magnitudes bounded across reps) over a
// deterministic bounded signal.
func fftRowSeconds(n, rows, reps int) (float64, error) {
	p, err := fft.NewPlan(n)
	if err != nil {
		return 0, err
	}
	x := make([]complex128, rows*n)
	for i := range x {
		t := float64(i)
		x[i] = complex(math.Sin(0.7*t+0.3), math.Cos(1.3*t))
	}
	p.Many(x, rows, false) // warm the plan before timing
	p.Many(x, rows, true)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		p.Many(x, rows, false)
		p.Many(x, rows, true)
	}
	return time.Since(t0).Seconds() / float64(2*reps*rows), nil
}

func runFftbench(cfg FftbenchConfig, w io.Writer) (any, error) {
	tbl := report.NewTable(
		fmt.Sprintf("FFT kernel: mixed-radix Stockham rows on the host (%d rows/batch, %d round trips)", cfg.Rows, cfg.Reps),
		"N", "ns/row at N", "M = 3N/2", "ns/row at M", "padded half-transform us")
	for _, n := range cfg.Sizes {
		m := 3 * n / 2
		tn, err := fftRowSeconds(n, cfg.Rows, cfg.Reps)
		if err != nil {
			return nil, err
		}
		tm, err := fftRowSeconds(m, cfg.Rows, cfg.Reps)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", tn*1e9),
			fmt.Sprintf("%d", m), fmt.Sprintf("%.0f", tm*1e9),
			fmt.Sprintf("%.1f", float64(n+m)*tm*1e6))
	}
	tbl.Write(w)
	return nil, nil
}
