// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation, producing report.Table /
// report.Figure values from the machine models, the simulated cluster
// and the real solvers, and the registry (registry.go) that declares
// each of them once for cmd/repro to run and record.
//
// Absolute numbers come from calibrated models (see package machine);
// the reproduction targets the paper's shapes: who wins, where the
// cache cliffs fall, where Ethernet saturates, and how the stage
// breakdowns shift between architectures.
package bench

import (
	"flag"
	"fmt"
	"io"
	"time"

	"nektar/internal/blas"
	"nektar/internal/machine"
	"nektar/internal/netpipe"
	"nektar/internal/report"
	"nektar/internal/simnet"
)

// kernelMachines unions the paper's left plots (SP2-Thin2, SP2-Silver,
// Muses, AP3000, Onyx2) and right plots (T3E, P2SC, Muses).
var kernelMachines = []string{"SP2-Thin2", "SP2-Silver", "Muses", "AP3000", "Onyx2", "T3E", "P2SC"}

// kernelSizes sweeps 100 B .. 1 MB like the paper's x axes.
func kernelSizes() []float64 {
	var out []float64
	for s := 128.0; s <= 1<<20; s *= 2 {
		out = append(out, s, s+s/2)
	}
	return out
}

// intRange returns lo, lo+by, ... up to hi.
func intRange(lo, hi, by int) []float64 {
	var out []float64
	for n := lo; n <= hi; n += by {
		out = append(out, float64(n))
	}
	return out
}

// kernelFigure plots y(cpu, x) over xs for every modeled machine.
func kernelFigure(title, xlabel, ylabel string, xs []float64, y func(cpu *machine.CPU, x float64) float64) *report.Figure {
	fig := report.NewFigure(title, xlabel, ylabel)
	for _, name := range kernelMachines {
		m, _ := machine.ByName(name)
		s := fig.Add(name)
		for _, x := range xs {
			s.Point(x, y(&m.CPU, x))
		}
	}
	return fig
}

// Fig1Dcopy regenerates Figure 1: dcopy speed in MB/s against array
// size for every modeled machine.
func Fig1Dcopy() *report.Figure {
	return kernelFigure("Figure 1: dcopy speed (MB/s) vs array size (bytes)", "bytes", "MB/s", kernelSizes(),
		func(cpu *machine.CPU, sz float64) float64 { return cpu.DcopyMBs(int64(sz)) })
}

// Fig2Daxpy regenerates Figure 2 (daxpy MFlop/s).
func Fig2Daxpy() *report.Figure { return level1Figure("Figure 2: daxpy", blas.KernelDaxpy) }

// Fig3Ddot regenerates Figure 3 (ddot MFlop/s).
func Fig3Ddot() *report.Figure { return level1Figure("Figure 3: ddot", blas.KernelDdot) }

func level1Figure(title string, k blas.Kernel) *report.Figure {
	return kernelFigure(title+" speed (MFlop/s) vs array size (bytes)", "bytes", "MFlop/s", kernelSizes(),
		func(cpu *machine.CPU, sz float64) float64 { return cpu.Level1MFlops(k, int64(sz)) })
}

// Fig4Dgemv regenerates Figure 4: dgemv MFlop/s against matrix
// dimension (the paper labels the axis in bytes of one row).
func Fig4Dgemv() *report.Figure {
	return kernelFigure("Figure 4: dgemv speed (MFlop/s) vs matrix dimension n", "n", "MFlop/s", intRange(8, 1200, 24),
		func(cpu *machine.CPU, n float64) float64 { return cpu.DgemvMFlops(int(n)) })
}

func dgemmFigure(title string, ns []float64) *report.Figure {
	return kernelFigure(title, "n", "MFlop/s", ns,
		func(cpu *machine.CPU, n float64) float64 { return cpu.DgemmMFlops(int(n)) })
}

// Fig5Dgemm regenerates Figure 5: dgemm MFlop/s for n up to 600.
func Fig5Dgemm() *report.Figure {
	return dgemmFigure("Figure 5: dgemm speed (MFlop/s) vs matrix dimension n", intRange(4, 600, 8))
}

// Fig6DgemmSmall regenerates Figure 6: the small-matrix dgemm regime
// (n = 2..20) that dominates the spectral/hp elemental work.
func Fig6DgemmSmall() *report.Figure {
	return dgemmFigure("Figure 6: dgemm speed (MFlop/s), small matrices", intRange(2, 20, 1))
}

// KernelsConfig selects what the Figures 1-6 experiment reports.
type KernelsConfig struct {
	// Native measures this repository's pure-Go BLAS on the host —
	// which then plays the paper's "PC" role — instead of pricing the
	// kernels on the machine models.
	Native bool
}

func kernelsFlags(fs *flag.FlagSet, c *KernelsConfig) {
	fs.BoolVar(&c.Native, "native", c.Native, "measure the host's own BLAS instead of the machine models")
}

func runKernels(cfg KernelsConfig, w io.Writer) (any, error) {
	if cfg.Native {
		nativeKernels(w)
		return nil, nil
	}
	for _, fig := range []func() *report.Figure{
		Fig1Dcopy, Fig2Daxpy, Fig3Ddot, Fig4Dgemv, Fig5Dgemm, Fig6DgemmSmall,
	} {
		fig().Write(w)
	}
	return nil, nil
}

// hostSeconds times f on the host: repetitions quadruple until one
// batch lasts 20 ms, and the mean of that batch is returned.
func hostSeconds(f func()) float64 {
	for reps := 1; ; reps *= 4 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if d := time.Since(t0); d >= 20*time.Millisecond {
			return d.Seconds() / float64(reps)
		}
	}
}

// nativeKernels times the repository's own Level 1 BLAS and dgemm
// against working-set size.
func nativeKernels(w io.Writer) {
	fmt.Fprintf(w, "# native host measurements (this machine plays the paper's PC role)\n")
	for _, bytes := range []int{512, 2048, 8192, 32768, 131072, 524288, 2097152} {
		n := bytes / 8
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) + 0.5
		}
		t := hostSeconds(func() { blas.Dcopy(n, x, 1, y, 1) })
		fmt.Fprintf(w, "dcopy %8d bytes: %8.1f MB/s\n", bytes, float64(16*n)/t/1e6)
		t = hostSeconds(func() { blas.Daxpy(n, 1.0001, x, 1, y, 1) })
		fmt.Fprintf(w, "daxpy %8d bytes: %8.1f MFlop/s\n", bytes, float64(2*n)/t/1e6)
		t = hostSeconds(func() { _ = blas.Ddot(n, x, 1, y, 1) })
		fmt.Fprintf(w, "ddot  %8d bytes: %8.1f MFlop/s\n", bytes, float64(2*n)/t/1e6)
	}
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		for i := range a {
			a[i] = float64(i%5) + 0.25
			b[i] = float64(i%3) + 0.75
		}
		t := hostSeconds(func() {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		})
		fmt.Fprintf(w, "dgemm n=%4d: %8.1f MFlop/s\n", n, float64(2*n*n*n)/t/1e6)
	}
}

// netMachines are the network series of Figure 7/8.
var netMachines = []string{
	"AP3000", "SP2-Thin2", "SP2-Silver", "Muses", "Muses-LAM", "Muses-MVIA",
	"Onyx2", "RoadRunner-eth", "RoadRunner-myr", "T3E",
}

// Fig7PingPong regenerates Figure 7: NetPIPE one-way latency (left)
// and bandwidth (right) on every simulated network.
func Fig7PingPong() (lat, bw *report.Figure, err error) {
	lat = report.NewFigure("Figure 7 (left): ping-pong one-way latency", "bytes", "latency (us)")
	bw = report.NewFigure("Figure 7 (right): ping-pong one-way bandwidth", "bytes", "MB/s")
	plot := func(label string, m *machine.Machine, run func(*simnet.Model, []int, int) ([]netpipe.Point, error)) error {
		pts, err := run(m.Net, netpipe.Sizes(8<<20), 3)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		ls := lat.Add(label)
		bs := bw.Add(label)
		for _, p := range pts {
			if p.Bytes <= 640 {
				ls.Point(float64(p.Bytes), p.LatencyUS)
			}
			bs.Point(float64(p.Bytes), p.MBs)
		}
		return nil
	}
	for _, name := range netMachines {
		m, err := machine.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		if m.Net.RanksPerNode <= 1 {
			err = plot(name, m, netpipe.Run)
		} else if err = plot(name+"-internode", m, netpipe.Run); err == nil {
			// The paper plots intra and internode separately for the
			// SMP-node machines (RoadRunner, SP2-Silver).
			err = plot(name+"-intranode", m, netpipe.RunIntranode)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return lat, bw, nil
}

// Fig8Alltoall regenerates Figure 8: MPI_Alltoall average bandwidth
// for p processors (the paper shows p = 4 and p = 8).
func Fig8Alltoall(p int) (*report.Figure, error) {
	fig := report.NewFigure(
		fmt.Sprintf("Figure 8: MPI_Alltoall average bandwidth, %d processors", p),
		"message bytes", "MB/s")
	var sizes []int
	for s := 8; s <= 4<<20; s *= 4 {
		sizes = append(sizes, s)
	}
	for _, name := range netMachines {
		if name == "Muses-LAM" || name == "Onyx2" {
			continue // the paper's Figure 8 omits these
		}
		m, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		if p > 4 && (name == "Muses") {
			continue // Muses has 4 nodes
		}
		pts, err := netpipe.RunAlltoall(m.Net, p, sizes, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s := fig.Add(name)
		for _, pt := range pts {
			s.Point(float64(pt.Bytes), pt.MBs)
		}
	}
	return fig, nil
}

func runPingPong(_ struct{}, w io.Writer) (any, error) {
	lat, bw, err := Fig7PingPong()
	if err != nil {
		return nil, err
	}
	lat.Write(w)
	bw.Write(w)
	return nil, nil
}

// runAlltoall renders Figure 8 once per processor count (the paper
// shows 4 and 8).
func runAlltoall(procs []int, w io.Writer) (any, error) {
	for _, p := range procs {
		fig, err := Fig8Alltoall(p)
		if err != nil {
			return nil, err
		}
		fig.Write(w)
	}
	return nil, nil
}
