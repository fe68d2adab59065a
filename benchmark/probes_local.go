package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"nektar/internal/blas"
	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/farm"
	"nektar/internal/fft"
	"nektar/internal/spectral"
)

// layers collects the per-layer metrics of a traced run. Every probe
// replays calls into one layer's public functions at the shapes the
// workloads use, wraps each call in a span, and reports the median.
type layers struct {
	p       params
	tr      *tracer
	out     io.Writer
	metrics []metric
	checks  []check
}

func (l *layers) notef(format string, args ...any) {
	fmt.Fprintf(l.out, "note "+format+"\n", args...)
}

func (l *layers) add(name, unit string, value float64) {
	l.metrics = append(l.metrics, metric{Name: name, Unit: unit, Value: value})
}

// spanned times f as one span of a replay op.
func (l *layers) spanned(name string, parent int, op string, f func()) time.Duration {
	id := l.tr.begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.tr.end(id)
	return d
}

// replay runs reps root ops named replay/<what>#i, each a single call
// to f in a span of the given name, and returns the median duration.
func (l *layers) replay(what, name string, reps int, f func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = l.spanned(name, -1, fmt.Sprintf("replay/%s#%d", what, i), f)
	}
	return medianDuration(ds)
}

// allocsPer reports heap objects allocated per call of f.
func allocsPer(reps int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps)
}

// reps scales a probe's repetition count down for quick runs.
func (l *layers) reps(full int) int {
	if l.p.quick {
		return max(3, full/10)
	}
	return full
}

// probeFFT times the batched row transform at the padded grid's shape:
// M rows of length M = 3N/2, the largest single FFT batch of a DNS step.
func (l *layers) probeFFT(shape dnsShape) error {
	m := 3 * shape.n / 2
	plan, err := fft.NewPlan(m)
	if err != nil {
		return err
	}
	x := make([]complex128, m*m)
	for i := range x {
		x[i] = complex(unitFrac(mix64(uint64(i))), 0)
	}
	inverse := false
	call := func() {
		plan.Many(x, m, inverse)
		inverse = !inverse // forward then inverse keeps the values bounded
	}
	call()
	d := l.replay("fft.many", "fft.Plan.Many", l.reps(30), call)
	objects := allocsPer(l.reps(30), call)
	l.add("fft.many384_ns_per_pt", "ns", float64(d.Nanoseconds())/float64(m*m))
	l.add("fft.many384_allocs", "count", objects)
	// Computed from array sizes: a step makes five padded half
	// transforms, each batching N+M rows of length M at 5 M log2 M flops.
	l.add("fft.model_mflop_per_step", "mflop", 5*float64(shape.n+m)*5*float64(m)*math.Log2(float64(m))/1e6)
	return nil
}

// probeSpectralLocal replays one serial DNS step's transforms on a
// benchmark-owned plan (four padded inverses, one padded forward), and
// the local transpose alone.
func (l *layers) probeSpectralLocal(shape dnsShape) error {
	n := shape.n
	plan, err := spectral.NewPlan2D(n, true, nil)
	if err != nil {
		return err
	}
	spec := make([]complex128, n*n)
	phys := make([]float64, plan.M*plan.M)
	var inv, fwd []time.Duration
	for i := 0; i < l.reps(20); i++ {
		op := fmt.Sprintf("replay/dns_serial.transforms#%d", i)
		root := l.tr.begin("replay.step_transforms", -1, op)
		for k := 0; k < 4; k++ {
			inv = append(inv, l.spanned("spectral.Plan2D.InversePad", root, op, func() { plan.InversePad(spec, phys) }))
		}
		fwd = append(fwd, l.spanned("spectral.Plan2D.ForwardPad", root, op, func() { plan.ForwardPad(phys, spec) }))
		l.tr.end(root)
	}
	l.add("spectral.inverse_pad_ms", "ms", millis(medianDuration(inv)))
	l.add("spectral.forward_pad_ms", "ms", millis(medianDuration(fwd)))

	tp, err := spectral.NewTransposer(n, plan.M, nil)
	if err != nil {
		return err
	}
	in, out := make([]complex128, n*plan.M), make([]complex128, n*plan.M)
	d := l.replay("spectral.transpose_local", "spectral.Transposer.Transpose", l.reps(40), func() { tp.Transpose(in, out) })
	l.add("spectral.transpose_local_ms", "ms", millis(d))
	// Computed: five padded half transforms each move the N x M complex
	// matrix through one transpose.
	l.add("spectral.xpose_bytes_per_step", "bytes", 5*float64(plan.PadTransposeBytes()))
	return nil
}

// probeBLAS times the two dense kernels at the mean shapes of the ALE
// window's recorded counts.
func (l *layers) probeBLAS(c *blas.Counts) {
	side := func(k blas.Kernel, root float64) int {
		op := c.Ops[k]
		if op.Calls == 0 {
			return 27
		}
		return max(2, int(math.Round(math.Pow(float64(op.N)/float64(op.Calls), 1/root))))
	}
	nv := side(blas.KernelDgemv, 2)
	a, x, y := make([]float64, nv*nv), make([]float64, nv), make([]float64, nv)
	for i := range a {
		a[i] = unitFrac(mix64(uint64(i)))
	}
	for i := range x {
		x[i] = 1
	}
	const batch = 2000
	d := l.replay("blas.dgemv", "blas.Dgemv x2000", l.reps(20), func() {
		for i := 0; i < batch; i++ {
			blas.Dgemv(blas.NoTrans, nv, nv, 1, a, nv, x, 1, 0, y, 1)
		}
	})
	l.add("blas.dgemv_mflops", "mflop/s", batch*2*float64(nv*nv)/d.Seconds()/1e6)

	nm := side(blas.KernelDgemm, 3)
	b, cm := make([]float64, nm*nm), make([]float64, nm*nm)
	am := a
	if len(am) < nm*nm {
		am = make([]float64, nm*nm)
	}
	d = l.replay("blas.dgemm", "blas.Dgemm x200", l.reps(20), func() {
		for i := 0; i < batch/10; i++ {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, nm, nm, nm, 1, am, nm, b, nm, 0, cm, nm)
		}
	})
	l.add("blas.dgemm_mflops", "mflop/s", batch/10*2*float64(nm*nm*nm)/d.Seconds()/1e6)
	l.notef("blas shapes from the ALE window's counts: dgemv %dx%d, dgemm %dx%dx%d", nv, nv, nm, nm, nm)
}

// probeEngine measures what engine.Loop adds per step over a bare Step
// loop on the farm's spin solver, and one checkpoint marshal.
func (l *layers) probeEngine(sh farmShape) error {
	steps := 50000
	if l.p.quick {
		steps = 500
	}
	bare := func(seed int64) time.Duration {
		s := farm.NewSpinSolver(seed, sh.spec.Work)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			s.Step()
		}
		return time.Since(t0)
	}
	var diffs []float64
	for i := 0; i < 6; i++ {
		loop := engine.Loop{Solver: farm.NewSpinSolver(int64(i), sh.spec.Work), Steps: steps,
			Watchdog: engine.Watchdog{MaxAbs: 1e12}}
		var err error
		var bareD time.Duration
		// Alternate which side runs first, so neither always gets the
		// warmer processor.
		if i%2 == 0 {
			bareD = bare(int64(i))
		}
		loopD := l.spanned("engine.Loop.Run", -1, fmt.Sprintf("replay/engine.loop#%d", i), func() { _, err = loop.Run() })
		if i%2 == 1 {
			bareD = bare(int64(i))
		}
		if err != nil {
			return err
		}
		diffs = append(diffs, micros(loopD-bareD)/float64(steps))
	}
	l.add("engine.loop_overhead_us", "us", median(diffs))

	s := farm.NewSpinSolver(1, sh.spec.Work)
	var err error
	d := l.replay("engine.marshal", "engine.Marshal", l.reps(500), func() { _, err = engine.Marshal(s) })
	if err != nil {
		return err
	}
	l.add("engine.ckpt_marshal_us_spin", "us", micros(d))
	return nil
}

// tracedStore is the benchmark-owned ckpt.Store decorator: Put and Open
// become spans under the current op.
type tracedStore struct {
	ckpt.Store
	tr     *tracer
	parent int
	op     string
	puts   []time.Duration
}

func (s *tracedStore) Put(m ckpt.Meta, state []byte) (ckpt.Stats, error) {
	id := s.tr.begin("ckpt.Store.Put", s.parent, s.op)
	t0 := time.Now()
	st, err := s.Store.Put(m, state)
	s.puts = append(s.puts, time.Since(t0))
	s.tr.end(id)
	return st, err
}

func (s *tracedStore) Open(step, rank int) ([]byte, ckpt.Meta, error) {
	id := s.tr.begin("ckpt.Store.Open", s.parent, s.op)
	defer s.tr.end(id)
	return s.Store.Open(step, rank)
}

// probeCkpt replays what a farm worker does for one spin job — the
// engine loop over a checkpointing sink on the workload's storage —
// with the solver and the store decorated, then times record encoding
// on a DNS-sized state and the recovery lookup.
func (l *layers) probeCkpt(sh farmShape, shape dnsShape) error {
	dir, err := ckpt.NewDirStore(filepath.Join(l.p.storage, "probe-ckpt"))
	if err != nil {
		return err
	}
	store := &tracedStore{Store: dir, tr: l.tr}
	var latest []time.Duration
	for i := 0; i < l.reps(60); i++ {
		op := fmt.Sprintf("replay/farm.job_inprocess#%d", i)
		root := l.tr.begin("replay.job", -1, op)
		store.parent, store.op = root, op
		solver := &tracedSolver{Solver: farm.NewSpinSolver(int64(i), sh.spec.Work), tr: l.tr, parent: root, op: op}
		loop := engine.Loop{
			Solver: solver, Steps: sh.spec.Steps, CheckpointEvery: sh.spec.CkptEvery,
			Sink:     ckpt.NewSyncWriter(store, ckpt.WriterConfig{Kind: sh.spec.Workload, Retention: ckpt.Retention{KeepLast: 2}}),
			Watchdog: engine.Watchdog{MaxAbs: 1e12},
		}
		_, err := loop.Run()
		if err == nil {
			latest = append(latest, l.spanned("ckpt.Latest", root, op, func() { _, _, err = ckpt.Latest(store, 1) }))
		}
		l.tr.end(root)
		if err != nil {
			return err
		}
		for step := sh.spec.CkptEvery; step <= sh.spec.Steps; step += sh.spec.CkptEvery {
			if err := dir.Delete(step); err != nil {
				return err
			}
		}
	}
	l.add("ckpt.put_us_spin", "us", micros(medianDuration(store.puts)))
	l.add("ckpt.latest_us", "us", micros(medianDuration(latest)))

	big, err := spectral.NewTurb2D(dnsConfig(shape.n, l.p.seed), nil, nil)
	if err != nil {
		return err
	}
	state, err := engine.Marshal(big)
	if err != nil {
		return err
	}
	d := l.replay("ckpt.encode", "ckpt.EncodeRecord", l.reps(10), func() {
		_, err = ckpt.EncodeRecord(ckpt.Meta{Kind: "turb2d", Step: 1}, state)
	})
	if err != nil {
		return err
	}
	l.add("ckpt.encode_mb_s", "MB/s", float64(len(state))/1e6/d.Seconds())
	return nil
}
