package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"nektar/internal/simnet"
)

// exactMetrics are the per-layer metrics that are counts of a
// deterministic schedule or computed from array sizes: they must repeat
// bit for bit between two runs with the same seed, so a change that
// moves one has changed the program's work, not the weather.
var exactMetrics = map[string]bool{
	"fft.model_mflop_per_step":        true,
	"spectral.xpose_bytes_per_step":   true,
	"spectral.step_allocs_p16":        true,
	"spectral.step_alloc_kb_p16":      true,
	"simnet.vwall_ms_per_step_slab":   true,
	"simnet.vwall_ms_per_step_ale":    true,
	"simnet.eager_msgs_per_step_slab": true,
	"simnet.eager_msgs_per_step_ale":  true,
	"gs.mean_pairwise_len":            true,
	"core.nsale_mflop_per_step":       true,
	"core.nsale_mb_per_step":          true,
	"core.nsale_flop_per_byte":        true,
	"farm.journal_entries_per_job":    true,
}

// traceWindow is a workload's one window in the traced run: traceOps
// ops, about half of them traced.
func traceWindow(w *workload, p params) (warm, ops int) {
	if p.quick {
		return w.quickWarm, w.quickOps
	}
	return w.warm, w.traceOps
}

// shortRun is a few steps of a cluster workload outside any gated
// cycle, for the exact counts and the scheduler ratios.
func shortRun(name string, p params, mod func(*clusterRun)) (*clusterResult, error) {
	var run clusterRun
	switch name {
	case "dns_slab":
		shape := dnsShapeFor(p)
		run = clusterRun{p: shape.p, mk: slabSolver(dnsConfig(shape.n, p.seed)), warm: 2, timed: 5}
	case "ale_gs":
		sh := aleShapeFor(p)
		// One step: under the parallel scheduler this cell takes 7-10 s a step.
		run = clusterRun{p: sh.p, mk: sh.mk(p.seed), warm: 0, timed: 1}
	default:
		return nil, fmt.Errorf("%s does not run on the simulated cluster", name)
	}
	if p.quick {
		run.warm, run.timed = 0, 1
	}
	run.label, run.sched = name, simnet.SchedSerial
	mod(&run)
	return run.run()
}

// runTracedMain is the traced run: every workload gets a short window
// with about half its ops traced, then every layer is probed from this
// directory's files. It prints every per-layer metric, checks that the
// spans form a tree, and writes them out if a file was named.
func runTracedMain(all []*workload, p params, env envelope, path string, stdout, stderr io.Writer) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := newTracer()
	l := &layers{p: p, tr: tr, out: stdout}
	out := result{Metrics: map[string]metricJSON{}}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: traced run: %v\n", err)
		return 1
	}

	windows := map[string]*cycleResult{}
	untracedP50 := map[string]float64{}
	for _, w := range all {
		warm, ops := traceWindow(w, p)
		runtime.GC()
		t0 := time.Now()
		c, err := w.cycle(p, cycleSpec{warm: warm, timed: ops, verify: true, tr: tr})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		l.notef("%s window took %.2f s", w.name, time.Since(t0).Seconds())
		failed := failedOps(c.checks, c.failed, ops)
		l.checks = append(l.checks, c.checks...)
		out.Attempted += ops
		out.Failed += failed
		plain, traced := splitTraced(c.opMS)
		if len(plain) == 0 || len(traced) == 0 {
			return fail(fmt.Errorf("%s: a window of %d ops leaves %d untraced and %d traced; both sides need one", w.name, ops, len(plain), len(traced)))
		}
		without, with := median(plain), median(traced)
		windows[w.name], untracedP50[w.name] = c, without
		fmt.Fprintf(stdout, "window %s ops_attempted=%d ops_failed=%d untraced_op_ms_p50=%.6g traced_op_ms_p50=%.6g\n",
			w.name, ops, failed, without, with)
		l.add("trace.overhead_frac."+w.name, "ratio", (with-without)/without)
	}

	shape, ash, fsh := dnsShapeFor(p), aleShapeFor(p), farmShapeFor(p)
	slab, ale := windows["dns_slab"].cluster, windows["ale_gs"].cluster
	l.add("spectral.slab_over_serial", "ratio", untracedP50["dns_slab"]/untracedP50["dns_serial"])
	l.add("simnet.vwall_ms_per_step_slab", "virtual_ms", 1e3*slab.vwallPerStep)
	l.add("simnet.vwall_ms_per_step_ale", "virtual_ms", 1e3*ale.vwallPerStep)
	aleOps := len(windows["ale_gs"].opMS)
	flops, bytes := float64(ale.counts.TotalFlops()), float64(ale.counts.TotalBytes())
	l.add("core.nsale_mflop_per_step", "mflop", flops/1e6/float64(aleOps))
	l.add("core.nsale_mb_per_step", "MB", bytes/1e6/float64(aleOps))
	l.add("core.nsale_flop_per_byte", "flop/B", flops/bytes)
	l.add("core.nsale_allocs_per_step", "count", ale.mem.allocs)
	l.add("core.nsale_alloc_mb_per_step", "MB", ale.mem.bytes/1e6)
	l.add("core.nsale_gc_cpu_frac", "ratio", ale.mem.gcCPUFrac)

	// Exact counts of the slab step: allocations with the collector off
	// (two collections first empty the simulator's message pool, so the
	// window starts from a defined state), messages under the counting
	// injector.
	t0 := time.Now()
	runtime.GC()
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	cr, err := shortRun("dns_slab", p, func(r *clusterRun) { r.memWindow = true })
	debug.SetGCPercent(gc)
	if err != nil {
		return fail(err)
	}
	l.add("spectral.step_allocs_p16", "count", cr.mem.allocs)
	l.add("spectral.step_alloc_kb_p16", "KB", cr.mem.bytes/1e3)
	for _, cell := range []struct{ name, suffix string }{{"dns_slab", "slab"}, {"ale_gs", "ale"}} {
		name, suffix := cell.name, cell.suffix
		cr, err := shortRun(name, p, func(r *clusterRun) { r.countMsgs = true })
		if err != nil {
			return fail(err)
		}
		l.add("simnet.eager_msgs_per_step_"+suffix, "count", float64(cr.eagerMsgs)/float64(len(cr.opMS)))

		// Ungated: the host-parallel scheduler on every core this host
		// has, against the serial scheduler on one.
		runtime.GOMAXPROCS(runtime.NumCPU())
		par, err := shortRun(name, p, func(r *clusterRun) {
			r.sched = simnet.SchedParallel
			if name == "dns_slab" && !p.quick {
				r.timed = 10
			}
		})
		runtime.GOMAXPROCS(1)
		if err != nil {
			return fail(err)
		}
		l.add("simnet.par_over_serial_"+suffix, "ratio", median(par.opMS)/untracedP50[name])
	}

	l.notef("exact counts and scheduler ratios took %.2f s", time.Since(t0).Seconds())

	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"fft", func() error { return l.probeFFT(shape) }},
		{"spectral", func() error { return l.probeSpectralLocal(shape) }},
		{"slab layers", func() error { return l.probeSlabLayers(shape) }},
		{"ale layers", func() error { return l.probeALELayers(ash) }},
		{"simnet", l.probeSimnet},
		{"blas", func() error { l.probeBLAS(&ale.counts); return nil }},
		{"engine", func() error { return l.probeEngine(fsh) }},
		{"ckpt", func() error { return l.probeCkpt(fsh, shape) }},
		{"farm", func() error { return l.probeFarm(fsh, shape, windows["farm_jobs"]) }},
	} {
		t0 := time.Now()
		if err := probe.run(); err != nil {
			return fail(fmt.Errorf("%s probe: %w", probe.name, err))
		}
		l.notef("%s probe took %.2f s", probe.name, time.Since(t0).Seconds())
	}

	totals, err := analyse(tr.spans)
	l.checks = append(l.checks, checkf("trace.spans_form_a_tree", err == nil, "%d spans: %v", len(tr.spans), err))
	if printChecks(stdout, stderr, l.checks) > 0 && out.Failed == 0 {
		out.Failed = 1 // a failed layer check fails the run even when every window op passed
	}
	for _, t := range totals {
		fmt.Fprintf(stdout, "span %s count=%d total_ms=%.3f self_ms=%.3f\n", t.Name, t.Count, t.TotalUS/1e3, t.SelfUS/1e3)
	}
	sort.Slice(l.metrics, func(a, b int) bool { return l.metrics[a].Name < l.metrics[b].Name })
	for _, m := range l.metrics {
		tag := ""
		if exactMetrics[m.Name] {
			tag = " exact"
		}
		fmt.Fprintf(stdout, "metric %s %.6g %s%s\n", m.Name, m.Value, m.Unit, tag)
	}
	out.add("", 0, 0, l.metrics)
	if path != "1" {
		if err := writeTrace(path, traceFile{Env: env, Totals: totals, Spans: tr.spans}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace %d spans written to %s\n", len(tr.spans), path)
	}
	return out.finish(stdout, stderr)
}
