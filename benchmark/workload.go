package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// params are the inputs of a run. The seed reaches the program only as
// generated inputs: initial-field phases, the ALE inflow perturbation,
// farm job seeds.
type params struct {
	seed    uint64
	quick   bool
	seconds float64 // nominal length of the timed work; it scales op counts, never a duration
	storage string  // root under which the farm keeps its directories
}

// check is one correctness verdict, computed outside the timed ops.
type check struct {
	name   string
	ok     bool
	detail string
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// cycleSpec asks for one cycle of a workload: build the system from
// scratch, run warm untimed ops and timed timed ones (none of either
// when timed is 0), check the outputs, tear everything down.
type cycleSpec struct {
	warm, timed int
	// verify adds the comparisons against an independent reference run
	// (a serial DNS, a one-rank ALE run); the cheap checks run always.
	verify bool
	speed  *hostSpeed // sampled between timed ops; nil in traced runs
	tr     *tracer
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	setup  time.Duration
	opMS   []float64 // host milliseconds of each timed op
	rate   float64   // timed ops per host second over the cycle
	failed int       // timed ops that failed on their own (a farm job that was lost or wrong)
	checks []check
	// digest covers the state the cycle ended in. Every cycle of a run
	// does the same work on the same inputs, so the digests must agree.
	digest string

	cluster *clusterResult // simulated-cluster workloads only
	farm    *farmTimes     // farm_jobs only
}

// serialRate is the op rate of a window whose ops ran back to back on
// one goroutine: the clock reads and host-speed samples between two
// ops are the benchmark's own and stay out of it.
func serialRate(opMS []float64) float64 {
	total := 0.0
	for _, v := range opMS {
		total += v
	}
	return 1e3 * float64(len(opMS)) / total
}

// failedOps counts the failed ops among ops: those that failed on their
// own, or every one of them when a whole-run check failed.
func failedOps(checks []check, failed, ops int) int {
	for _, ck := range checks {
		if !ck.ok {
			return ops
		}
	}
	return failed
}

// workload is one benchmark cell. An op is one solver step or one farm
// job. A gated run is a fixed number of identical cycles, each a fixed
// number of ops on a system built from scratch: every cycle does the
// same work from the same state, so what separates two cycles is the
// host, never the program — ALE steps get slower as a run's heap grows
// and a farm job's cost follows the size of the journal, and a median
// across unlike stretches of one long window would pick a different
// stretch each run.
type workload struct {
	name string

	// ops is the timed ops of a cycle at the default -seconds (the count
	// scales with the seconds asked for), warm its untimed warm-up ops;
	// quickOps and quickWarm are the counts of a -quick run's cycles.
	ops       int
	warm      int
	quickOps  int
	quickWarm int
	// traceOps is the length of the one window a traced run gives this
	// workload; about half of its ops are traced.
	traceOps int

	cycle func(p params, c cycleSpec) (*cycleResult, error)
}

// gatedCycles is the number of timed cycles of a gated run, after the
// discarded first one: the ten blocks whose median rate is ops_per_s.
const gatedCycles = 10

// counts fixes a gated run's shape: its timed cycles and the warm-up
// and timed ops of each.
func (w *workload) counts(p params) (cycles, warm, timed int) {
	if p.quick {
		return 2, w.quickWarm, w.quickOps
	}
	timed = int(math.Round(float64(w.ops) * p.seconds / defaultSeconds))
	return gatedCycles, w.warm, max(timed, 1)
}

// cycleStat is what one timed cycle contributes to the metrics, as
// measured.
type cycleStat struct {
	speed float64 // the host's speed factor over the cycle (see hostSpeed)
	setup float64 // seconds
	opP50 float64 // median op, milliseconds
	rate  float64 // ops per second
	quiet bool    // not in a co-tenant episode (see quietBand)
}

// quietBand separates the two ways a shared host slows a process down.
// Its speed drifts by 5-10% from minute to minute, the same for all
// code; dividing by the speed factor takes that out. And for seconds at
// a time a co-tenant on the sibling hardware thread slows arithmetic by
// 1.5x and memory-bound or system-call-bound code by less, so no one
// factor fits; a cycle whose factor is more than quietBand times the
// run's best sat in such an episode and is set aside.
const quietBand = 1.10

// report is everything one gated run of one workload prints.
type report struct {
	workload  string
	attempted int
	failed    int
	warm      int
	cycles    []cycleStat
	metrics   []metric // the gated end-to-end metrics
	info      []metric // printed for the reader, not gated
	checks    []check
}

// runGated measures one workload with tracing off: one processor, the
// serial simulator scheduler (set by each workload), fixed work. The
// first cycle is discarded for timing — it pays for first-touch page
// faults and lazy initialisation — and is the one that carries the
// reference comparisons; the digests tie the timed cycles to it.
//
// Each metric is the median over the quiet cycles of the cycle's value
// divided by the cycle's speed factor, so it reads in milliseconds of
// the reference host speed.
func runGated(w *workload, p params) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycles, warm, timed := w.counts(p)
	speed := &hostSpeed{}
	r := &report{workload: w.name, attempted: cycles * timed, warm: warm}
	var opMS []float64
	failed, digest := 0, ""
	reported := map[string]int{} // check name -> index in r.checks
	for i := 0; i <= cycles; i++ {
		runtime.GC()
		c, err := w.cycle(p, cycleSpec{warm: warm, timed: timed, verify: i == 0, speed: speed})
		if err != nil {
			return nil, fmt.Errorf("%s: cycle %d: %w", w.name, i, err)
		}
		if i == 0 {
			digest = c.digest
		}
		if digest != "" {
			c.checks = append(c.checks, checkf(w.name+".cycles_bit_identical", c.digest == digest,
				"cycle %d of %d ended in state %.12s, cycle 0 in %.12s (same inputs, so they must agree)", i, cycles, c.digest, digest))
		}
		// Each check is reported once: its first failure, or else its
		// latest verdict.
		for _, ck := range c.checks {
			if j, seen := reported[ck.name]; !seen {
				reported[ck.name] = len(r.checks)
				r.checks = append(r.checks, ck)
			} else if r.checks[j].ok {
				r.checks[j] = ck
			}
		}
		factor := speed.take()
		if i == 0 {
			continue
		}
		failed += c.failed
		opMS = append(opMS, c.opMS...)
		r.cycles = append(r.cycles, cycleStat{speed: factor, setup: c.setup.Seconds(), opP50: median(c.opMS), rate: c.rate})
	}
	r.failed = failedOps(r.checks, failed, r.attempted)

	best := math.Inf(1)
	for _, c := range r.cycles {
		best = min(best, c.speed)
	}
	var speeds, setups, ops, rates []float64
	for i := range r.cycles {
		c := &r.cycles[i]
		if c.quiet = c.speed <= quietBand*best; !c.quiet {
			continue
		}
		speeds = append(speeds, c.speed)
		setups = append(setups, c.setup/c.speed)
		ops = append(ops, c.opP50/c.speed)
		rates = append(rates, c.rate*c.speed)
	}
	r.metrics = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups)},
		{Name: "op_ms_p50", Unit: "ms", Value: median(ops)},
		{Name: "ops_per_s", Unit: "1/s", Value: median(rates)},
	}
	pct, hi := highPercentile(opMS)
	r.info = []metric{
		{Name: "op_ms_hi", Unit: "ms", Value: hi / median(speeds), Note: fmt.Sprintf(" (p%.1f of %d ops in all cycles)", pct, len(opMS))},
		{Name: "host_speed_factor", Unit: "ratio", Value: median(speeds), Note: " (median over the quiet cycles)"},
		{Name: "quiet_cycles", Unit: "count", Value: float64(len(speeds)), Note: fmt.Sprintf(" (of %d; %d ops and one set-up each)", len(r.cycles), timed)},
	}
	return r, nil
}
