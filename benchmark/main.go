// Command benchmark is the repository's one repeatable benchmark: four
// long single-processor workloads (serial DNS, slab DNS on the simulated
// cluster, ALE gather-scatter, the job farm), each reporting the same
// three end-to-end metrics, and a separate traced run that times calls
// into every layer's public functions. README.md explains the design
// and the numbers behind it.
//
//	go run ./benchmark                       every workload, tracing off
//	go run ./benchmark -workload dns_slab    one workload
//	go run ./benchmark -trace spans.json     the traced run, spans to a file
//	go run ./benchmark -quick                seconds-long smoke sizes
//	go run ./benchmark -aa 5                 A/A check of this build
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"nektar/internal/simnet"
)

// commit is stamped by run.sh (-ldflags -X); go run leaves it unknown.
var commit = "unknown"

// defaultSeed is the seed BENCHMARK.json's numbers were recorded with.
const defaultSeed = 14

// defaultSeconds is BENCHMARK.json's run_seconds: the nominal length of
// a run's timed work at full size (see workloads).
const defaultSeconds = 12

// envelope stamps every output with the host and build that made it.
type envelope struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"` // of the gated cycles
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Storage    string  `json:"storage"`
	Seed       uint64  `json:"seed"`
	Quick      bool    `json:"quick"`
	Seconds    float64 `json:"seconds"`
}

func (e envelope) String() string {
	return fmt.Sprintf("numcpu=%d gomaxprocs=%d go=%s commit=%s storage=%s seed=%d quick=%v seconds=%g",
		e.NumCPU, e.GoMaxProcs, e.GoVersion, e.Commit, e.Storage, e.Seed, e.Quick, e.Seconds)
}

// workloads is the registry, in the order runs execute. The op counts
// give each cycle 1.2 s of timed work on the reference host, except
// that ale_gs, whose steps scatter most, gets 2 s.
func workloads() []*workload {
	return []*workload{
		{
			name: "dns_serial",
			ops:  60, warm: 5, quickOps: 5, quickWarm: 2, traceOps: 100,
			cycle: dnsSerialCycle,
		},
		{
			name: "dns_slab",
			ops:  43, warm: 5, quickOps: 5, quickWarm: 2, traceOps: 80,
			cycle: dnsSlabCycle,
		},
		{
			name: "ale_gs",
			ops:  5, warm: 1, quickOps: 3, quickWarm: 1, traceOps: 6,
			cycle: aleCycle,
		},
		{
			name: "farm_jobs",
			ops:  192, warm: 20, quickOps: 8, quickWarm: 2, traceOps: 600,
			cycle: farmWorkloadCycle(),
		},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// storageRoot picks where the farm keeps its directories: tmpfs when
// there is one, because a disk-backed directory costs 15-45% more per
// job with a 15% run-to-run spread; otherwise a directory inside the
// working tree.
func storageRoot() (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "nektar-benchmark-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "nektar-benchmark-")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Uint64("seed", defaultSeed, "seed of the generated inputs")
		seconds = fs.Float64("seconds", defaultSeconds, "nominal length of a run's timed work; scales the fixed op counts")
		trace   = fs.String("trace", "0", "0: gated run, tracing off; 1: traced per-layer run; any other value: traced run, spans written to that file")
		quick   = fs.Bool("quick", false, "smoke sizes (N=32, P=4, a few ops)")
		aa      = fs.Int("aa", 0, "run K interleaved pairs of full sets of this build and compare them against the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if v := os.Getenv(simnet.SchedulerEnv); v != "" {
		fmt.Fprintf(stderr, "benchmark: environment guard: %s=%q is set and silently overrides the scheduler every workload selects; unset it and run again\n",
			simnet.SchedulerEnv, v)
		return 2
	}
	if *seconds <= 0 || *seconds > 600 {
		fmt.Fprintf(stderr, "benchmark: -seconds %g outside (0, 600]\n", *seconds)
		return 2
	}
	all := workloads()
	selected := all
	if *name != "" {
		selected = nil
		var names []string
		for _, w := range all {
			names = append(names, w.name)
			if w.name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q: the workloads are %s\n", *name, strings.Join(names, ", "))
			return 2
		}
	}
	if *aa > 0 {
		return runAA(*aa, all, *seed, *seconds, *quick, stdout, stderr)
	}

	storage, err := storageRoot()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(storage)
	// The directory may lie outside the working tree, so an interrupted
	// run removes it too.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer close(done)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(storage)
			os.Exit(130)
		case <-done:
		}
	}()
	p := params{seed: *seed, quick: *quick, seconds: *seconds, storage: storage}
	env := envelope{
		NumCPU: runtime.NumCPU(), GoMaxProcs: 1, GoVersion: runtime.Version(), Commit: commit,
		Storage: storage, Seed: *seed, Quick: *quick, Seconds: *seconds,
	}
	fmt.Fprintf(stdout, "env %s\n", env)

	if *trace != "0" {
		// The traced run always covers all four workloads: every per-layer
		// metric is reported whichever workload the caller names.
		return runTracedMain(all, p, env, *trace, stdout, stderr)
	}
	out := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range selected {
		r, err := runGated(w, p)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		printReport(stdout, r)
		printChecks(io.Discard, stderr, r.checks)
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		out.add(prefix, r.attempted, r.failed, r.metrics)
	}
	return out.finish(stdout, stderr)
}

// metricJSON and result are the last line of standard output.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (o *result) add(prefix string, attempted, failed int, ms []metric) {
	o.Attempted += attempted
	o.Failed += failed
	for _, m := range ms {
		o.Metrics[prefix+m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
}

// finish prints the result line and turns failed ops into the exit
// code.
func (o *result) finish(stdout, stderr io.Writer) int {
	o.Correct = o.Failed == 0
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !o.Correct {
		fmt.Fprintf(stderr, "benchmark: %d of %d ops failed\n", o.Failed, o.Attempted)
		return 1
	}
	return 0
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "workload %s ops_attempted=%d ops_failed=%d cycles=%d warmup_ops_per_cycle=%d\n", r.workload, r.attempted, r.failed, len(r.cycles), r.warm)
	printChecks(w, io.Discard, r.checks)
	for i, c := range r.cycles {
		note := ""
		if !c.quiet {
			note = " (set aside: co-tenant episode)"
		}
		fmt.Fprintf(w, "cycle %s/%d as measured: host_speed_factor=%.4f setup_s=%.6g op_ms_p50=%.6g ops_per_s=%.6g%s\n",
			r.workload, i+1, c.speed, c.setup, c.opP50, c.rate, note)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %s/%s %.6g %s\n", r.workload, m.Name, m.Value, m.Unit)
	}
	for _, m := range r.info {
		fmt.Fprintf(w, "info %s/%s %.6g %s%s\n", r.workload, m.Name, m.Value, m.Unit, m.Note)
	}
}

// printChecks lists the verdicts on stdout and repeats the failures on
// stderr, where a caller looking for the reason of a non-zero exit
// reads. It returns the number of failures.
func printChecks(stdout, stderr io.Writer, checks []check) (failures int) {
	for _, ck := range checks {
		verdict := "ok"
		if !ck.ok {
			verdict = "FAILED"
			failures++
			fmt.Fprintf(stderr, "benchmark: check %s FAILED: %s\n", ck.name, ck.detail)
		}
		fmt.Fprintf(stdout, "check %s %s: %s\n", ck.name, verdict, ck.detail)
	}
	return failures
}
