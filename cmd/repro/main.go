// Command repro runs the reproduction: every experiment the registry
// in internal/bench declares — the tables and figures of the paper's
// evaluation section plus the repository's own benches — written to
// stdout (or a directory with -outdir). With no arguments every
// experiment runs in order; naming experiments runs just those, and a
// name may be followed by that experiment's own flags:
//
//	repro -quick spectral -procs 4 -n 32 trace
//
// Unknown names print the registered list. -quick selects each
// experiment's budget-limited configuration. -record also writes each
// named experiment's result to its committed baseline, BENCH_*.json in
// the current directory (with no names: every experiment that has one).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"nektar/internal/bench"
	"nektar/internal/cliutil"
	"nektar/internal/farm"
)

func main() {
	farm.MaybeDaemon() // farmbench re-execs this binary as its daemon image
	outdir := flag.String("outdir", "", "write per-experiment files to this directory instead of stdout")
	quick := flag.Bool("quick", false, "run each experiment's budget-limited configuration")
	record := flag.Bool("record", false, "write each experiment's result to BENCH_<baseline>.json in the current directory")
	prof := cliutil.ProfileFlags(flag.CommandLine)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: repro [flags] [experiment [experiment flags] ...]\n\nexperiments (default: all, in order):\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "  %-26s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintf(out, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		for _, e := range bench.Experiments() {
			if !*record || e.Baseline != "" {
				args = append(args, e.Name)
			}
		}
	}
	var host bench.Host
	if *record {
		host = bench.ThisHost()
	}
	if err := prof.Start(); err != nil {
		log.Fatal(err)
	}
	for len(args) > 0 {
		e, err := bench.ExperimentByName(args[0])
		if err != nil {
			log.Fatal(err)
		}
		fs := flag.NewFlagSet(e.Name, flag.ExitOnError)
		_, run := e.Bind(fs, *quick)
		if *record {
			if err := e.Recordable(); err != nil {
				log.Fatal(err)
			}
		}
		fs.Parse(args[1:]) // stops at the next experiment name
		args = fs.Args()

		t0 := time.Now()
		var w io.WriteCloser = os.Stdout
		if *outdir == "" {
			fmt.Printf("\n===== %s =====\n", e.Name)
		} else {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				log.Fatal(err)
			}
			if w, err = os.Create(filepath.Join(*outdir, e.Name+".txt")); err != nil {
				log.Fatal(err)
			}
		}
		result, err := run(w)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		if *outdir != "" {
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if *record {
			path, err := bench.Record(".", e, host, *quick, result)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("%s recorded to %s", e.Name, path)
		}
		log.Printf("%s done in %v", e.Name, time.Since(t0).Round(time.Millisecond))
	}
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
}
