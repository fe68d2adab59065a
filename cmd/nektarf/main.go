// Command nektarf regenerates the paper's Table 2 (Nektar-F
// CPU/wall-clock per step across machines and processor counts) and
// Figures 13-14 (per-stage CPU vs wall-clock breakdowns).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nektar/internal/bench"
)

func main() {
	cfg := bench.PaperFourier
	flag.IntVar(&cfg.Steps, "steps", cfg.Steps, "measured steps")
	stages := flag.Bool("stages", false, "print Figures 13-14 stage breakdowns")
	open := cfg.Sweep.Flags(flag.CommandLine)
	flag.Parse()

	closeTrace, err := open()
	if err != nil {
		log.Fatal(err)
	}
	defer closeTrace()
	res, err := bench.RunFourier(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench.Table2(res, cfg.Procs, cfg.Machines).Write(os.Stdout)
	if *stages {
		fmt.Print(bench.Figs1314(res))
	}
}
