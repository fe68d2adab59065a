// Command nektarale regenerates the paper's Table 3 (Nektar-ALE 3D
// flapping-wing CPU/wall-clock per step) and Figures 15-16 (region
// breakdowns a/b/c).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nektar/internal/bench"
)

func main() {
	cfg := bench.PaperALE
	stages := flag.Bool("stages", false, "print Figures 15-16 region breakdowns")
	open := cfg.Sweep.Flags(flag.CommandLine)
	flag.Parse()

	closeTrace, err := open()
	if err != nil {
		log.Fatal(err)
	}
	defer closeTrace()
	res, err := bench.RunALE(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench.Table3(res, cfg.Procs, cfg.Machines).Write(os.Stdout)
	if *stages {
		fmt.Print(bench.Figs1516(res))
	}
}
