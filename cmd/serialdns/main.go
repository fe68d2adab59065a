// Command serialdns regenerates the paper's Table 1 (serial bluff-body
// CPU time per step on every machine) and Figure 12 (per-stage
// breakdown within one time step).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nektar/internal/bench"
)

func main() {
	cfg := bench.PaperSerial
	flag.IntVar(&cfg.Nt, "nt", cfg.Nt, "O-grid sectors")
	flag.IntVar(&cfg.Nr, "nr", cfg.Nr, "O-grid rings")
	flag.IntVar(&cfg.Order, "order", cfg.Order, "polynomial order")
	flag.IntVar(&cfg.Steps, "steps", cfg.Steps, "measured steps")
	stages := flag.Bool("stages", false, "print Figure 12 stage breakdowns")
	open := cfg.Instrument.Flags(flag.CommandLine)
	flag.Parse()

	closeTrace, err := open()
	if err != nil {
		log.Fatal(err)
	}
	defer closeTrace()
	res, _, err := bench.RunSerial(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench.Table1(res).Write(os.Stdout)
	if *stages {
		out, err := bench.Fig12(res, "Onyx2", "Muses")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(out)
	}
}
