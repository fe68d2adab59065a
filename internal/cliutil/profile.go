package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile/-memprofile flag pair. cmd/repro
// registers it once, so a profiling session works identically for
// every experiment in the registry.
type Profiles struct {
	cpuPath *string
	memPath *string
	cpuFile *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns
// the handle the command starts and stops around its measured work.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	p.cpuPath = fs.String("cpuprofile", "", "write a CPU profile to this file")
	p.memPath = fs.String("memprofile", "", "write a heap profile to this file at exit")
	return p
}

// Start begins CPU profiling when -cpuprofile was given. Call after
// flag parsing and before the measured work; a failure to open or
// start the profile is an error up front, not a silently empty file
// discovered after a long run.
func (p *Profiles) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-cpuprofile %s: %w", *p.cpuPath, err)
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and, when -memprofile was given,
// writes a heap profile after a GC so the numbers reflect live data
// rather than collectible garbage. Safe to call when Start did
// nothing.
func (p *Profiles) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("-cpuprofile %s: %w", *p.cpuPath, err)
		}
		p.cpuFile = nil
	}
	if *p.memPath == "" {
		return nil
	}
	f, err := os.Create(*p.memPath)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("-memprofile %s: %w", *p.memPath, err)
	}
	return nil
}
