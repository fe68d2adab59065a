// Package cliutil holds the flag-handling helpers shared by the
// command-line front ends, so each command does not re-implement the
// same tracer-file and checkpoint-flag plumbing.
package cliutil

import (
	"fmt"
	"os"
	"strings"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
)

// Tracer opens the -trace file and wraps it in an engine tracer. An
// empty path means tracing is off: a nil tracer and a no-op closer, so
// callers can defer the close unconditionally.
func Tracer(path string) (*engine.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return engine.NewTracer(f), f.Close, nil
}

// CheckpointFlags validates the -ckptdir/-ckpt-every flag pair and
// creates the store directory, so an unwritable path, a missing
// interval, or a conflicting combination fails before any solver work
// starts. Every problem with the pair is reported in ONE actionable
// error — a negative cadence, a cadence without a directory, a
// directory with the cadence left at 0 — instead of the first one
// found, and no combination ever silently disables checkpointing.
func CheckpointFlags(dir string, every int) error {
	var problems []string
	switch {
	case every < 0:
		problems = append(problems,
			fmt.Sprintf("-ckpt-every %d is negative (use a positive step interval, or omit both flags to run without checkpointing)", every))
	case every > 0 && dir == "":
		problems = append(problems,
			fmt.Sprintf("-ckpt-every %d needs -ckptdir to write into", every))
	case every == 0 && dir != "":
		problems = append(problems,
			fmt.Sprintf("-ckptdir %q needs a positive -ckpt-every interval (got 0, which would silently write no checkpoints)", dir))
	}
	if dir != "" && every >= 0 {
		if _, err := ckpt.NewDirStore(dir); err != nil {
			problems = append(problems, err.Error())
		}
	}
	switch len(problems) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("%s", problems[0])
	default:
		return fmt.Errorf("checkpoint flags: %s", strings.Join(problems, "; "))
	}
}
