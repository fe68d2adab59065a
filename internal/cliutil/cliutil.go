// Package cliutil holds the flag-handling helpers shared by the
// command-line front ends, so each command does not re-implement the
// same tracer-file and profile-flag plumbing.
package cliutil

import (
	"os"

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
