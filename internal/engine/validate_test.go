package engine

import (
	"strings"
	"testing"
)

func TestValidateRejectsNilSolver(t *testing.T) {
	loop := Loop{Steps: 4}
	if _, err := loop.Run(); err == nil || !strings.Contains(err.Error(), "Solver is nil") {
		t.Fatalf("nil-solver Run err = %v", err)
	}
}

func TestValidateRejectsNegativeCheckpointEvery(t *testing.T) {
	// Go's % keeps the dividend's sign, so a negative cadence would
	// silently fire on arbitrary steps instead of erroring.
	s := newFakeSolver(func(step int) float64 { return 1 })
	loop := Loop{Solver: s, Steps: 4, CheckpointEvery: -2}
	if _, err := loop.Run(); err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Fatalf("negative-cadence Run err = %v", err)
	}
}
