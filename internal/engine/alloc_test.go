package engine

import (
	"io"
	"testing"

	"nektar/internal/timing"
)

// nullSolver isolates the driver's own per-step overhead: Step does no
// numeric work but charges fake host time so the trace path emits both
// a stage and a step event every step.
type nullSolver struct {
	steps int
	st    *timing.Stages
}

func (s *nullSolver) Step() {
	s.st.Seconds[s.steps%len(s.st.Seconds)] += 1e-6
	s.steps++
}
func (s *nullSolver) StepCount() int                { return s.steps }
func (s *nullSolver) Stages() *timing.Stages        { return s.st }
func (s *nullSolver) Checkpoint(w io.Writer) error  { return nil }
func (s *nullSolver) Restore(r io.Reader) error     { return nil }
func (s *nullSolver) HealthSample() (float64, bool) { return 1, true }

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// runAllocs returns the average allocations of one traced Loop.Run over
// the given step count (setup and the final snapshot included).
func runAllocs(t *testing.T, steps int) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		l := &Loop{
			Solver: &nullSolver{st: timing.NewStages("a", "b", "c")},
			Steps:  steps,
			Trace:  NewTracer(io.Discard),
		}
		if _, err := l.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepLoopAllocs guards the allocation diet: the driver's traced
// per-step path — snapshot refresh, stage/step event emission — must
// stay allocation-free (the reused snapshot pair and the tracer's
// scratch event replaced three slice copies and one escaping Event per
// emission each step). The bound of 1 alloc/step absorbs rare
// encoder-internal growth without letting a per-event regression (>= 2
// allocs/step) back in.
func TestStepLoopAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on the traced path (3.8-3.9 allocs/step with the code unchanged)")
	}
	const span = 200
	base := runAllocs(t, 1)
	long := runAllocs(t, 1+span)
	perStep := (long - base) / span
	if perStep > 1 {
		t.Fatalf("traced step loop allocates %.2f allocs/step (loop of %d steps: %.0f, of 1 step: %.0f); want <= 1",
			perStep, 1+span, long, base)
	}
}
