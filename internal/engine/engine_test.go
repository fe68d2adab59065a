package engine

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nektar/internal/timing"
)

// fakeSolver is a minimal Solver: its state is one float advanced by a
// caller-controlled rule, its checkpoint the encoded (step, value).
type fakeSolver struct {
	step    int
	value   float64
	advance func(step int) float64 // value after step (1-based)
	stages  *timing.Stages
}

type fakeState struct {
	Step  int
	Value float64
}

func newFakeSolver(advance func(step int) float64) *fakeSolver {
	return &fakeSolver{advance: advance, stages: timing.NewStages("work")}
}

func (f *fakeSolver) Step() {
	f.step++
	f.value = f.advance(f.step)
	f.stages.AddWall(0, 1)
}
func (f *fakeSolver) StepCount() int         { return f.step }
func (f *fakeSolver) Stages() *timing.Stages { return f.stages }

func (f *fakeSolver) Checkpoint(w io.Writer) error {
	return EncodeState(w, &fakeState{Step: f.step, Value: f.value})
}

func (f *fakeSolver) Restore(r io.Reader) error {
	var st fakeState
	if err := DecodeState(r, &st); err != nil {
		return err
	}
	f.step, f.value = st.Step, st.Value
	return nil
}

func (f *fakeSolver) HealthSample() (float64, bool) {
	return math.Abs(f.value), !math.IsNaN(f.value) && !math.IsInf(f.value, 0)
}

func TestLoopCompletesAndCheckpoints(t *testing.T) {
	s := newFakeSolver(func(step int) float64 { return float64(step) })
	var ckSteps []int
	loop := Loop{
		Solver: s, Steps: 10,
		CheckpointEvery: 3,
		OnCheckpoint: func(step int, state []byte) {
			ckSteps = append(ckSteps, step)
			if len(state) == 0 {
				t.Fatal("empty checkpoint")
			}
		},
		Watchdog: Watchdog{Disabled: true},
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed || res.StepsRun != 10 {
		t.Fatalf("outcome %v stepsRun %d", res.Outcome, res.StepsRun)
	}
	// Step 9 checkpoints; step 10 is the target and must not (the final
	// state is not a checkpoint).
	if len(ckSteps) != 3 || ckSteps[0] != 3 || ckSteps[2] != 9 {
		t.Fatalf("checkpoint steps %v", ckSteps)
	}
	if len(res.Final) == 0 {
		t.Fatal("no final state")
	}

	// Restore the step-6 checkpoint into a fresh solver and finish: the
	// final state must be byte-identical (determinism contract).
	s2 := newFakeSolver(func(step int) float64 { return float64(step) })
	var ck6 []byte
	loop2 := Loop{Solver: s2, Steps: 10, CheckpointEvery: 6, Watchdog: Watchdog{Disabled: true},
		OnCheckpoint: func(step int, state []byte) { ck6 = state }}
	if _, err := loop2.Run(); err != nil {
		t.Fatal(err)
	}
	s3 := newFakeSolver(func(step int) float64 { return float64(step) })
	if err := Restore(s3, ck6); err != nil {
		t.Fatal(err)
	}
	if s3.StepCount() != 6 {
		t.Fatalf("restored step %d", s3.StepCount())
	}
	loop3 := Loop{Solver: s3, Steps: 10, Watchdog: Watchdog{Disabled: true}}
	res3, err := loop3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.StepsRun != 4 {
		t.Fatalf("resumed run took %d steps", res3.StepsRun)
	}
	if !bytes.Equal(res.Final, res3.Final) {
		t.Fatal("resumed final state differs from straight run")
	}
}

func TestLoopHaltPoll(t *testing.T) {
	s := newFakeSolver(func(step int) float64 { return 0 })
	polls := 0
	loop := Loop{
		Solver: s, Steps: 100,
		Poll:     func() bool { polls++; return polls > 4 },
		Watchdog: Watchdog{Disabled: true},
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Halted || res.StepsRun != 4 {
		t.Fatalf("outcome %v stepsRun %d", res.Outcome, res.StepsRun)
	}
	if res.Final != nil {
		t.Fatal("halted run must not produce a final state")
	}
}

func TestLoopFinalOnHaltParksState(t *testing.T) {
	// With FinalOnHalt a drain-style halt snapshots the halted state: it
	// reaches both Result.Final and the sink (marked final), and a fresh
	// solver restored from it finishes bit-identically to an
	// uninterrupted run.
	s := newFakeSolver(func(step int) float64 { return float64(step * step) })
	sink := &recordingSink{}
	polls := 0
	loop := Loop{
		Solver: s, Steps: 10, FinalOnHalt: true, Sink: sink,
		Poll:     func() bool { polls++; return polls > 4 },
		Watchdog: Watchdog{Disabled: true},
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Halted || res.StepsRun != 4 {
		t.Fatalf("outcome %v stepsRun %d", res.Outcome, res.StepsRun)
	}
	if len(res.Final) == 0 {
		t.Fatal("FinalOnHalt halt returned no state")
	}
	if len(sink.steps) != 1 || sink.steps[0] != 4 || !sink.finals[0] {
		t.Fatalf("sink got steps %v finals %v, want one final submit at step 4", sink.steps, sink.finals)
	}

	resumed := newFakeSolver(func(step int) float64 { return float64(step * step) })
	if err := Restore(resumed, res.Final); err != nil {
		t.Fatal(err)
	}
	r2, err := (&Loop{Solver: resumed, Steps: 10, Watchdog: Watchdog{Disabled: true}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	straight := newFakeSolver(func(step int) float64 { return float64(step * step) })
	r3, err := (&Loop{Solver: straight, Steps: 10, Watchdog: Watchdog{Disabled: true}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.Final, r3.Final) {
		t.Fatal("run resumed from a parked halt differs from the uninterrupted run")
	}

	// A watchdog trip must never snapshot, FinalOnHalt or not.
	bad := newFakeSolver(func(step int) float64 { return math.NaN() })
	badSink := &recordingSink{}
	resT, err := (&Loop{Solver: bad, Steps: 10, FinalOnHalt: true, Sink: badSink}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if resT.Outcome != Tripped || len(badSink.steps) != 0 || resT.Final != nil {
		t.Fatalf("tripped run staged state: outcome %v, sink %v", resT.Outcome, badSink.steps)
	}
}

func TestLoopWatchdogNaNTrips(t *testing.T) {
	s := newFakeSolver(func(step int) float64 {
		if step == 3 {
			return math.NaN()
		}
		return 1
	})
	var buf bytes.Buffer
	loop := Loop{Solver: s, Steps: 10, Rank: 7, Trace: NewTracer(&buf)}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Tripped || res.StepsRun != 3 || res.Final != nil {
		t.Fatalf("outcome %v stepsRun %d", res.Outcome, res.StepsRun)
	}
	// The trip's max_abs is NaN, which plain JSON cannot carry; the
	// event must still reach the stream and read back as NaN.
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	if last.Ev != EvTrip || last.Step != 3 || last.Rank != 7 || !math.IsNaN(last.MaxAbs) || last.Finite == nil || *last.Finite {
		t.Fatalf("last event %+v, want the trip at step 3 on rank 7 with max_abs NaN, finite false", last)
	}
}

// TestTraceNonFiniteRoundTrip: NaN and both infinities, in scalar
// fields and in spectrum bins, come back from ReadEvents as written,
// the finite values beside them untouched; the caller's Bins slice is
// not modified; and a nonfinite entry that names no float or holds a
// finite value is refused.
func TestTraceNonFiniteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	bins := []float64{1.5, math.Inf(1), math.NaN(), -2}
	in := []Event{
		{Ev: EvStep, Step: 1, HostS: 0.25, PricedS: math.NaN(), WallS: math.Inf(-1)},
		{Ev: EvSpectrum, Step: 2, Bins: bins, Energy: math.Inf(1), Enstrophy: 3},
		{Ev: EvDissipation, Step: 3, Energy: 1, Dissipation: 0.5},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	if !math.IsInf(bins[1], 1) || !math.IsNaN(bins[2]) {
		t.Fatalf("Emit changed the caller's bins: %v", bins)
	}
	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, wrote %d", len(out), len(in))
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for i := range in {
		a, b := in[i], out[i]
		for _, name := range floatFields {
			if x, y := *a.floatField(name), *b.floatField(name); !same(x, y) {
				t.Errorf("event %d field %s: wrote %v, read %v", i, name, x, y)
			}
		}
		if len(a.Bins) != len(b.Bins) {
			t.Fatalf("event %d bins: wrote %v, read %v", i, a.Bins, b.Bins)
		}
		for j := range a.Bins {
			if !same(a.Bins[j], b.Bins[j]) {
				t.Errorf("event %d bin %d: wrote %v, read %v", i, j, a.Bins[j], b.Bins[j])
			}
		}
	}
	// Every float field of Event is in floatFields under its JSON name,
	// or a non-finite value in it would never reach the stream.
	et := reflect.TypeOf(Event{})
	for i := 0; i < et.NumField(); i++ {
		f := et.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() == reflect.Float64 && !slices.Contains(floatFields[:], name) {
			t.Errorf("Event.%s (json %q) is missing from floatFields", f.Name, name)
		}
	}
	for _, bad := range []string{
		`{"ev":"step","nonfinite":{"host_s":"1.5"}}`,
		`{"ev":"step","nonfinite":{"nosuch":"NaN"}}`,
		`{"ev":"spectrum","bins":[0],"nonfinite":{"bins.1":"NaN"}}`,
	} {
		if _, err := ReadEvents(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadEvents accepted %s", bad)
		}
	}
}

func TestLoopWatchdogMaxAbsTrips(t *testing.T) {
	// A large but bounded field never trips; the first sample above
	// MaxAbs does, and the trip event says why.
	s := newFakeSolver(func(step int) float64 { return 1000 })
	loop := Loop{Solver: s, Steps: 5, Watchdog: Watchdog{MaxAbs: 1000}}
	if res, err := loop.Run(); err != nil || res.Outcome != Completed {
		t.Fatalf("bounded field tripped: %v %v", res.Outcome, err)
	}
	s2 := newFakeSolver(func(step int) float64 {
		if step >= 4 {
			return 2000
		}
		return 1
	})
	var buf bytes.Buffer
	loop2 := Loop{Solver: s2, Steps: 10, Rank: 7, Watchdog: Watchdog{MaxAbs: 1000}, Trace: NewTracer(&buf)}
	res, err := loop2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Tripped || res.StepsRun != 4 {
		t.Fatalf("outcome %v stepsRun %d, want a trip at step 4", res.Outcome, res.StepsRun)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	if last.Ev != EvTrip || last.Step != 4 || last.Rank != 7 || last.MaxAbs != 2000 || last.Finite == nil || !*last.Finite {
		t.Fatalf("last event %+v, want the trip at step 4 on rank 7 with max_abs 2000", last)
	}
}

func TestLoopWatchdogGrowthBaseline(t *testing.T) {
	// The baseline is the first sample; growth is judged against it
	// from the second sample on — a large but steady field never trips.
	s := newFakeSolver(func(step int) float64 { return 1000 })
	loop := Loop{Solver: s, Steps: 5, Watchdog: Watchdog{MaxGrowth: 10}}
	if res, err := loop.Run(); err != nil || res.Outcome != Completed {
		t.Fatalf("steady field tripped: %v %v", res.Outcome, err)
	}
	// A 20x jump after the baseline sample must trip.
	s2 := newFakeSolver(func(step int) float64 {
		if step >= 4 {
			return 20
		}
		return 1
	})
	loop2 := Loop{Solver: s2, Steps: 10, Watchdog: Watchdog{MaxGrowth: 10}}
	res, err := loop2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Tripped || res.StepsRun != 4 {
		t.Fatalf("outcome %v stepsRun %d, want a trip at step 4", res.Outcome, res.StepsRun)
	}
}

func TestLoopWatchdogAgreeIsCollective(t *testing.T) {
	// Agree must be consulted at every sampled boundary (it hides a
	// collective), and a true verdict ends the run even when the local
	// sample was healthy — with no trip event emitted by this rank.
	s := newFakeSolver(func(step int) float64 { return 1 })
	calls := 0
	var buf bytes.Buffer
	loop := Loop{
		Solver: s, Steps: 10, Trace: NewTracer(&buf),
		Watchdog: Watchdog{Agree: func(bad bool) bool {
			if bad {
				t.Fatal("local sample should be healthy")
			}
			calls++
			return calls == 5
		}},
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Tripped || res.StepsRun != 5 {
		t.Fatalf("outcome %v stepsRun %d", res.Outcome, res.StepsRun)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Ev == EvTrip {
			t.Fatalf("a peer's trip must not be traced as ours: %+v", ev)
		}
	}
}

// sampleLogger records each watchdog sample into a shared order log.
type sampleLogger struct {
	*fakeSolver
	order *[]string
}

func (s sampleLogger) HealthSample() (float64, bool) {
	*s.order = append(*s.order, "watchdog")
	return s.fakeSolver.HealthSample()
}

func TestLoopHookOrder(t *testing.T) {
	var order []string
	s := sampleLogger{newFakeSolver(func(step int) float64 { return 1 }), &order}
	loop := Loop{
		Solver: s, Steps: 2, CheckpointEvery: 1,
		Poll:         func() bool { order = append(order, "poll"); return false },
		OnStep:       func(step int) { order = append(order, "onstep") },
		OnCheckpoint: func(step int, state []byte) { order = append(order, "checkpoint") },
	}
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	want := "poll onstep watchdog checkpoint poll onstep watchdog"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("hook order\n got %s\nwant %s", got, want)
	}
}

func TestLoopTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	s := newFakeSolver(func(step int) float64 { return 1 })
	loop := Loop{
		Solver: s, Steps: 3, CheckpointEvery: 2,
		Watchdog: Watchdog{Disabled: true},
		Trace:    NewTracer(&buf),
	}
	if _, err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	finals := 0
	for _, e := range evs {
		count[e.Ev]++
		if e.Ev == EvCheckpoint && e.Final {
			finals++
			if e.Step != 3 {
				t.Fatalf("final snapshot traced at step %d", e.Step)
			}
		}
	}
	// Two checkpoint events: the step-2 mid-run checkpoint and the
	// final-state snapshot, which takes the same traced path.
	if count[EvStep] != 3 || count[EvStage] != 3 || count[EvCheckpoint] != 2 || count[EvDone] != 1 {
		t.Fatalf("event counts %v", count)
	}
	if finals != 1 {
		t.Fatalf("%d final-flagged checkpoint events", finals)
	}
	for _, e := range evs {
		if e.Ev == EvStage && (e.Stage != "work" || e.WallS != 1) {
			t.Fatalf("stage event %+v", e)
		}
		if e.Ev == EvStep && e.WallS != 1 {
			t.Fatalf("step event %+v", e)
		}
	}
}

// recordingSink captures Submit/Drain calls for loop-contract tests.
type recordingSink struct {
	steps   []int
	finals  []bool
	drained int
	subErr  error
	drnErr  error
}

func (r *recordingSink) Submit(step int, state []byte, final bool) error {
	r.steps = append(r.steps, step)
	r.finals = append(r.finals, final)
	return r.subErr
}

func (r *recordingSink) Drain() error {
	r.drained++
	return r.drnErr
}

func TestLoopSinkReceivesCheckpointsAndFinal(t *testing.T) {
	s := newFakeSolver(func(step int) float64 { return 1 })
	sink := &recordingSink{}
	loop := Loop{Solver: s, Steps: 5, CheckpointEvery: 2, Sink: sink,
		Watchdog: Watchdog{Disabled: true}}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// Mid-run checkpoints at 2 and 4, then the final snapshot at 5.
	if len(sink.steps) != 3 || sink.steps[0] != 2 || sink.steps[1] != 4 || sink.steps[2] != 5 {
		t.Fatalf("sink steps %v", sink.steps)
	}
	if sink.finals[0] || sink.finals[1] || !sink.finals[2] {
		t.Fatalf("sink finals %v", sink.finals)
	}
	if sink.drained != 1 {
		t.Fatalf("drained %d times", sink.drained)
	}
}

func TestLoopSinkDrainedOnHalt(t *testing.T) {
	s := newFakeSolver(func(step int) float64 { return 1 })
	sink := &recordingSink{}
	polls := 0
	loop := Loop{Solver: s, Steps: 100, CheckpointEvery: 1, Sink: sink,
		Poll:     func() bool { polls++; return polls > 3 },
		Watchdog: Watchdog{Disabled: true}}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Halted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if sink.drained != 1 {
		t.Fatalf("halted run drained %d times", sink.drained)
	}
	for _, f := range sink.finals {
		if f {
			t.Fatal("halted run must not submit a final snapshot")
		}
	}
}

func TestLoopSinkErrorsSurface(t *testing.T) {
	s := newFakeSolver(func(step int) float64 { return 1 })
	sink := &recordingSink{subErr: io.ErrClosedPipe}
	loop := Loop{Solver: s, Steps: 4, CheckpointEvery: 2, Sink: sink,
		Watchdog: Watchdog{Disabled: true}}
	if _, err := loop.Run(); err == nil {
		t.Fatal("submit error did not surface")
	}
	if sink.drained != 1 {
		t.Fatal("failed run must still drain the sink")
	}

	s2 := newFakeSolver(func(step int) float64 { return 1 })
	sink2 := &recordingSink{drnErr: io.ErrShortWrite}
	loop2 := Loop{Solver: s2, Steps: 4, Sink: sink2,
		Watchdog: Watchdog{Disabled: true}}
	if _, err := loop2.Run(); err != io.ErrShortWrite {
		t.Fatalf("drain error did not surface: %v", err)
	}
}
