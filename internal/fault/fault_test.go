package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nektar/internal/simnet"
)

// The plan must satisfy the simulator's injector contract.
var _ simnet.Injector = (*Plan)(nil)
var _ simnet.RankStaller = (*Plan)(nil)
var _ simnet.PlanValidator = (*Plan)(nil)

func TestCrashSchedule(t *testing.T) {
	p := NewPlan(0).Crash(2, 1.5).Crash(2, 3.0) // second call keeps earlier time
	if got := p.CrashTime(2); got != 1.5 {
		t.Fatalf("CrashTime(2) = %v, want 1.5", got)
	}
	if got := p.CrashTime(0); !math.IsInf(got, 1) {
		t.Fatalf("CrashTime(0) = %v, want +Inf", got)
	}
}

func TestCrashRandomReproducible(t *testing.T) {
	t1 := NewPlan(99).CrashRandom(0, 3600)
	t2 := NewPlan(99).CrashRandom(0, 3600)
	if t1 != t2 {
		t.Fatalf("same-seed sampled crash times differ: %v vs %v", t1, t2)
	}
	if t1 <= 0 {
		t.Fatalf("sampled crash time %v not positive", t1)
	}
}

// TestPlanDeterministicSimulation is the tentpole acceptance check at
// the simnet level: the same seeded plan drives two simulations to
// identical virtual-time traces.
func TestPlanDeterministicSimulation(t *testing.T) {
	model := &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 50, BandwidthMBs: 10, OverheadUS: 5},
	}
	body := func(n *simnet.Node) {
		for i := 0; i < 20; i++ {
			n.Compute(1e-4)
			dst := (n.Rank + 1) % n.P
			src := (n.Rank + n.P - 1) % n.P
			n.Send(dst, i, []float64{float64(i)})
			// A crashed or frozen neighbour sends nothing in time, so
			// use a deadline rather than a blocking receive.
			n.RecvDeadline(src, i, n.Clock()+5e-4)
		}
	}
	run := func() []float64 {
		p := NewPlan(1234).StallRank(0, 5e-4, 1e-3)
		p.CrashRandom(2, 2e-3)
		wall, _, err := simnet.RunWithFaults(4, model, p, body)
		var ce *simnet.CrashError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("RunWithFaults: %v", err)
		}
		return wall
	}
	w1 := run()
	w2 := run()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("rank %d wall differs across same-seed runs: %v vs %v", i, w1[i], w2[i])
		}
	}
}

func TestPlanBuilderRejectsInvalidEvents(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"negative crash rank", NewPlan(1).Crash(-1, 5), "negative rank"},
		{"negative crash time", NewPlan(1).Crash(0, -5), "invalid time"},
		{"NaN crash time", NewPlan(1).Crash(0, math.NaN()), "invalid time"},
		{"rank stall negative rank", NewPlan(1).StallRank(-1, 0, 1), "negative rank"},
		{"rank stall negative time", NewPlan(1).StallRank(0, -1, 1), "invalid time"},
		{"rank stall zero duration", NewPlan(1).StallRank(0, 1, 0), "non-positive duration"},
	}
	for _, tc := range cases {
		err := tc.plan.Err()
		if err == nil {
			t.Errorf("%s: no error recorded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if verr := tc.plan.ValidatePlan(64); verr == nil {
			t.Errorf("%s: ValidatePlan accepted an invalid plan", tc.name)
		}
		if !strings.Contains(tc.plan.String(), "INVALID") {
			t.Errorf("%s: String() hides the invalid state: %s", tc.name, tc.plan)
		}
	}
}

func TestCrashRandomRejectsNonPositiveMTBF(t *testing.T) {
	p := NewPlan(7)
	if got := p.CrashRandom(0, 0); !math.IsInf(got, 1) {
		t.Errorf("CrashRandom with zero MTBF returned %v, want +Inf", got)
	}
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "non-positive MTBF") {
		t.Errorf("Err() = %v, want non-positive MTBF complaint", err)
	}
	if got := NewPlan(7).CrashRandom(0, -100); !math.IsInf(got, 1) {
		t.Errorf("CrashRandom with negative MTBF returned %v, want +Inf", got)
	}
}

func TestPlanErrKeepsFirstError(t *testing.T) {
	p := NewPlan(1).Crash(-1, 5).StallRank(0, 1, -2)
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "negative rank") {
		t.Errorf("Err() = %v, want the first (crash) error preserved", err)
	}
}

func TestValidateRejectsOutOfRangeEvents(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"crash rank beyond run", NewPlan(1).Crash(4, 1), "crash of rank 4 out of range"},
		{"stall rank beyond run", NewPlan(1).StallRank(7, 1, 2), "stall of rank 7 out of range"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(4, 0)
		if err == nil {
			t.Errorf("%s: Validate(4, 0) accepted the plan", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejectsBeyondHorizonEvents(t *testing.T) {
	if err := NewPlan(1).Crash(0, 100).Validate(2, 10); err == nil {
		t.Error("crash beyond the horizon accepted")
	} else if !strings.Contains(err.Error(), "can never fire") {
		t.Errorf("unexpected horizon error: %v", err)
	}
	if err := NewPlan(1).StallRank(1, 50, 5).Validate(2, 10); err == nil {
		t.Error("stall beyond the horizon accepted")
	}
	// horizon = 0 disables the check; in-horizon events always pass.
	if err := NewPlan(1).Crash(0, 100).Validate(2, 0); err != nil {
		t.Errorf("horizonless validation rejected an in-range crash: %v", err)
	}
	if err := NewPlan(1).Crash(0, 5).StallRank(1, 3, 2).Validate(2, 10); err != nil {
		t.Errorf("in-horizon plan rejected: %v", err)
	}
}

func TestRankStallEarliestWins(t *testing.T) {
	p := NewPlan(1).StallRank(2, 9, 1).StallRank(2, 4, 3)
	start, dur := p.RankStall(2)
	if start != 4 || dur != 3 {
		t.Errorf("RankStall(2) = (%v, %v), want the earliest freeze (4, 3)", start, dur)
	}
	if start, _ := p.RankStall(0); !math.IsInf(start, 1) {
		t.Errorf("RankStall(0) = %v, want +Inf for an unscheduled rank", start)
	}
	if !strings.Contains(p.String(), "freeze(rank=2") {
		t.Errorf("String() omits the freeze schedule: %s", p)
	}
}

func TestCorruptRecordTornAndBitFlip(t *testing.T) {
	frame := make([]byte, 1000)
	for i := range frame {
		frame[i] = byte(i)
	}
	p := NewPlan(1).TornWrite(6, 1, 0.5).FlipBit(9, 0, 12345)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	// Non-matching (step, rank) pass through untouched, same backing
	// array (no copy on the hot path).
	if got := p.CorruptRecord(6, 0, frame); len(got) != len(frame) || &got[0] != &frame[0] {
		t.Fatal("non-matching record was not passed through")
	}
	torn := p.CorruptRecord(6, 1, frame)
	if len(torn) != 500 {
		t.Fatalf("torn write kept %d of %d bytes, want 500", len(torn), len(frame))
	}
	flipped := p.CorruptRecord(9, 0, frame)
	if len(flipped) != len(frame) {
		t.Fatalf("bit flip changed the length to %d", len(flipped))
	}
	diff := 0
	for i := range frame {
		if frame[i] != flipped[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want exactly 1", diff)
	}
	// The flip must not mutate the caller's frame in place.
	if frame[(12345%(8*1000))/8] != byte((12345%(8*1000))/8%256) {
		t.Fatal("bit flip mutated the original frame")
	}
	// Deterministic: same plan, same damage.
	again := p.CorruptRecord(9, 0, frame)
	if string(again) != string(flipped) {
		t.Fatal("bit flip not deterministic")
	}
}

func TestCorruptionBuilderValidation(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"torn negative rank", NewPlan(1).TornWrite(3, -1, 0.5), "negative step"},
		{"torn keepFrac one", NewPlan(1).TornWrite(3, 0, 1.0), "outside [0, 1)"},
		{"torn keepFrac NaN", NewPlan(1).TornWrite(3, 0, math.NaN()), "outside [0, 1)"},
		{"flip negative bit", NewPlan(1).FlipBit(3, 0, -1), "negative bit index"},
	}
	for _, tc := range cases {
		if err := tc.plan.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err() = %v, want %q", tc.name, tc.plan.Err(), tc.want)
		}
	}
	// Out-of-range corruption ranks are caught at install time.
	p := NewPlan(1).TornWrite(3, 8, 0.5)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := p.ValidatePlan(4); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ValidatePlan = %v, want out-of-range complaint", err)
	}
	// String mentions the schedule.
	s := NewPlan(1).TornWrite(6, 1, 0.5).FlipBit(9, 0, 3).String()
	if !strings.Contains(s, "torn(step=6,rank=1") || !strings.Contains(s, "bitflip(step=9,rank=0,bit=3)") {
		t.Errorf("String() = %s", s)
	}
}
