package timing

import (
	"math"
	"testing"

	"nektar/internal/blas"
)

func TestStagesCaptureDeltas(t *testing.T) {
	s := NewStages("a", "b")
	s.Attach()
	defer s.Detach()
	x := make([]float64, 50)
	y := make([]float64, 50)

	s.Begin(0)
	blas.Dcopy(50, x, 1, y, 1)
	s.Begin(1) // implicitly ends stage 0
	blas.Ddot(50, x, 1, y, 1)
	blas.Ddot(50, x, 1, y, 1)
	s.End()

	if s.Counts[0].Ops[blas.KernelDcopy].Calls != 1 {
		t.Fatalf("stage a: %+v", s.Counts[0])
	}
	if s.Counts[0].Ops[blas.KernelDdot].Calls != 0 {
		t.Fatal("ddot leaked into stage a")
	}
	if s.Counts[1].Ops[blas.KernelDdot].Calls != 2 {
		t.Fatalf("stage b: %+v", s.Counts[1])
	}
	if s.Seconds[0] <= 0 || s.Seconds[1] <= 0 {
		t.Fatal("host seconds not recorded")
	}
	total := s.Total()
	if total.Ops[blas.KernelDdot].Calls != 2 || total.Ops[blas.KernelDcopy].Calls != 1 {
		t.Fatalf("total wrong: %+v", total)
	}
}

func TestStagesReset(t *testing.T) {
	s := NewStages("a")
	s.Attach()
	s.Begin(0)
	blas.Dcopy(10, make([]float64, 10), 1, make([]float64, 10), 1)
	s.End()
	s.Detach()
	s.Reset()
	if s.Counts[0].TotalBytes() != 0 || s.Seconds[0] != 0 || s.Priced[0] != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestAddPriced(t *testing.T) {
	s := NewStages("a", "b")
	var c blas.Counts
	c.Ops[blas.KernelDgemm] = blas.Op{Calls: 1, Flops: 100}
	s.AddPriced(&c, 0.5) // no active stage: ignored
	if s.Priced[0] != 0 {
		t.Fatal("AddPriced without active stage should be ignored")
	}
	s.Begin(1)
	s.AddPriced(&c, 0.5)
	s.AddPriced(&c, 0.25)
	s.End()
	if s.Priced[1] != 0.75 {
		t.Fatalf("Priced[1] = %v", s.Priced[1])
	}
	if s.Counts[1].Ops[blas.KernelDgemm].Calls != 2 {
		t.Fatalf("counts not accumulated: %+v", s.Counts[1])
	}
}

func TestPercent(t *testing.T) {
	p := Percent([]float64{1, 3})
	if math.Abs(p[0]-25) > 1e-12 || math.Abs(p[1]-75) > 1e-12 {
		t.Fatalf("percent = %v", p)
	}
	z := Percent([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero total should give zeros")
	}
}

func TestEndWithoutBeginIsSafe(t *testing.T) {
	s := NewStages("a")
	s.End() // must not panic
	if s.Current() != -1 {
		t.Fatal("no stage should be active")
	}
}

func TestBeginWithoutAttach(t *testing.T) {
	// Without Attach there is no BLAS recording, but stage bracketing
	// and host-wall accumulation must still work: the cluster-simulated
	// solvers never Attach (they price counts via AddPriced instead).
	s := NewStages("a")
	s.Begin(0)
	blas.Dcopy(10, make([]float64, 10), 1, make([]float64, 10), 1)
	s.End()
	if got := s.Counts[0].Ops[blas.KernelDcopy].Calls; got != 0 {
		t.Fatalf("unattached stage recorded %d dcopy calls", got)
	}
	if s.Seconds[0] <= 0 {
		t.Fatal("host seconds not recorded without Attach")
	}
	if s.Current() != -1 {
		t.Fatal("End should deactivate the stage")
	}
}

func TestReBeginActiveStage(t *testing.T) {
	// Re-entering the active stage closes the current interval and
	// opens a new one charged to the same index: no double counting,
	// no lost time, and exactly one End needed afterwards.
	s := NewStages("a", "b")
	s.Attach()
	defer s.Detach()
	buf := make([]float64, 20)
	s.Begin(0)
	blas.Dcopy(20, buf, 1, buf, 1)
	s.Begin(0) // re-Begin of the active stage
	blas.Dcopy(20, buf, 1, buf, 1)
	s.End()
	if got := s.Counts[0].Ops[blas.KernelDcopy].Calls; got != 2 {
		t.Fatalf("re-Begin lost counts: %d dcopy calls", got)
	}
	if s.Current() != -1 {
		t.Fatal("one End must close a re-Begun stage")
	}
	s.End() // extra End stays safe
}

func TestAddWallAndSnapshot(t *testing.T) {
	s := NewStages("a", "b")
	s.AddWall(0, 1.5)
	s.AddWall(1, 0.5)
	s.AddWall(-1, 99) // out of range: ignored
	s.AddWall(2, 99)
	if s.Wall[0] != 1.5 || s.Wall[1] != 0.5 {
		t.Fatalf("Wall = %v", s.Wall)
	}
	before := s.Snapshot()
	s.AddWall(0, 1.0)
	after := s.Snapshot()
	if d := after.Wall[0] - before.Wall[0]; d != 1.0 {
		t.Fatalf("snapshot delta = %v", d)
	}
	if before.Wall[0] != 1.5 {
		t.Fatal("Snapshot must copy, not alias")
	}
	s.Reset()
	if s.Wall[0] != 0 || s.Wall[1] != 0 {
		t.Fatal("Reset must zero Wall")
	}
}

// TestClockPricesComputeSections: a priced clock records each bracketed
// section, prices it in the active stage, advances the rank's clock by
// that and charges the stage; without pricing (or on a nil clock) the
// brackets do nothing and leave an attached recorder undisturbed.
func TestClockPricesComputeSections(t *testing.T) {
	st := NewStages("a", "b")
	now := 0.0
	clk := NewClock(st, func() float64 { return now })
	buf := make([]float64, 10)

	st.Attach()
	clk.Mark(0)
	clk.BeginCompute()
	blas.Dcopy(10, buf, 1, buf, 1)
	clk.EndCompute()
	clk.Mark(-1)
	st.Detach()
	if st.Priced[0] != 0 || st.Counts[0].Ops[blas.KernelDcopy].Calls != 1 {
		t.Fatalf("unpriced section: priced %g, %d dcopy calls through the attached recorder",
			st.Priced[0], st.Counts[0].Ops[blas.KernelDcopy].Calls)
	}
	var none *Clock
	none.BeginCompute()
	none.EndCompute()

	st.Reset()
	var stages []int
	clk.Price(func(c *blas.Counts, stage int) float64 {
		stages = append(stages, stage)
		return 0.25 * float64(c.Ops[blas.KernelDcopy].Calls)
	}, func(dt float64) { now += dt })
	clk.Mark(1)
	clk.BeginCompute()
	blas.Dcopy(10, buf, 1, buf, 1)
	blas.Dcopy(10, buf, 1, buf, 1)
	clk.EndCompute()
	clk.BeginCompute()
	blas.Dcopy(10, buf, 1, buf, 1)
	clk.EndCompute()
	clk.Mark(-1)
	if len(stages) != 2 || stages[0] != 1 || stages[1] != 1 {
		t.Fatalf("price saw stages %v, want two sections in stage 1", stages)
	}
	if now != 0.75 || st.Priced[1] != 0.75 || st.Wall[1] != 0.75 || st.Counts[1].Ops[blas.KernelDcopy].Calls != 3 {
		t.Fatalf("clock %g, stage priced %g wall %g with %d dcopy calls; want 0.75 s and 3 calls",
			now, st.Priced[1], st.Wall[1], st.Counts[1].Ops[blas.KernelDcopy].Calls)
	}
}
