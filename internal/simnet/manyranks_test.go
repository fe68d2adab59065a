package simnet

import (
	"math"
	"runtime"
	"testing"
	"time"

	"nektar/internal/blas"
)

// TestSimnetManyRanks is the capacity smoke test behind the scheduler
// rework: P=2048 ranks running a trivial ring workload must complete
// under both schedulers in seconds, not minutes, and without O(P²)
// memory churn (per-event map rebuilds, per-message allocations). The serial and conservative-parallel runs must also stay
// bit-identical at this scale.
func TestSimnetManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: P=2048 capacity test skipped")
	}
	const p = 2048
	model := Model{
		Name:  "manyranks",
		Inter: LinkModel{LatencyUS: 20, BandwidthMBs: 110, OverheadUS: 2, EagerLimit: 8192},
	}
	body := func(n *Node) {
		next := (n.Rank + 1) % n.P
		prev := (n.Rank + n.P - 1) % n.P
		for s := 0; s < 3; s++ {
			n.Compute(1e-6)
			n.Send(next, s, []float64{float64(n.Rank)})
			n.Recv(prev, s)
		}
	}

	run := func(sched Scheduler) ([]float64, time.Duration) {
		t.Helper()
		t.Setenv(SchedulerEnv, "")
		m := model
		m.Scheduler = sched
		start := time.Now()
		wall, _, err := RunWithFaults(p, &m, nil, body)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%v run failed: %v", sched, err)
		}
		return wall, elapsed
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wallSerial, dSerial := run(SchedSerial)
	runtime.ReadMemStats(&after)
	allocSerial := after.TotalAlloc - before.TotalAlloc

	// Latency smoke: a trivial 3-step ring at P=2048 has ~18k events,
	// each one O(P) election scan under the serial scheduler — well under
	// a second of host time. Ten seconds means something per event went
	// quadratic, or the handoff grew a second goroutine switch.
	const latencyBudget = 10 * time.Second
	if dSerial > latencyBudget {
		t.Errorf("serial P=%d run took %v, budget %v", p, dSerial, latencyBudget)
	}
	// Memory smoke: pooled messages and head-index inboxes keep the
	// per-event footprint bounded; ~1 GB total allocation for ~18k tiny
	// events would mean per-rank structures are being rebuilt per event.
	const allocBudget = 1 << 30
	if allocSerial > allocBudget {
		t.Errorf("serial P=%d run allocated %d bytes, budget %d", p, allocSerial, allocBudget)
	}

	if !blas.ThreadRecordingSupported() {
		return
	}
	wall, d := run(SchedParallel)
	if d > latencyBudget {
		t.Errorf("parallel P=%d run took %v, budget %v", p, d, latencyBudget)
	}
	for r := 0; r < p; r++ {
		// Conservative: bit-identical to serial, even at P=2048.
		if math.Float64bits(wall[r]) != math.Float64bits(wallSerial[r]) {
			t.Fatalf("parallel rank %d wall %v != serial %v", r, wall[r], wallSerial[r])
		}
	}
}
