package simnet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testInjector is a minimal Injector for exercising the hooks directly
// (package fault provides the real implementation).
type testInjector struct {
	crash func(rank int) float64
}

func (ti *testInjector) CrashTime(rank int) float64 {
	if ti.crash == nil {
		return math.Inf(1)
	}
	return ti.crash(rank)
}

func TestCrashReturnsCrashError(t *testing.T) {
	inj := &testInjector{crash: func(rank int) float64 {
		if rank == 1 {
			return 0.5
		}
		return math.Inf(1)
	}}
	_, _, err := RunWithFaults(2, fastModel(), inj, func(n *Node) {
		for i := 0; i < 100; i++ {
			n.Compute(0.01)
		}
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if len(ce.Ranks) != 1 || ce.Ranks[0] != 1 {
		t.Fatalf("crashed ranks = %v, want [1]", ce.Ranks)
	}
	if ce.Times[0] != 0.5 {
		t.Fatalf("crash time = %v, want 0.5", ce.Times[0])
	}
}

func TestRecvErrSurfacesCrashedPeer(t *testing.T) {
	inj := &testInjector{crash: func(rank int) float64 {
		if rank == 1 {
			return 1e-4
		}
		return math.Inf(1)
	}}
	var recvErr error
	_, _, err := RunWithFaults(2, fastModel(), inj, func(n *Node) {
		if n.Rank == 1 {
			n.Compute(1) // dies at the first yield past 1e-4s
			return
		}
		_, recvErr = n.RecvErr(1, 7)
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if recvErr == nil || !strings.Contains(recvErr.Error(), "peer rank 1 crashed") {
		t.Fatalf("RecvErr = %v, want crashed-peer error", recvErr)
	}
}

func TestRecvDeadlineTimesOut(t *testing.T) {
	wall, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			data, ok := n.RecvDeadline(1, 3, 0.25)
			if ok || data != nil {
				panic("expected timeout")
			}
			if n.Clock() < 0.25 {
				panic("clock not advanced to deadline")
			}
		} else {
			n.Compute(1) // never sends
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wall[0] != 0.25 {
		t.Fatalf("rank 0 wall = %v, want 0.25", wall[0])
	}
}

func TestRecvDeadlineDeliveredBeforeExpiry(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			data, ok := n.RecvDeadline(1, 3, 10)
			if !ok || len(data) != 1 || data[0] != 42 {
				panic("expected delivery before deadline")
			}
		} else {
			n.Compute(0.1)
			n.Send(0, 3, []float64{42})
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// countingDropper is a Dropper that records what it is asked about
// and drops the message numbered dropAt on the 0 -> 2 pair (never,
// when dropAt < 0).
type countingDropper struct {
	testInjector
	asked  [][3]int // (src, dst, n) per consultation
	dropAt int
}

func (d *countingDropper) DropMessage(src, dst, n int, t float64) bool {
	d.asked = append(d.asked, [3]int{src, dst, n})
	return src == 0 && dst == 2 && n == d.dropAt
}

// A Dropper sees every inter-node eager send, numbered per directed
// pair, and nothing else: not the shared-memory copy inside an SMP
// node, not a rendezvous transfer, not a self-send. Asking to drop one
// fails the run by name, because the network model is lossless.
func TestDropperObservesEagerSendsAndCannotDrop(t *testing.T) {
	model := fastModel()
	model.RanksPerNode = 2 // ranks 0 and 1 share a node; rank 2 is remote
	model.Intra = LinkModel{LatencyUS: 1, BandwidthMBs: 1000, OverheadUS: 1}
	model.Inter.EagerLimit = 64
	body := func(n *Node) {
		if n.Rank != 0 {
			n.Recv(0, 1)
			n.Recv(0, 1)
			return
		}
		n.Send(n.Rank, 9, []float64{0}) // self
		n.Recv(n.Rank, 9)
		for _, dst := range []int{1, 2} {
			n.Send(dst, 1, []float64{1})         // eager
			n.Send(dst, 1, make([]float64, 100)) // rendezvous
		}
		n.SendControl(2, 3, make([]float64, 100)) // forced eager
	}
	d := &countingDropper{dropAt: -1}
	if _, _, err := RunWithFaults(3, model, d, body); err != nil {
		t.Fatalf("RunWithFaults: %v", err)
	}
	if got, want := fmt.Sprint(d.asked), "[[0 2 0] [0 2 1]]"; got != want {
		t.Fatalf("Dropper consulted on %s, want %s", got, want)
	}
	d = &countingDropper{dropAt: 1}
	_, _, err := RunWithFaults(3, model, d, body)
	if !errors.Is(err, ErrMessageDropped) {
		t.Fatalf("err = %v, want ErrMessageDropped", err)
	}
	if !strings.Contains(err.Error(), "rank 0: eager message 1 to rank 2") {
		t.Errorf("err = %v, want the dropped message named", err)
	}
}

// TestDeadlockErrorNamesBlockedRanks pins the deadlock diagnosis byte
// for byte with one, two and all ranks blocked: whichever rank's
// election finds no candidate — a blocked rank in its yield, or the
// last runnable rank on its way out — must report the same text, and
// Run must come back, which it does only once every rank goroutine has
// unwound.
func TestDeadlockErrorNamesBlockedRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    int
		body func(n *Node)
		want string
	}{
		{"one blocked, found by a finishing rank", 3, func(n *Node) {
			if n.Rank == 0 {
				n.Compute(1e-3)
				n.Recv(2, 7)
			}
		}, "simnet: deadlock — all 1 remaining rank(s) blocked: rank 0 in Recv(src=2, tag=7) since t=0.001s"},
		{"two blocked, found by the second to block", 3, func(n *Node) {
			switch n.Rank {
			case 0:
				n.Recv(1, 9)
			case 1:
				n.Compute(2e-3)
				n.Recv(0, 4)
			}
		}, "simnet: deadlock — all 2 remaining rank(s) blocked: rank 0 in Recv(src=1, tag=9) since t=0s; rank 1 in Recv(src=0, tag=4) since t=0.002s"},
		{"all blocked", 4, func(n *Node) {
			n.Compute(1e-4 * float64(n.Rank))
			n.Recv((n.Rank+1)%n.P, n.Rank)
		}, "simnet: deadlock — all 4 remaining rank(s) blocked: rank 0 in Recv(src=1, tag=0) since t=0s; rank 1 in Recv(src=2, tag=1) since t=0.0001s; rank 2 in Recv(src=3, tag=2) since t=0.0002s; rank 3 in Recv(src=0, tag=3) since t=0.0003s"},
	} {
		_, _, err := Run(tc.p, fastModel(), tc.body)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got %v\nwant %s", tc.name, err, tc.want)
		}
	}
}

// TestPanicMidSliceReportsFirstCause: a rank that panics while it holds
// the baton must still pass it on — the others run to completion — and
// the first panic in virtual time, not a later one, is the run's error.
// (Serial scheduler by name: under the parallel one two independent
// panics race in host time.)
func TestPanicMidSliceReportsFirstCause(t *testing.T) {
	t.Setenv(SchedulerEnv, "")
	model := *fastModel()
	model.Scheduler = SchedSerial
	wall, _, err := Run(4, &model, func(n *Node) {
		n.Compute(1e-3)
		switch n.Rank {
		case 1:
			n.Send(0, 1, []float64{1})
			panic("boom")
		case 3:
			n.Compute(1e-3)
			panic("later")
		}
		if n.Rank == 0 {
			n.Recv(1, 1)
		}
		n.Compute(5e-3)
	})
	if err == nil || err.Error() != "simnet: rank 1 panicked: boom" {
		t.Fatalf("err = %v, want rank 1's panic", err)
	}
	if wall[0] < 6e-3 || wall[2] != 6e-3 {
		t.Errorf("survivors stopped early: wall = %v", wall)
	}
}

func TestDeadlockErrorNamesRendezvousPartner(t *testing.T) {
	model := fastModel()
	model.Inter.EagerLimit = 64 // force rendezvous for >8 doubles
	_, _, err := Run(2, model, func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 2, make([]float64, 100)) // no matching receive
		} else {
			n.Compute(1e-3)
		}
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	if !strings.Contains(err.Error(), "rank 0 in Wait for rendezvous send (dst=1, tag=2, 800 bytes)") {
		t.Errorf("deadlock error %q missing rendezvous diagnosis", err.Error())
	}
}

func TestNegativeComputeIsErrorNotPanic(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Compute(-1)
		} else {
			n.Compute(1e-3)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "negative compute time") {
		t.Fatalf("err = %v, want negative-compute error", err)
	}
}

func TestTimedSizeOverflowClamped(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.SetPhantomFactor(1e300)
			n.Send(1, 1, []float64{1})
		} else {
			n.Recv(0, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "overflows the timed size") {
		t.Fatalf("err = %v, want timed-size overflow error", err)
	}
}

func TestSleepAdvancesWallNotCPU(t *testing.T) {
	wall, cpu, err := Run(1, fastModel(), func(n *Node) {
		n.Compute(0.1)
		n.Sleep(0.4)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wall[0] != 0.5 {
		t.Fatalf("wall = %v, want 0.5", wall[0])
	}
	if cpu[0] != 0.1 {
		t.Fatalf("cpu = %v, want 0.1", cpu[0])
	}
}

func TestFaultFreeInjectorMatchesRun(t *testing.T) {
	body := func(n *Node) {
		for i := 0; i < 5; i++ {
			n.Compute(1e-4)
			dst := (n.Rank + 1) % n.P
			src := (n.Rank + n.P - 1) % n.P
			r := n.Isend(dst, i, []float64{float64(i)})
			n.Recv(src, i)
			n.Wait(r)
		}
	}
	w1, c1, err1 := Run(4, fastModel(), body)
	inj := &testInjector{}
	w2, c2, err2 := RunWithFaults(4, fastModel(), inj, body)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	for i := range w1 {
		if w1[i] != w2[i] || c1[i] != c2[i] {
			t.Fatalf("rank %d: perfect run (%v,%v) != no-op injector run (%v,%v)",
				i, w1[i], c1[i], w2[i], c2[i])
		}
	}
}

func TestDeadlockErrorSendSendCycle(t *testing.T) {
	// Two ranks in unmatched rendezvous sends to each other: both must
	// be named with their destination and tag.
	model := fastModel()
	model.Inter.EagerLimit = 64
	_, _, err := Run(2, model, func(n *Node) {
		n.Send(1-n.Rank, 5+n.Rank, make([]float64, 100))
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	msg := err.Error()
	for _, want := range []string{
		"rank 0 in Wait for rendezvous send (dst=1, tag=5, 800 bytes)",
		"rank 1 in Wait for rendezvous send (dst=0, tag=6, 800 bytes)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error %q missing %q", msg, want)
		}
	}
}

func TestDeadlockAfterCrashNamesDeadRanks(t *testing.T) {
	// Rank 1 dies; ranks 0 and 2 wait on each other (neither on the
	// dead rank, so neither is woken by the crash). The CrashError must
	// carry the survivors' deadlock diagnosis, including which rank had
	// crashed — the first thing an operator needs to see.
	inj := &testInjector{crash: func(rank int) float64 {
		if rank == 1 {
			return 1e-4
		}
		return math.Inf(1)
	}}
	_, _, err := RunWithFaults(3, fastModel(), inj, func(n *Node) {
		switch n.Rank {
		case 0:
			n.Recv(2, 8)
		case 1:
			n.Compute(1) // dies at the first yield past 1e-4
		case 2:
			n.Recv(0, 3)
		}
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if len(ce.Ranks) != 1 || ce.Ranks[0] != 1 {
		t.Fatalf("crashed ranks = %v, want [1]", ce.Ranks)
	}
	for _, want := range []string{
		"after rank(s) [1] crashed",
		"rank 0 in Recv(src=2, tag=8)",
		"rank 2 in Recv(src=0, tag=3)",
	} {
		if !strings.Contains(ce.Detail, want) {
			t.Errorf("CrashError detail %q missing %q", ce.Detail, want)
		}
	}
	if !strings.Contains(ce.Error(), "after rank(s) [1] crashed") {
		t.Errorf("Error() %q hides the crash note", ce.Error())
	}
}
