package simnet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// fastModel is a simple full-crossbar network: 10 us latency, 100 MB/s.
func fastModel() *Model {
	return &Model{
		Name:  "test",
		Inter: LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1},
	}
}

func TestSingleRankCompute(t *testing.T) {
	wall, cpu, err := Run(1, fastModel(), func(n *Node) {
		n.Compute(0.5)
		n.Compute(0.25)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wall[0]-0.75) > 1e-12 || math.Abs(cpu[0]-0.75) > 1e-12 {
		t.Fatalf("wall=%v cpu=%v, want 0.75", wall[0], cpu[0])
	}
}

func TestPingPongTiming(t *testing.T) {
	// One eager message of 8000 bytes: sender overhead 1 us, wire
	// 8000/100e6 = 80 us, latency 10 us => arrival at 91 us.
	model := fastModel()
	var recvClock float64
	wall, _, err := Run(2, model, func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 7, make([]float64, 1000))
		} else {
			n.Recv(0, 7)
			recvClock = n.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + 80 + 10) * 1e-6
	if math.Abs(recvClock-want) > 1e-9 {
		t.Fatalf("receive clock = %v, want %v", recvClock, want)
	}
	// Sender finished after its overhead only (eager).
	if math.Abs(wall[0]-1e-6) > 1e-9 {
		t.Fatalf("sender wall = %v, want 1e-6", wall[0])
	}
}

func TestMessageDataIntegrity(t *testing.T) {
	data := []float64{3.14, 2.71, 1.41}
	var got []float64
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 0, data)
		} else {
			got = n.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("payload corrupted: %v", got)
		}
	}
}

func TestMessagesDoNotOvertake(t *testing.T) {
	// Two same-key messages must be received in send order.
	var first, second float64
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 5, []float64{1})
			n.Send(1, 5, []float64{2})
		} else {
			first = n.Recv(0, 5)[0]
			second = n.Recv(0, 5)[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 2 {
		t.Fatalf("order violated: %v, %v", first, second)
	}
}

func TestTagSelectivity(t *testing.T) {
	// Receiving tag 2 before tag 1 must still deliver the right
	// payloads.
	var a, b float64
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 1, []float64{10})
			n.Send(1, 2, []float64{20})
		} else {
			b = n.Recv(0, 2)[0]
			a = n.Recv(0, 1)[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 10 || b != 20 {
		t.Fatalf("tag routing broken: a=%v b=%v", a, b)
	}
}

func TestAnySourceWildcard(t *testing.T) {
	sum := 0.0
	_, _, err := Run(3, fastModel(), func(n *Node) {
		if n.Rank > 0 {
			n.Send(0, 0, []float64{float64(n.Rank)})
		} else {
			for i := 0; i < 2; i++ {
				sum += n.Recv(AnySource, 0)[0]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("sum = %v, want 3", sum)
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	model := fastModel()
	model.Inter.EagerLimit = 100 // bytes
	var senderDone float64
	_, _, err := Run(2, model, func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 0, make([]float64, 10000)) // 80 KB: rendezvous
			senderDone = n.Clock()
		} else {
			n.Compute(0.01) // receiver is late
			n.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sender cannot complete before the receiver posted at 0.01 s.
	if senderDone < 0.01 {
		t.Fatalf("rendezvous sender finished at %v, before receiver posted", senderDone)
	}
}

func TestEagerDoesNotBlockSender(t *testing.T) {
	model := fastModel()
	model.Inter.EagerLimit = 1 << 20
	var senderDone float64
	_, _, err := Run(2, model, func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 0, make([]float64, 1000))
			senderDone = n.Clock()
		} else {
			n.Compute(0.05)
			n.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone > 0.001 {
		t.Fatalf("eager sender blocked until %v", senderDone)
	}
}

func TestCPUvsWallClock(t *testing.T) {
	// The receiver idles waiting for a late message: wall > cpu, the
	// paper's clock() vs MPI_Wtime() distinction.
	var wallR, cpuR float64
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Compute(0.1)
			n.Send(1, 0, []float64{1})
		} else {
			n.Recv(0, 0)
			wallR, cpuR = n.Clock(), n.CPUTime()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wallR < 0.1 {
		t.Fatalf("receiver wall = %v, want >= 0.1", wallR)
	}
	if cpuR != 0 {
		t.Fatalf("receiver cpu = %v, want 0 (pure idle)", cpuR)
	}
}

func TestEgressSerialization(t *testing.T) {
	// One sender, two messages to different receivers: the second
	// transfer must wait for the first to leave the NIC.
	model := fastModel()
	var t1, t2 float64
	_, _, err := Run(3, model, func(n *Node) {
		switch n.Rank {
		case 0:
			n.Send(1, 0, make([]float64, 12500)) // 100 KB = 1 ms wire
			n.Send(2, 0, make([]float64, 12500))
		case 1:
			n.Recv(0, 0)
			t1 = n.Clock()
		case 2:
			n.Recv(0, 0)
			t2 = n.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second arrival at least one wire time after the first.
	if t2-t1 < 0.9e-3 {
		t.Fatalf("egress not serialized: t1=%v t2=%v", t1, t2)
	}
}

func TestBackplaneContention(t *testing.T) {
	// Two disjoint pairs exchange simultaneously; with a backplane of
	// one link's bandwidth the second transfer must queue.
	mk := func(backplane float64) float64 {
		model := fastModel()
		model.BackplaneMBs = backplane
		wall, _, err := Run(4, model, func(n *Node) {
			size := 12500 // 100 KB
			switch n.Rank {
			case 0:
				n.Send(2, 0, make([]float64, size))
			case 1:
				n.Send(3, 0, make([]float64, size))
			case 2, 3:
				n.Recv(n.Rank-2, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// The receivers end right after their Recv, so their final wall
		// clocks are the arrival times.
		return max(wall[2], wall[3])
	}
	free := mk(0)     // full crossbar
	capped := mk(100) // backplane = one link
	if capped < 1.8*free {
		t.Fatalf("backplane contention missing: free=%v capped=%v", free, capped)
	}
}

func TestIntranodeFasterThanInternode(t *testing.T) {
	model := &Model{
		Name:         "smp",
		Inter:        LinkModel{LatencyUS: 100, BandwidthMBs: 10, OverheadUS: 5},
		Intra:        LinkModel{LatencyUS: 5, BandwidthMBs: 200, OverheadUS: 1},
		RanksPerNode: 2,
	}
	run := func(dst int) float64 {
		var arr float64
		_, _, err := Run(4, model, func(n *Node) {
			if n.Rank == 0 {
				n.Send(dst, 0, make([]float64, 1000))
			} else if n.Rank == dst {
				n.Recv(0, 0)
				arr = n.Clock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	intra := run(1) // same node (ranks 0,1 on node 0)
	inter := run(2) // different node
	if intra >= inter {
		t.Fatalf("intra=%v not faster than inter=%v", intra, inter)
	}
}

func TestHalfDuplexSharesWire(t *testing.T) {
	mk := func(half bool) float64 {
		model := fastModel()
		model.Inter.HalfDuplex = half
		wall, _, err := Run(2, model, func(n *Node) {
			// Simultaneous bidirectional exchange.
			other := 1 - n.Rank
			n.Send(other, 0, make([]float64, 12500))
			n.Recv(other, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return max(wall[0], wall[1])
	}
	full := mk(false)
	half := mk(true)
	if half < 1.5*full {
		t.Fatalf("half duplex not slower: full=%v half=%v", full, half)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		// Both ranks receive first: classic deadlock.
		n.Recv(1-n.Rank, 0)
		n.Send(1-n.Rank, 0, []float64{1})
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		wall, _, err := Run(4, fastModel(), func(n *Node) {
			// All-to-all-ish exchange with computation.
			n.Compute(float64(n.Rank) * 1e-4)
			for i := 0; i < n.P; i++ {
				if i == n.Rank {
					continue
				}
				n.Send(i, n.Rank, make([]float64, 100*(n.Rank+1)))
			}
			for i := 0; i < n.P; i++ {
				if i == n.Rank {
					continue
				}
				n.Recv(i, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return wall
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestSelfSend(t *testing.T) {
	var got float64
	_, _, err := Run(1, fastModel(), func(n *Node) {
		n.Send(0, 3, []float64{42})
		got = n.Recv(0, 3)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("self-send payload = %v", got)
	}
}

func TestClocksMonotonic(t *testing.T) {
	_, _, err := Run(3, fastModel(), func(n *Node) {
		prev := n.Clock()
		for i := 0; i < 5; i++ {
			n.Compute(1e-5)
			if n.Clock() < prev {
				t.Errorf("clock went backwards")
			}
			prev = n.Clock()
			dst := (n.Rank + 1) % n.P
			src := (n.Rank + n.P - 1) % n.P
			n.Send(dst, i, []float64{1})
			n.Recv(src, i)
			if n.Clock() < prev {
				t.Errorf("clock went backwards after recv")
			}
			prev = n.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhantomFactorScalesTiming(t *testing.T) {
	// The same payload must take ~10x longer to transfer with a
	// phantom factor of 10, without growing the data.
	run := func(phantom float64) (arrive float64, payload int) {
		model := fastModel()
		_, _, err := Run(2, model, func(n *Node) {
			if n.Rank == 0 {
				n.SetPhantomFactor(phantom)
				n.Send(1, 0, make([]float64, 12500)) // 100 KB real
			} else {
				got := n.Recv(0, 0)
				arrive = n.Clock()
				payload = len(got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return arrive, payload
	}
	t1, p1 := run(1)
	t10, p10 := run(10)
	if p1 != 12500 || p10 != 12500 {
		t.Fatalf("payload changed: %d vs %d", p1, p10)
	}
	// Wire time 1 ms at factor 1, 10 ms at factor 10 (latency 10 us).
	if t10 < 8*t1 {
		t.Fatalf("phantom factor not applied: %v vs %v", t1, t10)
	}
}

func TestCPUCopyCostChargesBothSides(t *testing.T) {
	model := fastModel()
	model.Inter.CPUCopyMBs = 10 // 100 KB costs 10 ms of CPU each side
	wall, cpu, err := Run(2, model, func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 0, make([]float64, 12500))
		} else {
			n.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if cpu[r] < 9e-3 {
			t.Fatalf("rank %d cpu %v, want >= ~10ms of stack copies", r, cpu[r])
		}
	}
	_ = wall
}

// TestInboxHoldsOnlyPendingMessages is the retention pin: a program
// that draws a fresh tag for every exchange (every mpi collective does)
// must not leave one inbox entry per tag behind, whether the receives
// name the key or use wildcards. Three messages are left unreceived on
// purpose; they are all the inbox may still hold.
func TestInboxHoldsOnlyPendingMessages(t *testing.T) {
	const exchanges, pending = 20000, 3
	nodes := make([]*Node, 2)
	_, _, err := Run(2, fastModel(), func(n *Node) {
		nodes[n.Rank] = n
		peer := 1 - n.Rank
		buf := make([]float64, 1)
		for tag := 0; tag < exchanges; tag++ {
			n.Send(peer, tag, []float64{float64(tag)})
			n.RecvInto(peer, tag, buf)
		}
		for i := 0; i < exchanges; i++ {
			tag := exchanges + i
			n.Send(peer, tag, []float64{float64(tag)})
			src, any := AnySource, tag
			if i%2 == 1 {
				src, any = peer, AnyTag
			}
			if got := n.Recv(src, any); got[0] != float64(tag) {
				panic(fmt.Sprintf("wildcard receive %d got tag %v", tag, got[0]))
			}
		}
		for i := 0; i < pending; i++ {
			n.Send(peer, 3*exchanges+i, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if len(n.inbox) > pending {
			t.Errorf("rank %d: %d inbox entries after %d exchanges with %d messages pending",
				n.Rank, len(n.inbox), 2*exchanges, pending)
		}
		if len(n.freeQueues) > pending {
			t.Errorf("rank %d: %d queues on the free list, never more than %d were pending at once",
				n.Rank, len(n.freeQueues), pending)
		}
	}
}

// TestRecvIntoOwnership: RecvInto fills the caller's buffer and may
// recycle the simulator's copy; a payload that plain Recv handed to the
// application is the application's for good and is never reused, however
// many same-length sends follow.
func TestRecvIntoOwnership(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		peer := 1 - n.Rank
		dst := make([]float64, 4)
		for round := 0; round < 3; round++ {
			n.Send(peer, 1, []float64{1, 2, 3})
			if k := n.RecvInto(peer, 1, dst); k != 3 || dst[0] != 1 || dst[2] != 3 {
				panic(fmt.Sprintf("RecvInto returned %d floats %v", k, dst))
			}
		}
		n.Send(peer, 2, []float64{4, 5, 6})
		kept := n.Recv(peer, 2)
		kept[0] = -1 // the application mutates what it was given
		for round := 0; round < 2*maxFreePayloads; round++ {
			n.Send(peer, 3, []float64{7, 8, 9})
			n.RecvInto(peer, 3, dst)
			if kept[0] != -1 || kept[1] != 5 || kept[2] != 6 {
				panic(fmt.Sprintf("round %d: a later send reused the slice Recv returned: %v", round, kept))
			}
		}
		if n.freePayloadCount > maxFreePayloads {
			panic(fmt.Sprintf("free list holds %d payloads, cap %d", n.freePayloadCount, maxFreePayloads))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvIntoShortBufferPanicsByName(t *testing.T) {
	_, _, err := Run(2, fastModel(), func(n *Node) {
		if n.Rank == 0 {
			n.Send(1, 6, make([]float64, 5))
			return
		}
		n.RecvInto(0, 6, make([]float64, 4))
	})
	want := "simnet: rank 1 panicked: simnet: rank 1: RecvInto(src=0, tag=6): 5-float payload does not fit the 4-float buffer"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
}

// TestComputeKeepsTheBaton: a rank that is still first after its own
// event must not switch goroutines. With one rank that is every call,
// so a million of them fit in a tenth of a second with room to spare —
// one goroutine switch apiece would not.
func TestComputeKeepsTheBaton(t *testing.T) {
	const calls = 1000000
	start := time.Now()
	wall, _, err := Run(1, fastModel(), func(n *Node) {
		for i := 0; i < calls; i++ {
			n.Compute(1e-9)
		}
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wall[0]-calls*1e-9) > 1e-12 {
		t.Errorf("wall = %v, want %v", wall[0], calls*1e-9)
	}
	if budget := 100 * time.Millisecond; !raceDetector && elapsed > budget {
		t.Errorf("%d Compute calls took %v, budget %v", calls, elapsed, budget)
	}
}

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// countingInjector records what it is asked about and drops the
// message numbered dropAt on the 0 -> 2 pair (never, when dropAt < 0).
type countingInjector struct {
	asked  [][3]int // (src, dst, n) per consultation
	dropAt int
}

func (d *countingInjector) DropMessage(src, dst, n int, t float64) bool {
	d.asked = append(d.asked, [3]int{src, dst, n})
	return src == 0 && dst == 2 && n == d.dropAt
}

// An Injector (formerly Dropper) sees every inter-node eager send, numbered per directed
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
			if n.Rank == 2 {
				n.Recv(0, 3)
			}
			return
		}
		n.Send(n.Rank, 9, []float64{0}) // self
		n.Recv(n.Rank, 9)
		for _, dst := range []int{1, 2} {
			n.Send(dst, 1, []float64{1})         // eager
			n.Send(dst, 1, make([]float64, 100)) // rendezvous
		}
		n.Send(2, 3, []float64{2}) // the pair's second eager message
	}
	d := &countingInjector{dropAt: -1}
	if _, _, err := RunWithFaults(3, model, d, body); err != nil {
		t.Fatalf("RunWithFaults: %v", err)
	}
	if got, want := fmt.Sprint(d.asked), "[[0 2 0] [0 2 1]]"; got != want {
		t.Fatalf("Injector consulted on %s, want %s", got, want)
	}
	d = &countingInjector{dropAt: 1}
	_, _, err := RunWithFaults(3, model, d, body)
	if !errors.Is(err, ErrMessageDropped) {
		t.Fatalf("err = %v, want ErrMessageDropped", err)
	}
	if !strings.Contains(err.Error(), "rank 0: eager message 1 to rank 2") {
		t.Errorf("err = %v, want the dropped message named", err)
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
	w2, c2, err2 := RunWithFaults(4, fastModel(), &countingInjector{dropAt: -1}, body)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	for i := range w1 {
		if w1[i] != w2[i] || c1[i] != c2[i] {
			t.Fatalf("rank %d: plain run (%v,%v) != observed run (%v,%v)",
				i, w1[i], c1[i], w2[i], c2[i])
		}
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
