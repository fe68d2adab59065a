package simnet

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"nektar/internal/blas"
)

// Differential tests: the parallel conservative scheduler must produce
// bit-identical virtual clocks and identical errors to the serial
// scheduler for any program and network model. The bodies below
// deliberately hit every primitive — eager and rendezvous sends,
// nonblocking Wait, self-sends, wildcard receives, Compute — and the
// error paths (deadlock, a panicking rank).

// runBoth runs the same body under both schedulers and asserts exactly
// equal per-rank wall/cpu clocks and identical error text.
func runBoth(t *testing.T, label string, p int, model Model, inj Injector, body func(*Node)) {
	t.Helper()
	serial := model
	serial.Scheduler = SchedSerial
	par := model
	par.Scheduler = SchedParallel
	wallS, cpuS, errS := RunWithFaults(p, &serial, inj, body)
	wallP, cpuP, errP := RunWithFaults(p, &par, inj, body)
	es, ep := fmt.Sprint(errS), fmt.Sprint(errP)
	if es != ep {
		t.Fatalf("%s: error diverged:\nserial:   %s\nparallel: %s", label, es, ep)
	}
	for r := 0; r < p; r++ {
		if math.Float64bits(wallS[r]) != math.Float64bits(wallP[r]) {
			t.Errorf("%s: rank %d wall clock diverged: serial %v parallel %v", label, r, wallS[r], wallP[r])
		}
		if math.Float64bits(cpuS[r]) != math.Float64bits(cpuP[r]) {
			t.Errorf("%s: rank %d cpu clock diverged: serial %v parallel %v", label, r, cpuS[r], cpuP[r])
		}
	}
}

// diffModels returns network models spanning the simulator's feature
// space: pure eager, rendezvous, SMP nodes with a shared backplane,
// and a half-duplex shared wire.
func diffModels() map[string]Model {
	return map[string]Model{
		"eager": {
			Name:  "diff-eager",
			Inter: LinkModel{LatencyUS: 100, BandwidthMBs: 12, OverheadUS: 30, CPUCopyMBs: 50},
		},
		"rendezvous": {
			Name:  "diff-rendezvous",
			Inter: LinkModel{LatencyUS: 20, BandwidthMBs: 100, OverheadUS: 5, CPUCopyMBs: 0, EagerLimit: 4096},
		},
		"smp-backplane": {
			Name:         "diff-smp",
			Inter:        LinkModel{LatencyUS: 80, BandwidthMBs: 10, OverheadUS: 25, CPUCopyMBs: 40, EagerLimit: 8192},
			Intra:        LinkModel{LatencyUS: 2, BandwidthMBs: 300, OverheadUS: 1},
			RanksPerNode: 2,
			BackplaneMBs: 15,
		},
		"half-duplex": {
			Name:  "diff-half",
			Inter: LinkModel{LatencyUS: 120, BandwidthMBs: 10, OverheadUS: 35, CPUCopyMBs: 45, HalfDuplex: true},
		},
	}
}

// diffBody is the primitive-coverage program: every rank computes,
// exchanges eager and rendezvous rings, self-sends, and joins a
// wildcard fan-in on rank 0 that takes messages in arrival order.
func diffBody(n *Node) {
	p := n.P
	next := (n.Rank + 1) % p
	prev := (n.Rank + p - 1) % p

	n.Compute(1e-4 * float64(n.Rank+1))

	// Eager ring.
	n.Send(next, 1, []float64{float64(n.Rank)})
	n.Recv(prev, 1)

	// Rendezvous-sized ring with an overlapped Wait.
	big := make([]float64, 1500)
	for i := range big {
		big[i] = float64(n.Rank*3 + i)
	}
	r := n.Isend(next, 2, big)
	n.Compute(5e-5)
	n.Recv(prev, 2)
	n.Wait(r)

	// Self-send and a wildcard receive.
	n.Send(n.Rank, 3, []float64{42})
	n.Recv(AnySource, 3)
	n.Compute(1e-5 * float64(p-n.Rank))

	// Uneven fan-in: rank 0 takes one message from every other rank by
	// wildcard source, in the order they arrive.
	if n.Rank == 0 {
		for i := 1; i < p; i++ {
			n.Recv(AnySource, 4)
		}
	} else {
		n.Send(0, 4, []float64{n.Clock()})
	}

	// Final eager ring so the clocks keep interacting.
	n.Send(next, 6, []float64{n.Clock()})
	n.Recv(prev, 6)
}

func TestSchedulerDifferentialFaultFree(t *testing.T) {
	for name, model := range diffModels() {
		for _, p := range []int{2, 3, 5} {
			runBoth(t, fmt.Sprintf("%s/p=%d", name, p), p, model, nil, diffBody)
		}
	}
}

// pairLog is an observing Injector shared by both schedulers' runs:
// it counts each consultation by (src, dst, n).
type pairLog struct {
	mu   sync.Mutex
	seen map[[3]int]int
}

func (l *pairLog) DropMessage(src, dst, n int, t float64) bool {
	l.mu.Lock()
	l.seen[[3]int{src, dst, n}]++
	l.mu.Unlock()
	return false
}

// With the one remaining fault hook installed, both schedulers must
// still agree bit for bit, and each must consult the injector on
// exactly the same eager messages.
func TestSchedulerDifferentialWithFaults(t *testing.T) {
	for name, model := range diffModels() {
		for _, p := range []int{2, 3, 5} {
			label := fmt.Sprintf("%s/p=%d", name, p)
			inj := &pairLog{seen: map[[3]int]int{}}
			runBoth(t, label, p, model, inj, diffBody)
			if len(inj.seen) == 0 && model.RanksPerNode < p {
				t.Errorf("%s: injector never consulted across nodes", label)
			}
			for k, n := range inj.seen {
				if n != 2 {
					t.Errorf("%s: message %v seen %d times over the two runs, want once per scheduler", label, k, n)
				}
			}
		}
	}
}

func TestResolveScheduler(t *testing.T) {
	if !blas.ThreadRecordingSupported() {
		t.Skip("platform cannot key BLAS recording by thread")
	}
	// SchedAuto is the serial reference on every core count; the
	// parallel scheduler runs only when named.
	cases := []struct {
		env  string
		mode Scheduler
		p    int
		want schedKind
	}{
		{"", SchedAuto, 8, kindSerial},
		{"", SchedAuto, 1, kindSerial},
		{"", SchedSerial, 8, kindSerial},
		{"", SchedParallel, 8, kindParallel},
		{"", SchedParallel, 1, kindSerial},
		{"serial", SchedParallel, 8, kindSerial},
		{"serial", SchedAuto, 8, kindSerial},
		{"parallel", SchedSerial, 8, kindParallel},
		{"auto", SchedParallel, 8, kindSerial},
	}
	for _, c := range cases {
		t.Setenv(SchedulerEnv, c.env)
		m := &Model{Scheduler: c.mode}
		got, err := resolveScheduler(m, c.p)
		if err != nil {
			t.Errorf("resolveScheduler(env=%q, mode=%v, p=%d) unexpected error: %v",
				c.env, c.mode, c.p, err)
			continue
		}
		if got != c.want {
			t.Errorf("resolveScheduler(env=%q, mode=%v, p=%d) = %v, want %v",
				c.env, c.mode, c.p, got, c.want)
		}
	}
}

func TestResolveSchedulerErrors(t *testing.T) {
	cases := []struct {
		name string
		env  string
		m    Model
	}{
		{"bogus-env", "concurrent", Model{}},
		{"bogus-env-spaces", " parallel", Model{}},
		{"bogus-mode", "", Model{Scheduler: Scheduler(99)}},
		{"relaxed-env", "relaxed", Model{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv(SchedulerEnv, c.env)
			m := c.m
			_, err := resolveScheduler(&m, 8)
			if err == nil {
				t.Fatalf("resolveScheduler(env=%q, mode=%v) = nil error, want error",
					c.env, m.Scheduler)
			}
			// The rejection names the whole menu: exactly three modes.
			menu := "(valid: auto, serial, parallel)"
			if c.env == "" {
				menu = "(valid: SchedAuto, SchedSerial, SchedParallel)"
			}
			if !strings.Contains(err.Error(), menu) {
				t.Errorf("resolveScheduler(env=%q, mode=%v) error lacks the menu %q: %v",
					c.env, m.Scheduler, menu, err)
			}
			// The validation error must also surface from the public
			// entry point, before any goroutine is launched.
			if _, _, err := RunWithFaults(2, &m, nil, func(n *Node) {}); err == nil {
				t.Errorf("RunWithFaults(env=%q, mode=%v) = nil error, want error",
					c.env, m.Scheduler)
			}
		})
	}
}

// TestSchedulerDifferentialBatchBurst drives the batched-admission fast
// path hard: rank clumps issue long runs of consecutive shared-state
// events at nearly identical virtual times, so the same rank is
// repeatedly the global minimum and must re-admit itself without a
// scheduler round trip — while still interleaving bit-identically with
// the other ranks' eager traffic.
func TestSchedulerDifferentialBatchBurst(t *testing.T) {
	body := func(n *Node) {
		next := (n.Rank + 1) % n.P
		prev := (n.Rank + n.P - 1) % n.P
		for round := 0; round < 4; round++ {
			// A burst of cheap sends: consecutive events from one rank
			// with tiny clock increments (the batch fast path).
			for i := 0; i < 12; i++ {
				n.Send(next, 10+i, []float64{float64(i)})
			}
			for i := 0; i < 12; i++ {
				n.Recv(prev, 10+i)
			}
			// Skew the clocks so a different rank owns the next burst.
			n.Compute(1e-5 * float64((n.Rank+round)%n.P+1))
		}
	}
	for name, model := range diffModels() {
		for _, p := range []int{2, 4, 7} {
			runBoth(t, fmt.Sprintf("%s/p=%d", name, p), p, model, nil, body)
		}
	}
}

// TestSchedulerDifferentialHandoffEdges covers the instants the serial
// scheduler's baton passing has to get right on its own now that no
// central loop sits between two slices. The heap-elected parallel
// scheduler is the reference: clocks and errors must agree bit for bit.
func TestSchedulerDifferentialHandoffEdges(t *testing.T) {
	ring := func(steps int, dt func(rank, step int) float64) func(*Node) {
		return func(n *Node) {
			next, prev := (n.Rank+1)%n.P, (n.Rank+n.P-1)%n.P
			for s := 0; s < steps; s++ {
				n.Compute(dt(n.Rank, s))
				n.Send(next, s, []float64{n.Clock()})
				n.Recv(prev, s)
			}
		}
	}
	for _, tc := range []struct {
		name string
		p    int
		body func(*Node)
	}{
		{
			// Skewed compute per rank: the election order of the ranks
			// shifts from step to step and the NIC bookings with it.
			name: "skewed ring", p: 3,
			body: ring(4, func(rank, step int) float64 { return 1e-3 + 1e-4*float64((rank+step)%3) }),
		},
		{
			// Rank 0 finishes while ranks 1 and 2 are blocked: its last
			// send has woken rank 2, which must get the baton from the
			// finishing rank and pass its message on to rank 1.
			name: "finishing rank hands the baton to the rank it woke", p: 3,
			body: func(n *Node) {
				switch n.Rank {
				case 0:
					n.Compute(1e-3)
					n.Send(2, 5, []float64{1})
				case 1:
					n.Recv(2, 5)
				case 2:
					n.Send(1, 5, n.Recv(0, 5))
				}
			},
		},
		{
			// The first panic is the run's error under either scheduler and
			// the ranks that do not depend on the dead one finish.
			name: "panic mid-slice", p: 3,
			body: func(n *Node) {
				n.Compute(1e-3 * float64(n.Rank+1))
				if n.Rank == 1 {
					n.Send(2, 1, []float64{1})
					panic("boom")
				}
				if n.Rank == 2 {
					n.Recv(1, 1)
				}
				n.Compute(1e-3)
			},
		},
	} {
		for name, model := range diffModels() {
			runBoth(t, tc.name+"/"+name, tc.p, model, nil, tc.body)
		}
	}
}
