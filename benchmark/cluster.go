package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"nektar/internal/blas"
	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// clusterRun describes one run of a solver on the simulated cluster:
// every rank builds its solver, takes warm untimed steps, then timed
// steps that rank 0 times with the host clock.
type clusterRun struct {
	label string // workload name, for op ids
	p     int
	sched simnet.Scheduler
	mk    func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error)
	warm  int
	timed int

	// countMsgs installs a pass-through injector that counts eager
	// messages per sending rank. It changes no virtual time, but the
	// simulator does extra bookkeeping under any injector, so timed
	// windows leave it off.
	countMsgs bool
	// afterWarm and atEnd run on every rank at its own step boundary,
	// outside the timed steps.
	afterWarm func(rank int, s engine.Solver)
	atEnd     func(rank int, s engine.Solver)

	// memWindow makes rank 0 read the allocator and GC counters at both
	// ends of the timed window.
	memWindow bool

	// speed is sampled speedReps times by rank 0 before each timed step:
	// about 1% of the step's own time.
	speed     *hostSpeed
	speedReps int

	tr *tracer
}

// memWindow is the process-wide allocation and GC activity over a timed
// window, per op. Under the serial scheduler the order of every rank's
// allocations is a function of virtual time alone, so with the
// collector off the counts repeat exactly.
type memWindow struct {
	allocs, bytes float64 // heap objects and bytes allocated per op
	gcCPUFrac     float64 // share of the process's CPU time spent in the collector
}

type memSample struct {
	ms           runtime.MemStats
	gcCPU, total float64
}

func readMem() memSample {
	var s memSample
	runtime.ReadMemStats(&s.ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.total = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return s
}

func (a memSample) until(b memSample, ops int) *memWindow {
	w := &memWindow{
		allocs: float64(b.ms.Mallocs-a.ms.Mallocs) / float64(ops),
		bytes:  float64(b.ms.TotalAlloc-a.ms.TotalAlloc) / float64(ops),
	}
	if b.total > a.total {
		w.gcCPUFrac = (b.gcCPU - a.gcCPU) / (b.total - a.total)
	}
	return w
}

// clusterResult is what one clusterRun measured.
type clusterResult struct {
	setup time.Duration // run start until the last rank finished construction
	opMS  []float64     // host milliseconds of each timed step, on rank 0

	vwallPerStep float64     // rank 0 virtual seconds per timed step
	clocks       []float64   // per-rank virtual clock after the last step
	counts       blas.Counts // priced BLAS work over the timed window, all ranks
	eagerMsgs    int64       // eager messages sent over the timed window, all ranks
	mem          *memWindow  // when memWindow was asked for
}

// msgCounter is a simnet.Injector that injects nothing and counts the
// eager messages each rank sends. Each rank only ever increments and
// reads its own slot, from its own goroutine.
type msgCounter struct{ sent []int64 }

func (c *msgCounter) DropMessage(src, dst, n int, t float64) bool { c.sent[src]++; return false }
func (c *msgCounter) LinkFactors(src, dst int, t float64) (float64, float64) {
	return 1, 1
}
func (c *msgCounter) StallUntil(node int, t float64) float64 { return t }
func (c *msgCounter) CrashTime(rank int) float64             { return math.Inf(1) }

// tracedSolver is the benchmark-owned engine.Solver decorator: it
// wraps Step and Checkpoint in spans under the current op.
type tracedSolver struct {
	engine.Solver
	tr     *tracer
	parent int
	op     string
}

func (s *tracedSolver) Step() {
	id := s.tr.begin("solver.Step", s.parent, s.op)
	s.Solver.Step()
	s.tr.end(id)
}

func (s *tracedSolver) Checkpoint(w io.Writer) error {
	id := s.tr.begin("solver.Checkpoint", s.parent, s.op)
	defer s.tr.end(id)
	return s.Solver.Checkpoint(w)
}

// isTraced decides which ops of a traced window carry spans: about
// half, picked by a hash of the op index. Traced and untraced ops then
// interleave through the same solver state, so the difference of their
// medians is the tracing overhead and nothing else — ALE steps in
// particular differ in cost from one to the next — and no fixed stride
// can fall in step with a periodic garbage collection.
func isTraced(i int) bool { return mix64(uint64(i)+0x9e3779b97f4a7c15)&1 == 1 }

func tracedOp(tr *tracer, i int) *tracer {
	if isTraced(i) {
		return tr
	}
	return nil
}

// splitTraced separates a traced window's op times into the untraced
// and the traced ops.
func splitTraced(opMS []float64) (untraced, traced []float64) {
	for i, v := range opMS {
		if isTraced(i) {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	return untraced, traced
}

// stepOp runs one solver step as op i of the named workload. Under a
// tracer the op becomes a root span with the decorated Step inside it.
func stepOp(s engine.Solver, tr *tracer, workload string, i int) {
	if tr = tracedOp(tr, i); tr == nil {
		s.Step()
		return
	}
	op := fmt.Sprintf("%s/step#%d", workload, i)
	root := tr.begin("op", -1, op)
	(&tracedSolver{Solver: s, tr: tr, parent: root, op: op}).Step()
	tr.end(root)
}

// run executes the cluster run on the Muses machine model (the paper's
// own PC cluster) with compute priced by its CPU model, so the virtual
// clocks mean something.
func (c clusterRun) run() (*clusterResult, error) {
	mach := machine.Muses()
	model := *mach.Net
	model.Scheduler = c.sched
	res := &clusterResult{opMS: make([]float64, c.timed), clocks: make([]float64, c.p)}
	var inj simnet.Injector
	var msgs *msgCounter
	if c.countMsgs {
		msgs = &msgCounter{sent: make([]int64, c.p)}
		inj = msgs
	}
	ready := make([]time.Time, c.p)
	counts := make([]blas.Counts, c.p)
	sent := make([]int64, c.p)
	var v0, v1 float64
	var mem0 memSample

	t0 := time.Now()
	_, _, err := simnet.RunWithFaults(c.p, &model, inj, func(n *simnet.Node) {
		comm := mpi.World(n)
		s, err := c.mk(comm, &mach.CPU)
		if err != nil {
			panic(err)
		}
		ready[n.Rank] = time.Now()
		if c.timed == 0 {
			return
		}
		for i := 0; i < c.warm; i++ {
			s.Step()
		}
		if c.afterWarm != nil {
			c.afterWarm(n.Rank, s)
		}
		// The first barrier gathers the ranks at the end of the warm-up;
		// rank 0 then collects garbage while the others wait at the second,
		// so the timed steps of every cycle start from the same heap and
		// their own collections fall on the same steps.
		comm.Barrier()
		if n.Rank == 0 {
			runtime.GC()
		}
		comm.Barrier()
		before := s.Stages().Total()
		if msgs != nil {
			sent[n.Rank] = msgs.sent[n.Rank]
		}
		if n.Rank == 0 {
			if c.memWindow {
				mem0 = readMem()
			}
			v0 = comm.Wtime()
		}
		// Under the serial scheduler the other ranks run while rank 0 is
		// blocked inside a step, so rank 0's clock covers their work too.
		for i := 0; i < c.timed; i++ {
			if n.Rank != 0 {
				s.Step()
				continue
			}
			c.speed.sample(c.speedReps)
			t0 := time.Now()
			stepOp(s, c.tr, c.label, i)
			res.opMS[i] = millis(time.Since(t0))
		}
		res.clocks[n.Rank] = n.Clock()
		if n.Rank == 0 {
			v1 = comm.Wtime()
			if c.memWindow {
				res.mem = mem0.until(readMem(), c.timed)
			}
		}
		after := s.Stages().Total()
		after.Sub(&before)
		counts[n.Rank] = after
		if msgs != nil {
			sent[n.Rank] = msgs.sent[n.Rank] - sent[n.Rank]
		}
		if c.atEnd != nil {
			c.atEnd(n.Rank, s)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, r := range ready {
		if d := r.Sub(t0); d > res.setup {
			res.setup = d
		}
	}
	if c.timed > 0 {
		res.vwallPerStep = (v1 - v0) / float64(c.timed)
		for r := range counts {
			res.counts.Add(&counts[r])
			res.eagerMsgs += sent[r]
		}
	}
	return res, nil
}
