package supervisor

import (
	"math"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
	"nektar/internal/mpi"
	"nektar/internal/policy"
	"nektar/internal/simnet"
)

// Control-plane tags live in the user tag space, above the solvers'
// own traffic (gs uses 1<<22) and below the collective space (1<<24).
const (
	ctlTag  = 1<<23 + 101 // solver rank -> monitor
	haltTag = 1<<23 + 102 // monitor -> solver rank
)

// Control message kinds (first element of the 3-float payload
// [kind, rank, step]).
const (
	ctlHeartbeat = iota
	ctlDone
	ctlTrip
)

// verdict is the monitor's reason for ending an attempt.
type verdict struct {
	kind  verdictKind
	ranks []int // suspects (silence) or the tripping rank
	at    float64
	step  int
}

type verdictKind int

const (
	verdictSuspect verdictKind = iota // heartbeat silence past phi threshold
	verdictTrip                       // watchdog trip reported by a rank
)

// attempt is the shared state of one launch: completion flags,
// watchdog trips, and the monitor's verdict. Rank goroutines write
// only their own slots and the simulator's scheduler serializes
// execution, so no locking is needed; the harness reads everything
// after the run ends.
type attempt struct {
	cfg   *Config
	index int

	model *simnet.Model
	inj   simnet.Injector

	committedStep int
	committed     [][]byte

	// Per-solver-rank stall schedule (rank-keyed; +Inf = never), used
	// to diagnose stall failures after the run.
	stallAt []float64

	final    [][]byte
	done     []bool
	trips    []*engine.Trip
	stepsRun []int
	verdict  *verdict

	// ad is the adaptive layer's per-attempt state (nil = static run).
	ad *attemptAdapt
}

func newAttempt(cfg *Config, pool *simnet.SparePool, index, committedStep int, committed [][]byte) *attempt {
	procs := cfg.Procs
	// Placement: each solver rank on its own physical node (per the
	// pool's current assignment), the monitor on a dedicated head node
	// behind the spares. The head node is outside the fault plan's
	// node range, so the monitor itself never fails — a single reliable
	// observer; detector redundancy is future work.
	headNode := procs + cfg.Spares
	nodeMap := append(pool.NodeMap(), headNode)
	model := *cfg.Model
	model.NodeMap = nodeMap

	a := &attempt{
		cfg:           cfg,
		index:         index,
		model:         &model,
		committedStep: committedStep,
		committed:     committed,
		stallAt:       make([]float64, procs),
		final:         make([][]byte, procs),
		done:          make([]bool, procs),
		trips:         make([]*engine.Trip, procs),
		stepsRun:      make([]int, procs),
	}
	for r := range a.stallAt {
		a.stallAt[r] = math.Inf(1)
	}
	if cfg.Faults != nil {
		adapter := &nodeKeyedInjector{base: cfg.Faults, nodeOf: nodeMap, nodes: procs + cfg.Spares}
		if rs, ok := cfg.Faults.(simnet.RankStaller); ok {
			adapter.staller = rs
			for r := 0; r < procs; r++ {
				a.stallAt[r], _ = adapter.RankStall(r)
			}
		}
		a.inj = adapter
	}
	return a
}

func (a *attempt) monitorRank() int { return a.cfg.Procs }

func (a *attempt) body(n *simnet.Node) {
	if n.Rank == a.monitorRank() {
		a.monitor(n)
		return
	}
	a.worker(n)
}

// completed reports whether every solver rank finished all steps.
func (a *attempt) completed() bool {
	for _, d := range a.done {
		if !d {
			return false
		}
	}
	return true
}

// stallFired reports whether rank r's scheduled process freeze
// actually happened before the rank's clock stopped.
func (a *attempt) stallFired(r int, wallR float64) bool {
	return !math.IsInf(a.stallAt[r], 1) && wallR >= a.stallAt[r]
}

func (a *attempt) verdictRanks() []int {
	if a.verdict == nil {
		return nil
	}
	return a.verdict.ranks
}

// attemptWall is the virtual wall time this attempt cost the campaign.
// After a silence verdict the simulation still unwinds the blocked
// survivors (and a frozen rank drains its stall before exiting); a
// real supervisor kills the job at the verdict, so the post-verdict
// tail is a simulation artifact and is excluded.
func (a *attempt) attemptWall(wall []float64) float64 {
	if a.verdict != nil && a.verdict.kind == verdictSuspect {
		return a.verdict.at
	}
	var m float64
	for _, w := range wall {
		if w > m {
			m = w
		}
	}
	return m
}

// worker is one solver rank: the engine's driver loop with the
// supervisor's hooks plugged in — a collective halt poll before every
// step, a heartbeat to the monitor after the watchdog clears, and
// checkpoint staging with its I/O cost.
func (a *attempt) worker(n *simnet.Node) {
	comm, err := mpi.SubWorld(n, a.cfg.Procs)
	if err != nil {
		panic(err)
	}
	s, err := a.cfg.NewSolver(comm)
	if err != nil {
		panic(err)
	}
	if a.committedStep >= 0 {
		if lerr := engine.Restore(s, a.committed[n.Rank]); lerr != nil {
			panic(lerr)
		}
		if a.cfg.Trace != nil {
			a.cfg.Trace.Emit(engine.Event{
				Ev: engine.EvRollback, Rank: n.Rank,
				Step: a.committedStep, Attempt: a.index,
			})
		}
	}

	// The rank's one checkpoint writer: it persists each record to the
	// campaign's store and prices it from the stored size through the
	// cluster's disk model (free when SimDiskMBs is 0).
	w := &ckpt.SimWriter{Kind: a.cfg.Kind, Store: a.cfg.Store, Comm: comm, DiskMBs: a.cfg.SimDiskMBs}
	// Adaptive wiring: every rank builds its own cadence controller
	// (decisions are collective, so all instances hold identical state).
	// Rank 0's instance traces the retunes and is read back by the
	// supervisor after the attempt.
	var ctl *policy.CadenceController
	if a.ad != nil {
		var tr *engine.Tracer
		if n.Rank == 0 {
			tr = a.cfg.Trace
		}
		ctl = policy.NewCadence(a.ad.cfg, tr, a.ad.interval, a.ad.anchor)
		if n.Rank == 0 {
			a.ad.ctl = ctl
		}
	}
	// Per-step duration measurement for the cadence controller: virtual
	// time since the last checkpoint divided by the steps in between.
	lastMark := n.Clock()
	stepsSince := 0

	loop := engine.Loop{
		Solver: s, Steps: a.cfg.Steps, Rank: n.Rank, Trace: a.cfg.Trace,
		// A halt order parks in the inbox while we are inside a step;
		// the deadline Clock() makes this a non-blocking poll. The
		// decision to stop must be collective: a peer may already be
		// blocked inside the next step's collectives when the order
		// lands, so the ranks agree on the flag at every boundary and
		// exit at the same step.
		Poll: func() bool {
			halted := 0.0
			if _, ok := n.RecvDeadline(a.monitorRank(), haltTag, n.Clock()); ok {
				halted = 1
			}
			return comm.Allreduce([]float64{halted}, mpi.Max)[0] > 0
		},
		// Per-step accounting goes through the shared slot immediately
		// after each step, so it survives a crash unwinding this rank.
		OnStep: func(int) {
			a.stepsRun[n.Rank]++
			stepsSince++
		},
		// The engine's default watchdog: NaN/Inf, sampled every step.
		Watchdog: engine.Watchdog{
			// The verdict must be collective: if any rank is sick, every
			// rank exits at this same boundary — a lone exit would leave
			// the others blocked in the next collective. The corrupt
			// state is abandoned before it can reach the store.
			Agree: func(bad bool) bool {
				flag := 0.0
				if bad {
					flag = 1
				}
				return comm.Allreduce([]float64{flag}, mpi.Max)[0] > 0
			},
			OnTrip: func(tr engine.Trip) {
				a.trips[n.Rank] = &tr
				n.SendControl(a.monitorRank(), ctlTag, []float64{ctlTrip, float64(tr.Rank), float64(tr.Step)})
			},
		},
		PostStep: func(step int) {
			n.SendControl(a.monitorRank(), ctlTag, []float64{ctlHeartbeat, float64(n.Rank), float64(step)})
		},
		CheckpointEvery: a.cfg.CheckpointEvery,
		OnCheckpoint: func(step int, state []byte) {
			t0 := n.Clock()
			if werr := w.Submit(step, state, false); werr != nil {
				panic(werr)
			}
			if a.cfg.CheckpointCostS > 0 {
				n.Sleep(a.cfg.CheckpointCostS)
			}
			if a.ad != nil {
				// Live retune: agree on the worst-case measured cost and
				// step duration (the collective keeps every rank's
				// controller state identical), then apply Young's
				// formula.
				cost := n.Clock() - t0
				stepWall := 0.0
				if stepsSince > 0 {
					stepWall = (t0 - lastMark) / float64(stepsSince)
				}
				v := comm.Allreduce([]float64{stepWall, cost}, mpi.Max)
				ctl.Observe(step, v[1], v[0], a.ad.mtbfS)
			}
			lastMark = n.Clock()
			stepsSince = 0
		},
	}
	if a.ad != nil {
		// The live policy replaces the static rule (setting both is an
		// engine configuration error).
		loop.CheckpointEvery = 0
		loop.Cadence = ctl
	}
	res, err := loop.Run()
	if err != nil {
		panic(err)
	}
	if res.Outcome != engine.Completed {
		return
	}
	a.final[n.Rank] = res.Final
	a.done[n.Rank] = true
	n.SendControl(a.monitorRank(), ctlTag, []float64{ctlDone, float64(n.Rank), float64(s.StepCount())})
}

// monitor is the failure-detection rank: it feeds heartbeats into the
// per-rank phi detectors and sleeps until the earliest detector
// deadline. Every wait is deadline-bounded, so the monitor always
// terminates: with a verdict (silence or trip) or when every rank has
// reported done.
func (a *attempt) monitor(n *simnet.Node) {
	procs := a.cfg.Procs
	dets := make([]*PhiDetector, procs)
	for r := range dets {
		dets[r] = NewPhiDetector(a.cfg.Heartbeat.Threshold, a.cfg.Heartbeat.InitialInterval, detectorWindow)
	}
	live := make([]bool, procs)
	for r := range live {
		live[r] = true
	}
	nlive := procs
	for nlive > 0 {
		dl := math.Inf(1)
		for r, l := range live {
			if l && dets[r].Deadline() < dl {
				dl = dets[r].Deadline()
			}
		}
		msg, ok := n.RecvDeadline(simnet.AnySource, ctlTag, dl)
		now := n.Clock()
		if ok {
			if len(msg) != 3 {
				continue
			}
			kind, r, step := int(msg[0]), int(msg[1]), int(msg[2])
			if r < 0 || r >= procs {
				continue
			}
			switch kind {
			case ctlHeartbeat:
				dets[r].Observe(now)
			case ctlDone:
				if live[r] {
					live[r] = false
					nlive--
				}
			case ctlTrip:
				a.verdict = &verdict{kind: verdictTrip, ranks: []int{r}, at: now, step: step}
				a.halt(n, live)
				return
			}
			continue
		}
		// Detector deadline expired: every live rank past its deadline
		// is a suspect. (A blocked survivor waiting on the dead rank
		// also goes silent, so the suspect set can be a superset of the
		// true failures; the harness diagnoses the exact ranks
		// out-of-band, as an operator would inspect the nodes.)
		var suspects []int
		for r, l := range live {
			if l && dets[r].Deadline() <= now {
				suspects = append(suspects, r)
			}
		}
		if len(suspects) == 0 {
			continue
		}
		a.verdict = &verdict{kind: verdictSuspect, ranks: suspects, at: now}
		a.halt(n, live)
		return
	}
}

// halt orders every rank that has not reported done to stop at its
// next step boundary. Sends to already-dead ranks are harmless.
func (a *attempt) halt(n *simnet.Node, live []bool) {
	for r, l := range live {
		if l {
			n.SendControl(r, haltTag, nil)
		}
	}
}

// nodeKeyedInjector adapts a fault plan keyed by physical node to the
// simulator's rank-keyed Injector interface, through the spare pool's
// current placement. A rank moved onto a spare node stops seeing the
// retired node's faults; the replacement node brings its own (if the
// plan schedules any).
type nodeKeyedInjector struct {
	base    simnet.Injector
	staller simnet.RankStaller // nil when base has no rank stalls
	nodeOf  []int              // rank -> physical node, monitor included
	nodes   int                // physical nodes addressable by the plan
}

func (k *nodeKeyedInjector) CrashTime(rank int) float64 {
	return k.base.CrashTime(k.nodeOf[rank])
}

func (k *nodeKeyedInjector) RankStall(rank int) (start, dur float64) {
	if k.staller == nil {
		return math.Inf(1), 0
	}
	return k.staller.RankStall(k.nodeOf[rank])
}

// ValidatePlan checks the node-keyed plan against the physical node
// range (the head node is deliberately outside it: the monitor cannot
// be a fault target).
func (k *nodeKeyedInjector) ValidatePlan(ranks int) error {
	if v, ok := k.base.(simnet.PlanValidator); ok {
		return v.ValidatePlan(k.nodes)
	}
	return nil
}
