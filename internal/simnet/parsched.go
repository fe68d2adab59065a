package simnet

// Host-parallel conservative scheduler.
//
// The serial scheduler (simnet.go) runs one rank goroutine at a time:
// it elects the runnable rank with the smallest (virtual clock, rank)
// pair, lets it run one slice — host work followed by one Node call's
// shared-state mutations — and repeats. That makes every run
// deterministic but leaves all host cores except one idle while the
// ranks' real numeric work (the BLAS flops that drive the calibrated
// virtual time) executes.
//
// The parallel scheduler exploits one structural invariant: a rank's
// virtual clock only changes inside Node calls. Between a release (the
// end of one Node call's mutations) and the rank's next Node call, its
// election key is frozen — so the scheduler always knows every rank's
// next event time even while the rank is off running host code on
// another core. It can therefore run the serial election unchanged:
// elect the minimum (key, rank); if that rank is still "in flight"
// (running host code), wait for it to arrive at its next Node call;
// admit it; run the call's shared-state mutations alone; repeat. Host
// work overlaps freely across cores; shared-state events are admitted
// in exactly the serial order, so message matching, resource booking
// and the virtual clocks are bit-identical to the serial scheduler.
// DESIGN.md §10 gives the full argument; §13 covers the indexed
// election and admission batching below.
//
// Two refinements keep the common path fast:
//
//   - Compute touches only the rank's own clock, invisible to every
//     other rank, so it skips admission entirely: the rank bumps its
//     clock and releases (updating its frozen key) without parking.
//     A long compute phase never serializes against the event loop.
//
//   - Batched admission: a rank releasing an event whose next key still
//     precedes every other electable candidate would win the very next
//     election, so it keeps its admission and runs the next event
//     without a park/elect/resume round trip. Election keys never
//     decrease and every wake performed so far was done by this rank's
//     own completed mutations, so no competing candidate can appear
//     with a smaller key in between — the skipped election is a
//     foregone conclusion and the admission order is unchanged.

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"nektar/internal/blas"
)

// SchedulerEnv is the environment variable that overrides
// Model.Scheduler for a whole process: "auto", "serial" or "parallel".
// The Makefile's race-simnet target and the differential tests use it.
// Any other non-empty value rejects the run.
const SchedulerEnv = "NEKTAR_SIMNET_SCHED"

// schedKind is the resolved execution strategy for one run.
type schedKind int

const (
	kindSerial schedKind = iota
	kindParallel
)

// resolveScheduler validates the scheduler selection and decides which
// execution strategy a run uses. Selection errors (an unknown
// Model.Scheduler value, a bogus NEKTAR_SIMNET_SCHED override) are
// reported up front with the valid menu. Single-rank runs and
// platforms without thread-keyed BLAS recording (which per-rank
// operation counting needs once ranks overlap) fall back to serial.
// SchedAuto resolves to the serial reference on every host: measured
// on 2 cores the conservative scheduler's per-event admission handoff
// costs more than the overlapped host work buys on every recorded cell
// (nsf 0.60-0.88x of serial, nsale 0.04x; EXPERIMENTS.md, Simbench
// record of 2026-09-28), so it runs only where a caller or the
// environment variable asks for it by name. Forcing SchedParallel
// works on any core count — the differential and race suites depend
// on that.
func resolveScheduler(m *Model, p int) (schedKind, error) {
	mode := m.Scheduler
	switch mode {
	case SchedAuto, SchedSerial, SchedParallel:
	default:
		return kindSerial, fmt.Errorf(
			"simnet: unknown Model.Scheduler %d (valid: SchedAuto, SchedSerial, SchedParallel)", int(mode))
	}
	if env := os.Getenv(SchedulerEnv); env != "" {
		switch env {
		case "auto":
			mode = SchedAuto
		case "serial":
			mode = SchedSerial
		case "parallel":
			mode = SchedParallel
		default:
			return kindSerial, fmt.Errorf(
				"simnet: %s=%q is not a scheduler mode (valid: auto, serial, parallel)", SchedulerEnv, env)
		}
	}
	if mode == SchedParallel && p >= 2 && blas.ThreadRecordingSupported() {
		return kindParallel, nil
	}
	return kindSerial, nil
}

// rankState tracks where a rank goroutine is in the parallel
// scheduler's protocol. Transitions by the rank itself happen under
// par.mu; the scheduler moves a rank to stAdmitted under par.mu before
// resuming it, so a rank always reads its own status race-free.
type rankState int

const (
	// stInFlight: running host code (or about to); its key is frozen.
	stInFlight rankState = iota
	// stArrived: parked at the top of a Node call, awaiting admission.
	stArrived
	// stAdmitted: executing a Node call's shared-state mutations; the
	// scheduler waits for its release.
	stAdmitted
	// stParked: parked at a blocked yield. blockKind distinguishes a
	// true block (not electable) from a woken rank awaiting re-election
	// (blockKind == blockNone).
	stParked
	// stDone: goroutine finished (completed or poisoned).
	stDone
)

// parSched is the shared state of the host-parallel scheduler.
type parSched struct {
	mu   sync.Mutex
	cond *sync.Cond
	live int // ranks not yet stDone

	// pq is the lazy election heap (elect.go); guarded by mu.
	pq electPQ
}

// lockPar/unlockPar guard state that an admitted rank shares with
// concurrently running rank goroutines (a sender entering Wait is the
// only Node-side writer that can run outside admission). They are
// no-ops under the serial scheduler, whose one-at-a-time execution
// needs no lock.
func (c *cluster) lockPar() {
	if c.par != nil {
		c.par.mu.Lock()
	}
}

func (c *cluster) unlockPar() {
	if c.par != nil {
		c.par.mu.Unlock()
	}
}

// begin is the admission gate at the top of every Node call that
// touches shared simulator state. The rank arrives with its election
// key frozen at its last release and parks until the scheduler admits
// it in global (key, rank) order. Re-entrant: a rank already admitted
// (woken inside a receive or wait loop, or holding a batched
// admission) passes straight through.
func (n *Node) begin() {
	c := n.net
	if c.par == nil {
		return
	}
	if n.status == stAdmitted {
		return
	}
	ps := c.par
	ps.mu.Lock()
	n.status = stArrived
	ps.cond.Broadcast()
	ps.mu.Unlock()
	<-n.resume
	if n.poison {
		panic(poisonSignal{})
	}
}

// parYield ends a Node call under the parallel scheduler: the event's
// mutations are complete, so publish the rank's next election key and
// either return to in-flight host execution or park (blocked). Mirrors
// the serial yield()'s park/resume contract: a parked rank returns from
// parYield admitted (woken) — or panics if poisoned.
func (c *cluster) parYield(n *Node) {
	ps := c.par
	ps.mu.Lock()
	n.key = n.clock
	if n.blockKind == blockNone {
		if n.status == stAdmitted && c.stillFirstLocked(n) {
			// Batched admission: the next election would re-elect this
			// rank, so keep the admission and skip the
			// park/elect/resume handshake. The scheduler stays parked
			// in its stAdmitted wait; no broadcast needed.
			ps.mu.Unlock()
			return
		}
		n.status = stInFlight
		c.pushElect(n)
		ps.cond.Broadcast()
		ps.mu.Unlock()
		return
	}
	n.status = stParked
	c.pushElect(n)
	ps.cond.Broadcast()
	ps.mu.Unlock()
	<-n.resume
	if n.poison {
		panic(poisonSignal{})
	}
}

// stillFirstLocked reports whether rank n's next event precedes every
// other electable candidate, making the next election a foregone
// conclusion. Sound because keys never decrease: a candidate that
// would beat (n.key, n.Rank) would have to already exist, and every
// wake since n's admission was performed by n's own completed
// mutations, which pushed the corresponding entries before this check.
// Caller holds par.mu.
func (c *cluster) stillFirstLocked(n *Node) bool {
	e, ok := c.minElect()
	if !ok {
		// No other candidate at all (entries for n itself are stale
		// while it is admitted): every other rank is blocked, so n is
		// trivially next.
		return true
	}
	return n.key < e.key || (n.key == e.key && int32(n.Rank) < e.rank)
}

// parWait is Wait under the parallel scheduler. The transfer-complete
// flag is written by the receiver's consume under par.mu, and a sender
// can reach Wait while the receiver is mid-admission, so the check and
// the decision to park must be one atomic step — otherwise the wake
// could slip between them. Both racy orderings converge on the serial
// outcome: a sender that parks just before the receiver completes the
// rendezvous is woken and re-elected at the same key the serial
// scheduler would have used, and a sender that observes the completed
// transfer proceeds exactly as the serial slice would.
func (n *Node) parWait(r *Request) {
	c := n.net
	ps := c.par
	ps.mu.Lock()
	for !r.m.xferDone {
		n.blockKind = blockSendRendezvous
		n.waitSend = r.m
		n.key = n.clock
		n.status = stParked
		ps.cond.Broadcast()
		ps.mu.Unlock()
		<-n.resume
		if n.poison {
			panic(poisonSignal{})
		}
		ps.mu.Lock()
		n.waitSend = nil
	}
	ps.mu.Unlock()
	n.clock = max(n.clock, r.m.ready)
	m := r.m
	r.m = nil
	m.release()
}

// parRank is the goroutine wrapper for one rank under the parallel
// scheduler. The goroutine is locked to its OS thread so package blas
// can key the rank's operation-count recording by thread id — the
// process-global recorder cannot span ranks once they run concurrently.
func (c *cluster) parRank(n *Node, body func(*Node), wg *sync.WaitGroup) {
	defer wg.Done()
	runtime.LockOSThread()
	bound := blas.BindThreadRecorder()
	defer func() {
		if bound {
			blas.UnbindThreadRecorder()
		}
		runtime.UnlockOSThread()
	}()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(poisonSignal); !ok {
				c.failOnce(fmt.Errorf("simnet: rank %d panicked: %v", n.Rank, r))
			}
		}
		ps := c.par
		ps.mu.Lock()
		n.done = true
		n.status = stDone
		ps.live--
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()
	ps := c.par
	ps.mu.Lock()
	c.pushElect(n)
	ps.cond.Broadcast()
	ps.mu.Unlock()
	body(n)
}

// parRun is the conservative scheduler loop: the serial election over
// (key, rank) — served by the lazy heap instead of a linear scan —
// with two extra states: waiting for an elected in-flight rank to
// arrive at its next event, and waiting for an admitted rank to
// release.
func (c *cluster) parRun() {
	ps := c.par
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.live > 0 {
		e, ok := c.minElect()
		if !ok {
			// An empty heap normally means deadlock; rebuild from a
			// full scan first so a missed push can never be
			// misdiagnosed as one.
			if c.rebuildElect() {
				continue
			}
			// Deadlock: every live rank is parked blocked with no
			// wake-up time. Diagnose, then poison them (same as
			// serial).
			c.failOnce(c.deadlockError(ps.live))
			for _, n := range c.nodes {
				if n.status == stParked {
					n.poison = true
					ps.mu.Unlock()
					n.resume <- struct{}{}
					ps.mu.Lock()
					for n.status != stDone {
						ps.cond.Wait()
					}
				}
			}
			continue
		}
		pick := c.nodes[e.rank]
		if pick.status == stInFlight {
			// The elected rank is still running host code. Nothing else
			// may be admitted before it, so wait for it to transition:
			// arrive at a Node call, park in Wait, finish — or move its
			// own key with an admission-free Compute release, which
			// may change the election. Other ranks' host work continues
			// on the remaining cores meanwhile. Its heap entry stays;
			// a key move makes it stale and the next minElect drops it.
			k := pick.key
			for pick.status == stInFlight && pick.key == k {
				ps.cond.Wait()
			}
			continue // re-elect
		}
		pick.status = stAdmitted // invalidates the rank's heap entries
		ps.mu.Unlock()
		pick.resume <- struct{}{}
		ps.mu.Lock()
		for pick.status == stAdmitted {
			ps.cond.Wait()
		}
	}
}
