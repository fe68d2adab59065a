// Package fault builds deterministic fault-injection plans for the
// simulated cluster: the failures the paper's PC cluster could suffer
// beneath a reliable TCP transport. A Plan schedules whole-node crashes
// (at a fixed time or sampled from an MTBF), rank freezes that a
// heartbeat detector must tell from a crash, and torn or bit-flipped
// checkpoint records. It implements simnet.Injector, simnet.RankStaller
// and simnet.PlanValidator structurally, and ckpt's record corrupter
// (this package imports neither, so they carry no dependency on it).
//
// Determinism guarantee: a Plan is fixed before the run starts —
// sampled crash times are drawn from the seeded generator at build
// time — so two runs of the same program under the same Plan produce
// identical virtual-time traces.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Plan is a reproducible fault schedule. The zero value injects
// nothing; use NewPlan and the With*/event methods to populate it.
// Plans must be fully built before the run starts — the injector
// methods are read-only during simulation.
type Plan struct {
	seed int64

	crashes    map[int]float64 // rank -> virtual crash time
	rankStalls []rankStall
	corrupts   []recordCorrupt

	rng *rand.Rand // for sampled (MTBF-style) events at build time

	// err records the first invalid builder call so the chaining API
	// stays ergonomic; Err surfaces it and simnet's install-time
	// ValidatePlan check rejects the run.
	err error
}

type rankStall struct {
	rank    int
	at, dur float64
}

// recordCorrupt damages the checkpoint record a rank writes at a step.
type corruptMode int

const (
	corruptTorn corruptMode = iota // truncate to keepFrac of the frame
	corruptBit                     // flip one bit
)

type recordCorrupt struct {
	step, rank int
	mode       corruptMode
	keepFrac   float64 // torn writes
	bit        int     // bit flips
}

// NewPlan returns an empty plan whose sampled events (CrashRandom)
// derive from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:    seed,
		crashes: map[int]float64{},
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// setErr records the first invalid builder call.
func (p *Plan) setErr(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first invalid builder call recorded on this plan, or
// nil for a well-formed plan. simnet checks it (via ValidatePlan) when
// the plan is installed, so a bad plan fails the run up front instead
// of silently injecting nothing.
func (p *Plan) Err() error { return p.err }

// Crash schedules rank to die at virtual time t (seconds). A second
// call for the same rank keeps the earlier time.
func (p *Plan) Crash(rank int, t float64) *Plan {
	if rank < 0 {
		p.setErr("fault: crash of negative rank %d", rank)
		return p
	}
	if t < 0 || math.IsNaN(t) {
		p.setErr("fault: crash of rank %d at invalid time %g", rank, t)
		return p
	}
	if old, ok := p.crashes[rank]; !ok || t < old {
		p.crashes[rank] = t
	}
	return p
}

// CrashRandom schedules rank to die at an exponentially distributed
// time with the given mean (the node's MTBF, seconds), sampled from
// the plan's seeded generator. The sampled time is fixed at call time,
// so the plan stays reproducible. Returns the sampled crash time.
func (p *Plan) CrashRandom(rank int, mtbf float64) float64 {
	if mtbf <= 0 || math.IsNaN(mtbf) {
		p.setErr("fault: non-positive MTBF %g for rank %d", mtbf, rank)
		return math.Inf(1)
	}
	t := p.rng.ExpFloat64() * mtbf
	p.Crash(rank, t)
	return t
}

// StallRank freezes the whole process of a rank at virtual time at for
// dur seconds (see simnet.RankStaller): the rank goes silent but does
// not die, the failure mode a heartbeat detector must distinguish from
// a crash. A second call for the same rank keeps the earlier freeze.
func (p *Plan) StallRank(rank int, at, dur float64) *Plan {
	if rank < 0 {
		p.setErr("fault: rank stall on negative rank %d", rank)
		return p
	}
	if at < 0 || math.IsNaN(at) {
		p.setErr("fault: rank %d stall at invalid time %g", rank, at)
		return p
	}
	if dur <= 0 || math.IsNaN(dur) {
		p.setErr("fault: rank %d stall with non-positive duration %g", rank, dur)
		return p
	}
	p.rankStalls = append(p.rankStalls, rankStall{rank, at, dur})
	return p
}

// TornWrite truncates the checkpoint record rank writes at step to
// keepFrac of its framed bytes — the partial write a crash leaves
// behind on real hardware (the DirStore's rename makes this impossible
// for a clean process exit; the injector models power loss and buggy
// firmware). The store's CRC trailer must catch it on read.
func (p *Plan) TornWrite(step, rank int, keepFrac float64) *Plan {
	if rank < 0 || step < 0 {
		p.setErr("fault: torn write at negative step %d or rank %d", step, rank)
		return p
	}
	if keepFrac < 0 || keepFrac >= 1 || math.IsNaN(keepFrac) {
		p.setErr("fault: torn write keeping %g of the record is outside [0, 1)", keepFrac)
		return p
	}
	p.corrupts = append(p.corrupts, recordCorrupt{step: step, rank: rank, mode: corruptTorn, keepFrac: keepFrac})
	return p
}

// FlipBit flips one bit of the checkpoint record rank writes at step —
// silent media corruption. The bit index counts from the start of the
// frame and wraps modulo the frame length, so any non-negative index
// is deterministic regardless of record size.
func (p *Plan) FlipBit(step, rank, bit int) *Plan {
	if rank < 0 || step < 0 {
		p.setErr("fault: bit flip at negative step %d or rank %d", step, rank)
		return p
	}
	if bit < 0 {
		p.setErr("fault: bit flip at negative bit index %d", bit)
		return p
	}
	p.corrupts = append(p.corrupts, recordCorrupt{step: step, rank: rank, mode: corruptBit, bit: bit})
	return p
}

// CorruptRecord implements the checkpoint store's write-path injector
// (see ckpt.Corrupter; structural, like the simnet.Injector methods):
// it applies every scheduled corruption matching (step, rank) to the
// framed record and passes everything else through untouched.
func (p *Plan) CorruptRecord(step, rank int, frame []byte) []byte {
	for _, c := range p.corrupts {
		if c.step != step || c.rank != rank {
			continue
		}
		switch c.mode {
		case corruptTorn:
			frame = frame[:int(float64(len(frame))*c.keepFrac)]
		case corruptBit:
			if len(frame) > 0 {
				out := append([]byte(nil), frame...)
				bit := c.bit % (8 * len(out))
				out[bit/8] ^= 1 << (bit % 8)
				frame = out
			}
		}
	}
	return frame
}

// Validate checks the fully-built plan against a run shape: ranks is
// the number of ranks (or physical nodes when the plan is node-keyed),
// horizon the expected virtual duration in seconds (0 = unknown, skips
// the beyond-horizon check). It returns the first problem found,
// starting with any invalid builder call.
func (p *Plan) Validate(ranks int, horizon float64) error {
	if p.err != nil {
		return p.err
	}
	check := func(kind string, rank int, t float64) error {
		if rank >= ranks {
			return fmt.Errorf("fault: %s of rank %d out of range for a %d-rank run", kind, rank, ranks)
		}
		if horizon > 0 && t >= horizon && !math.IsInf(t, 1) {
			return fmt.Errorf("fault: %s of rank %d at t=%.4gs is beyond the %.4gs horizon and can never fire", kind, rank, t, horizon)
		}
		return nil
	}
	crashRanks := make([]int, 0, len(p.crashes))
	for rank := range p.crashes {
		crashRanks = append(crashRanks, rank)
	}
	sort.Ints(crashRanks)
	for _, rank := range crashRanks {
		if err := check("crash", rank, p.crashes[rank]); err != nil {
			return err
		}
	}
	for _, s := range p.rankStalls {
		if err := check("stall", s.rank, s.at); err != nil {
			return err
		}
	}
	for _, c := range p.corrupts {
		if c.rank >= ranks {
			return fmt.Errorf("fault: record corruption on rank %d out of range for a %d-rank run", c.rank, ranks)
		}
	}
	return nil
}

// ValidatePlan implements simnet's install-time check (see
// simnet.PlanValidator); RunWithFaults calls it with the run's rank
// count before the first event fires.
func (p *Plan) ValidatePlan(ranks int) error { return p.Validate(ranks, 0) }

// String summarizes the schedule for logs and reports.
func (p *Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.seed))
	if len(p.crashes) > 0 {
		ranks := make([]int, 0, len(p.crashes))
		for r := range p.crashes {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			parts = append(parts, fmt.Sprintf("crash(rank=%d,t=%.4gs)", r, p.crashes[r]))
		}
	}
	for _, s := range p.rankStalls {
		parts = append(parts, fmt.Sprintf("freeze(rank=%d,t=%.4gs,dur=%.4gs)", s.rank, s.at, s.dur))
	}
	for _, c := range p.corrupts {
		switch c.mode {
		case corruptTorn:
			parts = append(parts, fmt.Sprintf("torn(step=%d,rank=%d,keep=%.3g)", c.step, c.rank, c.keepFrac))
		case corruptBit:
			parts = append(parts, fmt.Sprintf("bitflip(step=%d,rank=%d,bit=%d)", c.step, c.rank, c.bit))
		}
	}
	if p.err != nil {
		parts = append(parts, fmt.Sprintf("INVALID: %v", p.err))
	}
	return "fault.Plan{" + strings.Join(parts, ", ") + "}"
}

// CrashTime implements simnet.Injector: the scheduled crash time for
// rank, or +Inf when it never dies.
func (p *Plan) CrashTime(rank int) float64 {
	if t, ok := p.crashes[rank]; ok {
		return t
	}
	return math.Inf(1)
}

// RankStall implements simnet.RankStaller: the earliest scheduled
// process freeze for rank, or (+Inf, 0) when it never freezes.
func (p *Plan) RankStall(rank int) (start, dur float64) {
	start = math.Inf(1)
	for _, s := range p.rankStalls {
		if s.rank == rank && s.at < start {
			start, dur = s.at, s.dur
		}
	}
	return start, dur
}
