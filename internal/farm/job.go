// Package farm is the crash-safe multi-tenant job service: the
// "simulation-as-a-service" front end that turns the repo's solver runs
// into something a farm of commodity nodes can serve
// unattended. The paper's question — can cheap PC/Linux clusters carry
// real DNS workloads? — becomes, at service scale, whether the machine
// *around* the solver survives the same abuse the solver already
// does: the daemon itself being SIGKILLed mid-flight, workers dying
// mid-step, clients resubmitting blindly.
//
// The answer is a write-ahead journal (journal.go, reusing
// internal/ckpt's framed/CRC record format with fsync-and-atomic-
// rename semantics) that logs every job transition before it is
// acknowledged, so a restarted daemon replays the journal, re-admits
// queued jobs, and resumes in-flight runs from their per-job
// checkpoint namespace via the corruption-aware ckpt.Latest. Execution
// is at-least-once — a crash between a durable checkpoint and the
// journaled "done" re-runs the tail — but results are idempotent:
// checkpoints are step-keyed (re-execution overwrites identical
// records) and the trajectory is bit-deterministic, so every re-run
// converges to the same final state and the journal keeps exactly one
// result per job.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// JobState is the in-memory view of a job's position in the state
// machine (the journal's submitted/admitted pair both collapse to
// Queued here).
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateBackoff   JobState = "backoff" // waiting out a retry backoff
	StateParked    JobState = "parked"  // checkpointed and halted by a drain
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether a state can never transition again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MaxTenantLen bounds the tenant name, the one client-controlled
// string that is stored verbatim in journal entries. The bound keeps
// every entry far under the journal's 1 MiB record limit (an entry at
// that limit could never be appended — see ErrEntryTooLarge).
const MaxTenantLen = 256

// JobSpec is a client's job description. Workload/Steps/Seed/Work and
// the mesh knobs define *what* is computed (the result-cache key);
// Priority/Tenant/TimeoutS/Retries define how the farm schedules it.
type JobSpec struct {
	// Workload names "spin" or an internal/workload table entry that
	// runs on the host ("ns2d", "turb2d", "turbforce").
	Workload string `json:"workload"`
	// Steps is the target step count.
	Steps int `json:"steps"`
	// Seed deterministically perturbs the initial state, so equal specs
	// give bit-identical trajectories and distinct seeds give distinct
	// jobs.
	Seed int64 `json:"seed"`
	// Work scales the spin workload's per-step arithmetic (0 = default).
	Work int `json:"work,omitempty"`
	// Nt, Nr, Order size the probe mesh; Nt doubles as the spectral
	// grid size (0 = the table entry's defaults).
	Nt    int `json:"nt,omitempty"`
	Nr    int `json:"nr,omitempty"`
	Order int `json:"order,omitempty"`

	// CkptEvery is the durable-checkpoint cadence in steps (0 = a
	// default derived from Steps).
	CkptEvery int `json:"ckpt_every,omitempty"`
	// Priority orders the queue (higher first; 0 is normal).
	Priority int `json:"priority,omitempty"`
	// Tenant is the fair-share accounting bucket ("" = "default"; at
	// most MaxTenantLen bytes).
	Tenant string `json:"tenant,omitempty"`
	// TimeoutS bounds one attempt's host wall time (0 = default).
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// Retries is the retry budget beyond the first attempt (<0 = none,
	// 0 = default).
	Retries int `json:"retries,omitempty"`
}

// Key is the result-cache identity: a digest over the fields that
// determine the computed trajectory, and nothing else — two clients
// submitting the same computation at different priorities share one
// result.
func (s JobSpec) Key() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d",
		s.Workload, s.Steps, s.Seed, s.Work, s.Nt, s.Nr, s.Order)))
	return hex.EncodeToString(sum[:16])
}

// Result is one job's computed outcome: the step it finished at and
// the digest of its final marshalled solver state (bit-identical
// trajectories give equal hashes in any process).
type Result struct {
	Hash  string `json:"hash"`
	Steps int    `json:"steps"`
	Bytes int    `json:"bytes"`
}

// HashState digests a marshalled solver state the way Result.Hash is
// produced, for callers comparing farm results against reference runs
// from any process: the SHA-256 of the stream, which is canonical
// (engine.EncodeState).
func HashState(state []byte) string {
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}

// Job is the farm's record of one submission. All fields are guarded
// by the farm's mutex.
type Job struct {
	ID      string   `json:"id"`
	Spec    JobSpec  `json:"spec"`
	State   JobState `json:"state"`
	Attempt int      `json:"attempt"`
	// CkptStep is the newest durably checkpointed step (-1 = none).
	CkptStep int     `json:"ckpt_step"`
	Result   *Result `json:"result,omitempty"`
	// Cause classifies the most recent failure (crash, timeout,
	// watchdog, error, or invalid: the spec cannot be built, which no
	// retry cures); empty for jobs that never failed.
	Cause string `json:"cause,omitempty"`
	Err   string `json:"err,omitempty"`

	// scheduling state, never serialized. cancel and abort are atomic
	// because the attempt's step loop reads them every step without
	// taking the farm mutex.
	seq     int64       // submission order, fair-queue tiebreak
	pending bool        // reserved by Submit, journal entry not yet durable
	cancel  atomic.Bool // cancellation requested (Poll halts the attempt)
	abort   atomic.Bool // chaos worker-kill requested (OnStep panics)
}

// JobStatus is the externally visible snapshot of a job (the HTTP
// payload) — a copy, safe to hold after the farm's lock is released.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Attempt  int      `json:"attempt"`
	CkptStep int      `json:"ckpt_step"`
	Priority int      `json:"priority,omitempty"`
	Tenant   string   `json:"tenant,omitempty"`
	Result   *Result  `json:"result,omitempty"`
	Cause    string   `json:"cause,omitempty"`
	Err      string   `json:"err,omitempty"`
	// Cached marks a submission answered from the result cache / an
	// existing identical live job.
	Cached bool `json:"cached,omitempty"`
}

// EntryEv enumerates the journal's transition events.
type EntryEv string

const (
	EvSubmitted    EntryEv = "submitted"
	EvAdmitted     EntryEv = "admitted"
	EvRunning      EntryEv = "running"
	EvCheckpointed EntryEv = "checkpointed"
	EvRetrying     EntryEv = "retrying"
	EvParked       EntryEv = "parked"
	EvDone         EntryEv = "done"
	EvFailed       EntryEv = "failed"
	EvCancelled    EntryEv = "cancelled"
)

// Entry is one journaled transition. The journal is the farm's only
// durable state: everything in Farm.jobs is rebuilt by replaying these
// in order.
type Entry struct {
	Seq int64   `json:"seq"`
	Job string  `json:"job"`
	Ev  EntryEv `json:"ev"`

	Spec      *JobSpec `json:"spec,omitempty"`    // submitted
	Attempt   int      `json:"attempt,omitempty"` // running / retrying / failed
	Worker    int      `json:"worker,omitempty"`  // running
	Step      int      `json:"step,omitempty"`    // checkpointed / parked / done
	Cause     string   `json:"cause,omitempty"`   // retrying / failed
	BackoffMS int64    `json:"backoff_ms,omitempty"`
	Result    *Result  `json:"result,omitempty"` // done
	Err       string   `json:"err,omitempty"`
}
