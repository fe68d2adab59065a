package farm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nektar/internal/ckpt"
	"nektar/internal/engine"
)

// Config parametrizes a Farm.
type Config struct {
	// Dir roots the farm's durable state: the write-ahead journal plus
	// one checkpoint namespace per job under Dir/jobs/<id>.
	Dir string
	// Workers is the size of the execution pool (0 = admit but never
	// run, useful for queue tests).
	Workers int
	// QueueCap bounds the admission queue; submissions beyond it get
	// backpressure (ErrBusy / HTTP 429). 0 = unbounded.
	QueueCap int
	// Chaos enables the worker-kill injection endpoint.
	Chaos bool
	// Seed drives the retry-jitter RNG (0 = 1), so tests are
	// reproducible.
	Seed int64
	// BackoffBase/BackoffMax shape the exponential retry backoff
	// (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CompactMinRecords is the journal length below which compaction is
	// never considered (0 = 1024). Compaction additionally requires the
	// log to hold >3x its minimal replay size.
	CompactMinRecords int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// ErrDraining rejects submissions while the farm shuts down.
var ErrDraining = errors.New("farm: draining, not accepting jobs")

// BusyError is admission backpressure: the queue is full; retry after
// the hinted delay (HTTP maps it to 429 + Retry-After).
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	return fmt.Sprintf("farm: queue full, retry after %s", e.RetryAfter)
}

// attempt-ending signals, delivered by panic out of the step loop
// (matching the engine's crash-unwinding model) and classified by the
// worker.
var (
	errWorkerKilled   = errors.New("worker killed")
	errAttemptTimeout = errors.New("attempt timed out")
	errInvalidSpec    = errors.New("spec cannot be built")
)

type abortAttempt struct{ err error }

// Farm is the crash-safe job service. Every state transition is
// journaled (fsynced) before it is acknowledged or acted on, so Open
// on a directory left by a SIGKILLed farm reconstructs the exact
// acknowledged state: queued jobs re-admitted, in-flight jobs resumed
// from their newest verified checkpoint, finished jobs still
// answering result queries.
type Farm struct {
	cfg Config
	jl  *Journal

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*Job
	byKey map[string]string // result-cache / idempotent-submit index
	q     *fairQueue

	nextID   int64
	draining atomic.Bool

	est      *MTBFEstimator
	rng      *rand.Rand
	t0       time.Time
	ewmaJobS float64
	attempts int64
	failures map[string]int64
	kills    int64

	timers map[string]*time.Timer
	wg     sync.WaitGroup
}

// Stats is the observable service state (the /v1/stats payload).
type Stats struct {
	Queued, Running, Backoff, Parked int
	Done, Failed, Cancelled          int
	Workers, QueueCap                int
	Draining                         bool
	UptimeS                          float64
	Attempts                         int64
	Failures                         map[string]int64
	KillsInjected                    int64
	MTBFEstimateS                    float64
	WALRecords                       int
}

// Open recovers (or creates) the farm rooted at cfg.Dir and starts its
// worker pool. When Open returns, every job acknowledged before the
// previous process died is accounted for: terminal jobs answer result
// queries, live ones are queued for (re)execution.
func Open(cfg Config) (*Farm, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("farm: empty state directory")
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.CompactMinRecords <= 0 {
		cfg.CompactMinRecords = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	jl, entries, err := OpenJournal(filepath.Join(cfg.Dir, "wal.nkj"))
	if err != nil {
		return nil, err
	}
	f := &Farm{
		cfg: cfg, jl: jl,
		jobs:     map[string]*Job{},
		byKey:    map[string]string{},
		q:        newFairQueue(),
		est:      NewMTBFEstimator(3600, 0.3),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		t0:       time.Now(),
		failures: map[string]int64{},
		timers:   map[string]*time.Timer{},
	}
	f.cond = sync.NewCond(&f.mu)
	f.mu.Lock()
	f.replay(entries)
	err = f.maybeCompactLocked()
	f.mu.Unlock()
	if err != nil {
		jl.Close()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		f.wg.Add(1)
		go f.worker(w)
	}
	return f, nil
}

// replay rebuilds the in-memory state from journal entries and
// re-admits every non-terminal job: queued stay queued, running ones
// are resumed (their per-job store holds the newest verified
// checkpoint), backoff waits are cut short, parked jobs wake up.
func (f *Farm) replay(entries []Entry) {
	for i := range entries {
		e := &entries[i]
		j := f.jobs[e.Job]
		switch e.Ev {
		case EvSubmitted:
			if j != nil || e.Spec == nil {
				continue
			}
			f.jobs[e.Job] = &Job{ID: e.Job, Spec: *e.Spec, State: StateQueued,
				CkptStep: -1, seq: e.Seq}
			continue
		}
		if j == nil || j.State.Terminal() {
			continue
		}
		switch e.Ev {
		case EvAdmitted:
			j.State = StateQueued
		case EvRunning:
			j.State, j.Attempt = StateRunning, e.Attempt
		case EvCheckpointed:
			j.CkptStep = e.Step
		case EvRetrying:
			j.State, j.Attempt, j.Cause = StateBackoff, e.Attempt, e.Cause
		case EvParked:
			j.State, j.CkptStep = StateParked, e.Step
		case EvDone:
			j.State, j.Result = StateDone, e.Result
		case EvFailed:
			j.State, j.Cause, j.Err = StateFailed, e.Cause, e.Err
		case EvCancelled:
			j.State = StateCancelled
		}
	}
	ordered := make([]*Job, 0, len(f.jobs))
	for _, j := range f.jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	requeued, terminal := 0, 0
	for _, j := range ordered {
		if n := idNum(j.ID); n > f.nextID {
			f.nextID = n
		}
		if !j.State.Terminal() {
			// A spec an earlier daemon accepted and this one refuses fails
			// here, once, instead of being rebuilt by every restart.
			if err := j.Spec.Validate(); err != nil {
				j.State, j.Cause, j.Err = StateFailed, "invalid", err.Error()
				f.appendDurable(&Entry{Job: j.ID, Ev: EvFailed, Attempt: j.Attempt, Cause: j.Cause, Err: j.Err})
			}
		}
		key := j.Spec.Key()
		// The cache prefers a finished result, then any live job, over a
		// failed/cancelled ghost.
		if cur, ok := f.jobs[f.byKey[key]]; !ok || cur.State != StateDone &&
			(j.State == StateDone || !j.State.Terminal()) {
			f.byKey[key] = j.ID
		}
		if j.State.Terminal() {
			terminal++
			continue
		}
		j.State = StateQueued
		f.q.Push(j)
		requeued++
	}
	if len(f.jobs) > 0 {
		f.cfg.Logf("farm: recovered %d jobs (%d re-admitted, %d terminal) from %d journal records",
			len(f.jobs), requeued, terminal, f.jl.Count())
	}
}

// idNum extracts the numeric part of a job ID (0 for foreign IDs).
func idNum(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// maybeCompactLocked rewrites the journal as the minimal entry set
// reproducing the current state, once the log holds several times more
// records than that minimum. Terminal jobs keep their spec and result
// (the cache must survive); live jobs keep spec plus their replay
// position. Called with f.mu held — at startup and after terminal
// transitions, so a long-running daemon's log stays bounded instead of
// growing until the next restart. f.mu excludes every journal writer
// except a Submit append already past its reservation; that one
// serializes on the journal's own lock and lands after the rewritten
// file, where its (possibly duplicated) submitted entry replays
// harmlessly.
func (f *Farm) maybeCompactLocked() error {
	c := f.jl.Count()
	// Cheap gate first: replaying a job takes at least two entries
	// (submitted plus verdict/admitted), so a log within 3x that floor
	// cannot be worth the O(jobs) rewrite below.
	if c <= f.cfg.CompactMinRecords || c <= 6*len(f.jobs) {
		return nil
	}
	minimal := f.minimalEntries()
	if c <= 3*len(minimal) {
		return nil
	}
	if err := f.jl.Compact(minimal); err != nil {
		return err
	}
	// Compact renumbered the on-disk entries from 1; re-key the job
	// table's seqs to the compacted submitted-entry numbers so
	// post-compaction submissions sort after every existing job (the
	// fair queue breaks priority ties by seq). The mapping is monotone —
	// minimalEntries walks jobs in seq order — so the per-tenant sorted
	// queue invariant survives the rewrite in place.
	for i := range minimal {
		if minimal[i].Ev != EvSubmitted {
			continue
		}
		if j := f.jobs[minimal[i].Job]; j != nil {
			j.seq = minimal[i].Seq
		}
	}
	f.cfg.Logf("farm: compacted journal to %d records", len(minimal))
	return nil
}

// minimalEntries serializes the current job table as the smallest
// entry sequence whose replay reproduces it.
func (f *Farm) minimalEntries() []Entry {
	ordered := make([]*Job, 0, len(f.jobs))
	for _, j := range f.jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
	var out []Entry
	for _, j := range ordered {
		spec := j.Spec
		out = append(out, Entry{Job: j.ID, Ev: EvSubmitted, Spec: &spec})
		// Terminal jobs compress to their verdict: the attempt history is
		// observability, not state, once nothing can transition again.
		switch j.State {
		case StateDone:
			out = append(out, Entry{Job: j.ID, Ev: EvDone, Step: j.Spec.Steps, Result: j.Result})
			continue
		case StateFailed:
			out = append(out, Entry{Job: j.ID, Ev: EvFailed, Attempt: j.Attempt,
				Cause: j.Cause, Err: j.Err})
			continue
		case StateCancelled:
			out = append(out, Entry{Job: j.ID, Ev: EvCancelled})
			continue
		}
		if j.Attempt > 0 {
			out = append(out, Entry{Job: j.ID, Ev: EvRunning, Attempt: j.Attempt})
		}
		if j.CkptStep >= 0 {
			out = append(out, Entry{Job: j.ID, Ev: EvCheckpointed, Step: j.CkptStep})
		}
		out = append(out, Entry{Job: j.ID, Ev: EvAdmitted})
	}
	return out
}

// appendDurable journals entries, taking only the journal's own lock —
// callers may hold f.mu for transition ordering but are not required
// to. A journal that can no longer persist transitions voids every
// durability promise the farm has made, so the failure is fatal by
// design: better a dead daemon than one acknowledging state it will
// forget. (Oversized entries cannot reach here: every string a client
// controls is bounded by JobSpec.Validate, and internal entries are a
// few hundred bytes.)
func (f *Farm) appendDurable(entries ...*Entry) {
	if err := f.jl.Append(entries...); err != nil {
		panic(fmt.Sprintf("farm: write-ahead journal failed, cannot guarantee durability: %v", err))
	}
}

// Submit validates, journals, and queues a job. The returned status is
// a snapshot; cached is true when the spec's result identity matched
// an existing live or finished job (idempotent resubmission — a client
// that crashed between its request and the response can safely send
// again).
//
// The journal fsync runs outside the farm lock: the job is reserved in
// the table (pending, invisible to the queue and the idempotency
// cache's answers), the entry batch is made durable against only the
// journal's own lock, and the job is published once durable. Read-only
// API calls therefore never queue behind disk sync latency.
func (f *Farm) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	key := spec.Key()

	f.mu.Lock()
	for {
		if f.draining.Load() {
			f.mu.Unlock()
			return JobStatus{}, false, ErrDraining
		}
		j, ok := f.jobs[f.byKey[key]]
		if !ok || j.State == StateFailed || j.State == StateCancelled {
			break
		}
		if !j.pending {
			st := f.statusLocked(j)
			f.mu.Unlock()
			return st, true, nil
		}
		// An identical submission is mid-fsync; wait until its entry is
		// durable so the cached ack is backed by the journal.
		f.cond.Wait()
	}
	if f.cfg.QueueCap > 0 && f.q.Len() >= f.cfg.QueueCap {
		ra := f.retryAfterLocked()
		f.mu.Unlock()
		return JobStatus{}, false, &BusyError{RetryAfter: ra}
	}
	f.nextID++
	id := fmt.Sprintf("j%08d", f.nextID)
	j := &Job{ID: id, Spec: spec, State: StateQueued, CkptStep: -1, pending: true}
	f.jobs[id] = j
	f.byKey[key] = id
	f.wg.Add(1) // Drain must wait out the in-flight append before closing the journal
	f.mu.Unlock()

	sub := Entry{Job: id, Ev: EvSubmitted, Spec: &spec}
	adm := Entry{Job: id, Ev: EvAdmitted}
	err := f.jl.Append(&sub, &adm) // one batch, one fsync: ack only after this

	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.wg.Done()
	j.pending = false
	if err != nil {
		delete(f.jobs, id)
		if f.byKey[key] == id {
			delete(f.byKey, key)
		}
		f.cond.Broadcast()
		if errors.Is(err, ErrEntryTooLarge) {
			// Validate bounds every client-controlled field, so this is a
			// backstop; the job was never acknowledged or queued.
			return JobStatus{}, false, err
		}
		panic(fmt.Sprintf("farm: write-ahead journal failed, cannot guarantee durability: %v", err))
	}
	j.seq = sub.Seq
	f.q.Push(j)
	f.cond.Broadcast() // wake a worker and any identical-spec waiters
	return f.statusLocked(j), false, nil
}

// retryAfterLocked estimates when a queue slot will free up: the
// queue's drain time at the observed per-job rate, clamped to [1, 60]s.
func (f *Farm) retryAfterLocked() time.Duration {
	per := f.ewmaJobS
	if per <= 0 {
		per = 0.05
	}
	workers := f.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	d := time.Duration(per * float64(f.q.Len()) / float64(workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Status returns a job's snapshot.
func (f *Farm) Status(id string) (JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return f.statusLocked(j), true
}

func (f *Farm) statusLocked(j *Job) JobStatus {
	return JobStatus{
		ID: j.ID, State: j.State, Attempt: j.Attempt, CkptStep: j.CkptStep,
		Priority: j.Spec.Priority, Tenant: j.Spec.Tenant,
		Result: j.Result, Cause: j.Cause, Err: j.Err,
	}
}

// Cancel requests a job's cancellation: queued and backoff jobs die
// immediately, running ones halt at the next step boundary. Terminal
// jobs report false.
func (f *Farm) Cancel(id string) (JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	switch {
	case j.State.Terminal():
		return f.statusLocked(j), false
	case j.State == StateBackoff || j.State == StateParked,
		j.State == StateQueued && f.q.Remove(id):
		if t := f.timers[id]; t != nil {
			t.Stop()
			delete(f.timers, id)
		}
		j.State = StateCancelled
		f.appendDurable(&Entry{Job: id, Ev: EvCancelled})
	default:
		// Running (or being handed to a worker this instant): the step
		// loop's Poll sees the flag and halts; the worker journals the
		// cancellation.
		j.cancel.Store(true)
	}
	return f.statusLocked(j), true
}

// KillWorker aborts a random in-flight attempt mid-step, simulating a
// worker process dying (chaos injection; no parting snapshot is
// written, so the retry resumes from the last durable checkpoint). It
// returns the victim's ID, or "" when nothing was running.
func (f *Farm) KillWorker() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var running []*Job
	for _, j := range f.jobs {
		if j.State == StateRunning {
			running = append(running, j)
		}
	}
	if len(running) == 0 {
		return ""
	}
	sort.Slice(running, func(a, b int) bool { return running[a].seq < running[b].seq })
	victim := running[f.rng.Intn(len(running))]
	victim.abort.Store(true)
	f.kills++
	return victim.ID
}

// Snapshot reports service statistics.
func (f *Farm) Snapshot() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Workers: f.cfg.Workers, QueueCap: f.cfg.QueueCap,
		Draining: f.draining.Load(),
		UptimeS:  time.Since(f.t0).Seconds(),
		Attempts: f.attempts, KillsInjected: f.kills,
		MTBFEstimateS: f.est.MTBFS(),
		WALRecords:    f.jl.Count(),
		Failures:      map[string]int64{},
	}
	for c, n := range f.failures {
		st.Failures[c] = n
	}
	for _, j := range f.jobs {
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateBackoff:
			st.Backoff++
		case StateParked:
			st.Parked++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Drain is the graceful-shutdown protocol: stop admitting, let running
// jobs checkpoint-and-park at their next step boundary, stop the
// workers, close the journal. Parked and queued jobs are re-admitted
// by the next Open. Returns ctx.Err() if workers failed to settle in
// time (the journal is then left open and the caller should exit
// anyway — the journal tolerates that like any crash).
func (f *Farm) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining.Store(true)
	for id, t := range f.timers {
		t.Stop()
		delete(f.timers, id)
	}
	f.cond.Broadcast()
	f.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return f.jl.Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with a generous deadline (test/convenience path).
func (f *Farm) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return f.Drain(ctx)
}

// jobDir is a job's private checkpoint namespace.
func (f *Farm) jobDir(id string) string { return filepath.Join(f.cfg.Dir, "jobs", id) }

// worker is one execution slot: pop, run, repeat until stop/drain.
func (f *Farm) worker(w int) {
	defer f.wg.Done()
	for {
		j := f.next()
		if j == nil {
			return
		}
		f.runJob(w, j)
	}
}

// next blocks for the next runnable job; nil means the worker should
// exit.
func (f *Farm) next() *Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.draining.Load() {
			return nil
		}
		if j := f.q.Pop(); j != nil {
			return j
		}
		f.cond.Wait()
	}
}

// runJob executes one attempt of a job and journals its disposition.
func (f *Farm) runJob(w int, j *Job) {
	f.mu.Lock()
	if j.State.Terminal() {
		f.mu.Unlock()
		return
	}
	j.Attempt++
	j.State = StateRunning
	f.attempts++
	f.appendDurable(&Entry{Job: j.ID, Ev: EvRunning, Attempt: j.Attempt, Worker: w})
	f.mu.Unlock()

	t0 := time.Now()
	res, lastStep, runErr := f.attemptLoop(j)
	dur := time.Since(t0).Seconds()

	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case runErr != nil:
		cause := "error"
		switch {
		case errors.Is(runErr, errWorkerKilled):
			cause = "crash"
		case errors.Is(runErr, errAttemptTimeout):
			cause = "timeout"
		case errors.Is(runErr, errInvalidSpec):
			cause = "invalid"
		}
		f.failLocked(j, cause, runErr.Error())
	case res.Outcome == engine.Completed:
		r := &Result{Hash: HashState(res.Final), Steps: j.Spec.Steps, Bytes: len(res.Final)}
		j.State, j.Result = StateDone, r
		f.appendDurable(&Entry{Job: j.ID, Ev: EvDone, Step: j.Spec.Steps, Result: r})
		f.byKey[j.Spec.Key()] = j.ID
		if f.ewmaJobS == 0 {
			f.ewmaJobS = dur
		} else {
			f.ewmaJobS = 0.8*f.ewmaJobS + 0.2*dur
		}
	case res.Outcome == engine.Halted && j.cancel.Load():
		j.State = StateCancelled
		f.appendDurable(&Entry{Job: j.ID, Ev: EvCancelled})
	case res.Outcome == engine.Halted:
		// Draining: the state at the halt boundary is already durable in
		// the job's store (FinalOnHalt submitted it to the sink).
		j.State, j.CkptStep = StateParked, lastStep
		f.appendDurable(&Entry{Job: j.ID, Ev: EvParked, Step: lastStep})
	case res.Outcome == engine.Tripped:
		f.failLocked(j, "watchdog", "numerical-health watchdog tripped")
	}
	if j.State.Terminal() {
		// Terminal transitions shrink the minimal replay set's distance to
		// the log, so this is the moment a long-running daemon's journal
		// can stop growing. Failure is non-fatal: the old log is intact
		// and the next open retries.
		if err := f.maybeCompactLocked(); err != nil {
			f.cfg.Logf("farm: runtime journal compaction failed (next open retries): %v", err)
		}
	}
}

// attemptLoop builds (or resumes) the solver and drives one attempt.
// Chaos kills and timeouts unwind by panic, matching the crash model,
// and surface as classified errors.
func (f *Farm) attemptLoop(j *Job) (res engine.Result, lastStep int, err error) {
	spec := j.Spec
	solver, err := NewSolver(spec)
	if err != nil {
		return res, 0, fmt.Errorf("%w: %w", errInvalidSpec, err)
	}
	store, err := ckpt.NewDirStore(f.jobDir(j.ID))
	if err != nil {
		return res, 0, err
	}
	if step, states, lerr := ckpt.Latest(store, 1); lerr != nil {
		return res, 0, lerr
	} else if step >= 0 {
		if rerr := engine.Restore(solver, states[0]); rerr != nil {
			return res, 0, rerr
		}
	}
	lastStep = solver.StepCount()

	timeout := time.Duration(spec.TimeoutS * float64(time.Second))
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	deadline := time.Now().Add(timeout)
	cadence := spec.CkptEvery
	if cadence == 0 {
		cadence = spec.Steps / 5
		if cadence < 1 {
			cadence = 1
		}
	}
	sink := ckpt.NewSyncWriter(store, ckpt.WriterConfig{
		Kind: spec.Workload, Retention: ckpt.Retention{KeepLast: 2}})
	loop := engine.Loop{
		Solver: solver, Steps: spec.Steps,
		CheckpointEvery: cadence, Sink: sink, FinalOnHalt: true,
		OnCheckpoint: func(step int, state []byte) {
			// The sync sink made the record durable before this hook, so
			// the journal never claims a checkpoint the store lacks. The
			// append takes only the journal's own lock — per-job ordering
			// holds because this goroutine writes every entry of this
			// attempt — so status reads never wait out a checkpoint fsync.
			f.appendDurable(&Entry{Job: j.ID, Ev: EvCheckpointed, Step: step})
			f.mu.Lock()
			j.CkptStep = step
			f.mu.Unlock()
		},
		OnStep: func(step int) {
			lastStep = step
			if j.abort.Load() {
				panic(abortAttempt{errWorkerKilled})
			}
			if time.Now().After(deadline) {
				panic(abortAttempt{errAttemptTimeout})
			}
		},
		Poll:     func() bool { return f.draining.Load() || j.cancel.Load() },
		Watchdog: engine.Watchdog{MaxAbs: 1e12},
	}
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(abortAttempt)
			if !ok {
				panic(p)
			}
			err = a.err
		}
	}()
	res, err = loop.Run()
	return res, lastStep, err
}

// failLocked classifies a failed attempt, feeds the failure stream
// into the MTBF estimator (hardware-ish causes only: a watchdog trip
// says nothing about the machine), and either schedules a jittered exponential-backoff retry or marks
// the job failed when its budget is spent.
func (f *Farm) failLocked(j *Job, cause, msg string) {
	j.Cause, j.Err = cause, msg
	j.abort.Store(false)
	f.failures[cause]++
	if cause == "crash" || cause == "timeout" {
		f.est.ObserveFailure(time.Since(f.t0).Seconds())
	}
	budget := j.Spec.Retries
	if budget == 0 {
		budget = 3
	} else if budget < 0 {
		budget = 0
	}
	if cause == "invalid" || j.Attempt > budget { // the same spec fails the same way every time
		j.State = StateFailed
		f.appendDurable(&Entry{Job: j.ID, Ev: EvFailed, Attempt: j.Attempt, Cause: cause, Err: msg})
		return
	}
	backoff := f.cfg.BackoffBase << (j.Attempt - 1)
	if backoff > f.cfg.BackoffMax || backoff <= 0 {
		backoff = f.cfg.BackoffMax
	}
	// Jitter in [0.5, 1.5): a farm-wide failure (say the daemon's node
	// rebooting) must not march every victim back in lockstep.
	backoff = time.Duration(float64(backoff) * (0.5 + f.rng.Float64()))
	j.State = StateBackoff
	f.appendDurable(&Entry{Job: j.ID, Ev: EvRetrying, Attempt: j.Attempt,
		Cause: cause, BackoffMS: backoff.Milliseconds()})
	if f.draining.Load() {
		return // replay re-admits it
	}
	id := j.ID
	f.timers[id] = time.AfterFunc(backoff, func() { f.requeue(id) })
}

// requeue moves a backoff job back into the run queue.
func (f *Farm) requeue(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.timers, id)
	j := f.jobs[id]
	if j == nil || j.State != StateBackoff || f.draining.Load() {
		return
	}
	j.State = StateQueued
	f.q.Push(j)
	f.cond.Signal()
}
