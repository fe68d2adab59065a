package ckpt

import (
	"fmt"
	"sync"
	"time"

	"nektar/internal/engine"
)

// WriterStats aggregates a writer's activity. ExposedS is the time the
// step loop itself spent inside Submit (for the async writer: only
// backpressure stalls; for the sync writer: the whole frame+write);
// HiddenS is the write time overlapped with stepping. The acceptance
// claim of this subsystem is ExposedS(async) << ExposedS(sync) at
// equal cadence.
type WriterStats struct {
	Snapshots   int
	RawBytes    int64
	StoredBytes int64
	ExposedS    float64
	HiddenS     float64
}

// Ratio is the aggregate compression ratio.
func (w WriterStats) Ratio() float64 {
	if w.StoredBytes == 0 {
		return 0
	}
	return float64(w.RawBytes) / float64(w.StoredBytes)
}

// WriterConfig parametrizes AsyncWriter and SyncWriter.
type WriterConfig struct {
	// Kind and Rank address the records (see Meta).
	Kind string
	Rank int
	// Retention, when non-zero, runs GC after every put.
	Retention Retention
	// Trace, when set, receives one ckpt_done event per durable record.
	Trace *engine.Tracer
}

// AsyncWriter is the host-time checkpoint sink: engine.Loop hands it
// the marshalled state and keeps stepping while a background goroutine
// frames, compresses, and persists the record. Buffering is double:
// one snapshot may be in flight and one pending, so Submit only blocks
// (backpressure, measured as exposed time) when the writer falls a
// full interval behind. Drain flushes — it waits for the queue to
// empty rather than shutting the writer down — so one writer can serve
// a whole campaign of Loop runs; Close stops the goroutine.
//
// Host wall-clock only: inside simnet rank bodies, real goroutines
// would break the cooperative virtual-time scheduler — use SyncWriter
// there.
type AsyncWriter struct {
	store Store
	cfg   WriterConfig

	mu      sync.Mutex
	cond    *sync.Cond
	pending *asyncJob // the one buffered snapshot (double buffer slot)
	busy    bool      // worker holds a snapshot not yet durable
	closed  bool
	err     error // first write error, surfaced by Submit/Drain
	stats   WriterStats

	done chan struct{} // closed when the background goroutine exits
}

type asyncJob struct {
	step    int
	state   []byte
	final   bool
	exposed float64 // submit-side block time, reported in ckpt_done
}

// NewAsyncWriter starts the background writer over store.
func NewAsyncWriter(store Store, cfg WriterConfig) *AsyncWriter {
	w := &AsyncWriter{store: store, cfg: cfg, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// Submit implements engine.CheckpointSink. The state slice is owned by
// the writer from this call on (engine.Marshal allocates fresh bytes,
// so the loop never mutates it).
func (w *AsyncWriter) Submit(step int, state []byte, final bool) error {
	t0 := time.Now()
	w.mu.Lock()
	for w.pending != nil && w.err == nil && !w.closed {
		w.cond.Wait() // backpressure: a snapshot is already queued
	}
	if w.err != nil || w.closed {
		err := w.err
		w.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("ckpt: submit on closed writer")
		}
		return err
	}
	exposed := time.Since(t0).Seconds()
	w.pending = &asyncJob{step: step, state: state, final: final, exposed: exposed}
	w.stats.Snapshots++
	w.stats.RawBytes += int64(len(state))
	w.stats.ExposedS += exposed
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// Drain implements engine.CheckpointSink: it blocks until every
// submitted snapshot is durable and returns the first write error. The
// writer stays usable afterwards.
func (w *AsyncWriter) Drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (w.pending != nil || w.busy) && !w.closed {
		w.cond.Wait()
	}
	return w.err
}

// Close drains, stops the background goroutine, and waits for it to
// exit. It is idempotent and safe to defer around a solver step that
// may panic: the in-flight snapshot is made durable (or its error
// surfaced) before the goroutine is released, so a panicking run never
// leaks the writer goroutine or loses a submitted snapshot. The writer
// rejects further submissions.
func (w *AsyncWriter) Close() error {
	err := w.Drain()
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	<-w.done // goroutine exit, so Close-then-leak-check is race-free
	w.mu.Lock()
	if err == nil {
		err = w.err
	}
	w.mu.Unlock()
	return err
}

// Stats returns a snapshot of the writer's counters.
func (w *AsyncWriter) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// loop is the background writer goroutine.
func (w *AsyncWriter) loop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for w.pending == nil && !w.closed {
			w.cond.Wait()
		}
		if w.closed && w.pending == nil {
			w.mu.Unlock()
			return
		}
		job := w.pending
		w.pending = nil
		w.busy = true
		w.cond.Broadcast() // free the double-buffer slot for the loop
		w.mu.Unlock()

		t0 := time.Now()
		stats, err := persist(w.store, Meta{Kind: w.cfg.Kind, Rank: w.cfg.Rank, Step: job.step},
			job.state, w.cfg.Retention)
		hidden := time.Since(t0).Seconds()

		// Report the record before announcing it: a Drain that returns
		// owes no trace event, so the caller may close the trace file.
		if err == nil && w.cfg.Trace != nil {
			w.cfg.Trace.Emit(engine.Event{
				Ev: engine.EvCkptDone, Rank: w.cfg.Rank, Step: job.step,
				Bytes: stats.Raw, Stored: stats.Stored, Ratio: stats.Ratio(),
				HiddenS: hidden, ExposedS: job.exposed, Final: job.final,
			})
		}
		w.mu.Lock()
		w.busy = false
		w.stats.StoredBytes += int64(stats.Stored)
		w.stats.HiddenS += hidden
		if err != nil && w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// SyncWriter persists every snapshot inline on the step loop: the
// comparator ckptbench measures the async writer against, and the sink
// of ranks on the simulated cluster, where a background goroutine
// would break the cooperative scheduler.
type SyncWriter struct {
	store Store
	cfg   WriterConfig

	mu    sync.Mutex
	stats WriterStats
}

// NewSyncWriter returns a synchronous sink over store.
func NewSyncWriter(store Store, cfg WriterConfig) *SyncWriter {
	return &SyncWriter{store: store, cfg: cfg}
}

// Submit implements engine.CheckpointSink.
func (w *SyncWriter) Submit(step int, state []byte, final bool) error {
	t0 := time.Now()
	stats, err := persist(w.store, Meta{Kind: w.cfg.Kind, Rank: w.cfg.Rank, Step: step},
		state, w.cfg.Retention)
	exposed := time.Since(t0).Seconds()
	w.mu.Lock()
	w.stats.Snapshots++
	w.stats.RawBytes += int64(stats.Raw)
	w.stats.StoredBytes += int64(stats.Stored)
	w.stats.ExposedS += exposed
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if w.cfg.Trace != nil {
		w.cfg.Trace.Emit(engine.Event{
			Ev: engine.EvCkptDone, Rank: w.cfg.Rank, Step: step,
			Bytes: stats.Raw, Stored: stats.Stored, Ratio: stats.Ratio(),
			ExposedS: exposed, Final: final,
		})
	}
	return nil
}

// Drain implements engine.CheckpointSink (everything is already
// durable).
func (w *SyncWriter) Drain() error { return nil }

// Stats returns a snapshot of the writer's counters.
func (w *SyncWriter) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// persist is the shared put+GC step.
func persist(store Store, m Meta, state []byte, ret Retention) (Stats, error) {
	stats, err := store.Put(m, state)
	if err != nil {
		return stats, err
	}
	if !ret.zero() {
		if _, err := GC(store, ret); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
