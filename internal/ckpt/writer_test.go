package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nektar/internal/engine"
)

// slowTrace is a trace file that dawdles in Write: an event the writer
// emits only after announcing durability is still in flight when Drain
// returns, so the drained trace comes up one ckpt_done short.
type slowTrace struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *slowTrace) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// dones counts the ckpt_done events written so far.
func (s *slowTrace) dones() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Count(s.buf.Bytes(), []byte(`"`+engine.EvCkptDone+`"`))
}

func TestAsyncWriterDurableAfterDrain(t *testing.T) {
	s := NewMemStore()
	var trace slowTrace
	w := NewAsyncWriter(s, WriterConfig{Kind: "nsf", Rank: 2, Trace: engine.NewTracer(&trace)})
	defer w.Close()
	const n = 20
	for i := 1; i <= n; i++ {
		if err := w.Submit(i, payload(byte(i), 1500), i == n); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			// A drained writer owes nothing: every submitted snapshot
			// has been reported as well as stored.
			if err := w.Drain(); err != nil {
				t.Fatal(err)
			}
			if got := trace.dones(); got != i {
				t.Fatalf("after Drain: %d ckpt_done events for %d submits", got, i)
			}
		}
	}
	for i := 1; i <= n; i++ {
		state, m, err := s.Open(i, 2)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if m.Kind != "nsf" || !bytes.Equal(state, payload(byte(i), 1500)) {
			t.Fatalf("step %d stored wrong record", i)
		}
	}
	st := w.Stats()
	if st.Snapshots != n || st.RawBytes != n*1500 || st.StoredBytes <= 0 {
		t.Fatalf("stats %+v", st)
	}
	evs, err := engine.ReadEvents(&trace.buf)
	if err != nil {
		t.Fatal(err)
	}
	dones := 0
	for _, e := range evs {
		if e.Ev != engine.EvCkptDone {
			continue
		}
		dones++
		if e.Stored <= 0 || e.Ratio <= 1 || e.Bytes != 1500 {
			t.Fatalf("ckpt_done event %+v", e)
		}
		if e.Final != (e.Step == n) {
			t.Fatalf("final flag wrong on %+v", e)
		}
	}
	if dones != n {
		t.Fatalf("%d ckpt_done events, want %d", dones, n)
	}
}

// A drained writer must stay usable: one writer serves a campaign of
// Loop runs, each of which drains on exit.
func TestAsyncWriterReusableAfterDrain(t *testing.T) {
	s := NewMemStore()
	w := NewAsyncWriter(s, WriterConfig{Kind: "nsf"})
	defer w.Close()
	for round := 0; round < 3; round++ {
		if err := w.Submit(round+1, payload(1, 100), false); err != nil {
			t.Fatal(err)
		}
		if err := w.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	steps, _ := s.Steps()
	if len(steps) != 3 {
		t.Fatalf("steps %v", steps)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(9, payload(1, 10), false); err == nil {
		t.Fatal("closed writer accepted a submit")
	}
}

// errStore fails every put.
type errStore struct{ Store }

func (errStore) Put(Meta, []byte) (Stats, error) {
	return Stats{}, errors.New("disk full")
}

func TestAsyncWriterSurfacesWriteErrors(t *testing.T) {
	w := NewAsyncWriter(errStore{NewMemStore()}, WriterConfig{})
	defer w.Close()
	_ = w.Submit(1, payload(1, 10), false)
	if err := w.Drain(); err == nil {
		t.Fatal("write error lost")
	}
	// After a failed write, further submissions are refused with it.
	if err := w.Submit(2, payload(1, 10), false); err == nil {
		t.Fatal("writer kept accepting after a write error")
	}
}

// The writer applies retention after every put, so a long run's store
// stays bounded without the step loop ever doing GC work.
func TestAsyncWriterRetention(t *testing.T) {
	s := NewMemStore()
	w := NewAsyncWriter(s, WriterConfig{Kind: "nsf", Retention: Retention{KeepLast: 3}})
	defer w.Close()
	for i := 1; i <= 10; i++ {
		if err := w.Submit(i, payload(byte(i), 200), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	steps, _ := s.Steps()
	if fmt.Sprint(steps) != "[8 9 10]" {
		t.Fatalf("retained steps %v", steps)
	}
}

// Concurrent Submit/Drain/Stats from multiple goroutines must be
// race-clean (the CI race step runs this package).
func TestAsyncWriterConcurrency(t *testing.T) {
	s := NewMemStore()
	w := NewAsyncWriter(s, WriterConfig{Kind: "nsf"})
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = w.Submit(g*100+i, payload(byte(i), 300), false)
				_ = w.Stats()
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	steps, _ := s.Steps()
	if len(steps) != 100 {
		t.Fatalf("%d records stored, want 100", len(steps))
	}
}

func TestSyncWriterStoresAndTraces(t *testing.T) {
	s := NewMemStore()
	var trace bytes.Buffer
	w := NewSyncWriter(s, WriterConfig{Kind: "ns2d", Trace: engine.NewTracer(&trace)})
	if err := w.Submit(5, payload(2, 800), true); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open(5, 0); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Snapshots != 1 || st.ExposedS <= 0 || st.HiddenS != 0 {
		t.Fatalf("sync stats %+v", st)
	}
	evs, err := engine.ReadEvents(&trace)
	if err != nil || len(evs) != 1 || evs[0].Ev != engine.EvCkptDone || !evs[0].Final {
		t.Fatalf("trace %v err %v", evs, err)
	}
}

// A panic in the solver step must not leak the writer goroutine: the
// deferred Close waits for the background worker to exit and keeps the
// already-submitted snapshot durable. Close is also idempotent — the
// normal-exit path may have closed the writer already.
func TestAsyncWriterCloseOnPanicPath(t *testing.T) {
	s := NewMemStore()
	w := NewAsyncWriter(s, WriterConfig{Kind: "ns2d"})

	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the simulated solver panic")
			}
		}()
		defer func() {
			if err := w.Close(); err != nil {
				t.Errorf("deferred Close: %v", err)
			}
		}()
		if err := w.Submit(3, payload(1, 2048), false); err != nil {
			t.Fatal(err)
		}
		panic("solver step blew up")
	}()

	// Close returned, so the goroutine has exited (the done channel is
	// closed before Close returns)...
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines %d after Close, started with %d — writer goroutine leaked", got, before)
	}
	// ...and the in-flight snapshot is durable despite the panic.
	if _, _, err := s.Open(3, 0); err != nil {
		t.Errorf("snapshot not durable after panic-path Close: %v", err)
	}
	// Idempotent: a second Close is a no-op, not a deadlock or panic.
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The closed writer rejects new snapshots with an error, not a hang.
	if err := w.Submit(9, payload(1, 16), false); err == nil {
		t.Error("Submit on a closed writer must fail")
	}
}
