package blas

import (
	"sync"
	"sync/atomic"
)

// Kernel identifies a class of BLAS operation for accounting purposes.
// The classes mirror the kernels the paper benchmarks in Figures 1-6;
// routines not benchmarked individually are folded into the class with
// the same arithmetic-intensity profile.
type Kernel int

const (
	// KernelDcopy covers pure data movement (dcopy, dswap, fill).
	KernelDcopy Kernel = iota
	// KernelDaxpy covers streaming multiply-add kernels
	// (daxpy, dscal, element-wise multiply).
	KernelDaxpy
	// KernelDdot covers reduction kernels (ddot, dnrm2).
	KernelDdot
	// KernelDgemv covers matrix-vector kernels (dgemv, dger, dtrsv,
	// banded solves).
	KernelDgemv
	// KernelDgemm covers matrix-matrix kernels (dgemm, dtrsm, banded
	// factorizations).
	KernelDgemm
	numKernels
)

// String returns the reference-BLAS name of the kernel class.
func (k Kernel) String() string {
	switch k {
	case KernelDcopy:
		return "dcopy"
	case KernelDaxpy:
		return "daxpy"
	case KernelDdot:
		return "ddot"
	case KernelDgemv:
		return "dgemv"
	case KernelDgemm:
		return "dgemm"
	}
	return "unknown"
}

// Kernels lists all kernel classes in a stable order.
func Kernels() []Kernel {
	return []Kernel{KernelDcopy, KernelDaxpy, KernelDdot, KernelDgemv, KernelDgemm}
}

// Op is one recorded operation-count bucket.
type Op struct {
	Calls int64 // number of BLAS calls
	N     int64 // total problem size (sum over calls of the size metric)
	Flops int64 // total floating-point operations
	Bytes int64 // total bytes moved (load + store, ideal traffic)
}

// Counts accumulates operation counts per kernel class. The zero value
// is ready to use.
type Counts struct {
	Ops [numKernels]Op
}

// Add merges other into c.
func (c *Counts) Add(other *Counts) {
	for i := range c.Ops {
		c.Ops[i].Calls += other.Ops[i].Calls
		c.Ops[i].N += other.Ops[i].N
		c.Ops[i].Flops += other.Ops[i].Flops
		c.Ops[i].Bytes += other.Ops[i].Bytes
	}
}

// Sub subtracts other from c (used to compute per-stage deltas).
func (c *Counts) Sub(other *Counts) {
	for i := range c.Ops {
		c.Ops[i].Calls -= other.Ops[i].Calls
		c.Ops[i].N -= other.Ops[i].N
		c.Ops[i].Flops -= other.Ops[i].Flops
		c.Ops[i].Bytes -= other.Ops[i].Bytes
	}
}

// Scale multiplies every accumulated quantity by f (used to
// extrapolate measured per-element counts to larger meshes).
func (c *Counts) Scale(f float64) {
	for i := range c.Ops {
		c.Ops[i].Calls = int64(float64(c.Ops[i].Calls) * f)
		c.Ops[i].N = int64(float64(c.Ops[i].N) * f)
		c.Ops[i].Flops = int64(float64(c.Ops[i].Flops) * f)
		c.Ops[i].Bytes = int64(float64(c.Ops[i].Bytes) * f)
	}
}

// TotalFlops returns the total floating point operations across all
// kernel classes.
func (c *Counts) TotalFlops() int64 {
	var t int64
	for i := range c.Ops {
		t += c.Ops[i].Flops
	}
	return t
}

// TotalBytes returns the total ideal memory traffic across all kernel
// classes.
func (c *Counts) TotalBytes() int64 {
	var t int64
	for i := range c.Ops {
		t += c.Ops[i].Bytes
	}
	return t
}

// recording state. The default is a single global recorder: one atomic
// load on the hot path when nothing records. Goroutines that need an
// independent recording session while others run BLAS concurrently
// (the simulated MPI ranks under simnet's parallel scheduler) bind a
// per-thread recorder instead: BindThreadRecorder registers a slot
// keyed by the OS thread id, and Start/Stop/Snapshot/record transparently
// dispatch to the calling thread's slot when one exists. A bound
// goroutine must be locked to its OS thread (runtime.LockOSThread) for
// the lifetime of the binding, which also guarantees no other goroutine
// ever runs on — or records against — that thread.
var (
	recMu     sync.Mutex
	recCounts *Counts // global session, guarded by recMu

	// recActive counts active sessions, global plus per-thread, so the
	// disabled-path check stays one atomic load.
	recActive atomic.Int32
	// threadSlots maps OS thread id -> *threadRec; threadBound counts
	// entries so unbound processes skip the thread-id syscall entirely.
	threadSlots sync.Map
	threadBound atomic.Int32
)

// threadRec is one bound thread's recording slot. Only the owning
// (thread-locked) goroutine touches cur, so no lock is needed.
type threadRec struct {
	cur *Counts // nil between Start/Stop
}

// currentSlot returns the calling thread's recording slot, or nil.
func currentSlot() *threadRec {
	tid, ok := threadID()
	if !ok {
		return nil
	}
	v, ok := threadSlots.Load(tid)
	if !ok {
		return nil
	}
	return v.(*threadRec)
}

// ThreadRecordingSupported reports whether this platform can key
// recording sessions by OS thread (simnet's parallel scheduler requires
// it; without it ranks would corrupt each other's operation counts).
func ThreadRecordingSupported() bool {
	_, ok := threadID()
	return ok
}

// BindThreadRecorder gives the calling goroutine — which must already
// be locked to its OS thread — a private recording slot. Subsequent
// StartRecording/StopRecording/Snapshot calls from this goroutine
// operate on the slot and never touch the process-global session.
// Returns false (and binds nothing) when the platform cannot identify
// OS threads.
func BindThreadRecorder() bool {
	tid, ok := threadID()
	if !ok {
		return false
	}
	threadSlots.Store(tid, &threadRec{})
	threadBound.Add(1)
	return true
}

// UnbindThreadRecorder releases the calling thread's recording slot
// (ending any session still open on it).
func UnbindThreadRecorder() {
	tid, ok := threadID()
	if !ok {
		return
	}
	if v, loaded := threadSlots.LoadAndDelete(tid); loaded {
		if v.(*threadRec).cur != nil {
			recActive.Add(-1)
		}
		threadBound.Add(-1)
	}
}

// StartRecording directs all subsequent BLAS calls to accumulate into
// c until StopRecording is called. On a thread bound via
// BindThreadRecorder the session is thread-local; otherwise it is
// process-global and must not be enabled concurrently from multiple
// goroutines.
func StartRecording(c *Counts) {
	if threadBound.Load() > 0 {
		if s := currentSlot(); s != nil {
			if s.cur == nil {
				recActive.Add(1)
			}
			s.cur = c
			return
		}
	}
	recMu.Lock()
	if recCounts == nil {
		recActive.Add(1)
	}
	recCounts = c
	recMu.Unlock()
}

// StopRecording stops accumulation for the calling thread's session
// (thread-local if bound, global otherwise).
func StopRecording() {
	if threadBound.Load() > 0 {
		if s := currentSlot(); s != nil {
			if s.cur != nil {
				recActive.Add(-1)
			}
			s.cur = nil
			return
		}
	}
	recMu.Lock()
	if recCounts != nil {
		recActive.Add(-1)
	}
	recCounts = nil
	recMu.Unlock()
}

// Snapshot returns a copy of the currently accumulating counts, or a
// zero Counts if recording is disabled.
func Snapshot() Counts {
	if threadBound.Load() > 0 {
		if s := currentSlot(); s != nil {
			if s.cur == nil {
				return Counts{}
			}
			return *s.cur
		}
	}
	recMu.Lock()
	defer recMu.Unlock()
	if recCounts == nil {
		return Counts{}
	}
	return *recCounts
}

// RecordExternal merges externally computed counts (e.g. from the
// banded LAPACK routines, whose inner loops do not call back into
// BLAS) into the active recording session, if any.
func RecordExternal(c *Counts) {
	if recActive.Load() == 0 {
		return
	}
	if threadBound.Load() > 0 {
		if s := currentSlot(); s != nil {
			if s.cur != nil {
				s.cur.Add(c)
			}
			return
		}
	}
	recMu.Lock()
	if recCounts != nil {
		recCounts.Add(c)
	}
	recMu.Unlock()
}

func record(k Kernel, n, flops, bytes int) {
	if recActive.Load() == 0 {
		return
	}
	if threadBound.Load() > 0 {
		if s := currentSlot(); s != nil {
			// A bound thread outside a session records nowhere: the
			// global session (if any) belongs to other goroutines.
			if c := s.cur; c != nil {
				op := &c.Ops[k]
				op.Calls++
				op.N += int64(n)
				op.Flops += int64(flops)
				op.Bytes += int64(bytes)
			}
			return
		}
	}
	recMu.Lock()
	if recCounts != nil {
		op := &recCounts.Ops[k]
		op.Calls++
		op.N += int64(n)
		op.Flops += int64(flops)
		op.Bytes += int64(bytes)
	}
	recMu.Unlock()
}
