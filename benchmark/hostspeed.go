package main

import (
	"sync"
	"time"
)

// hostSpeed measures how fast the host runs this process while a
// workload is being timed, by timing one fixed piece of arithmetic
// between the workload's ops. On a shared host the same instructions
// take 5-10% longer or shorter from one minute to the next as the
// co-tenants' load moves the processor's clock and its shared caches,
// and whole seconds of a workload's ops drift with it (README.md has
// the numbers); the kernel drifts the same way, so dividing a cycle's
// timings by the kernel's median over the same cycle takes the drift
// out and leaves the program's own cost.
type hostSpeed struct {
	mu  sync.Mutex // the farm's clients sample from two goroutines
	buf [1 << 15]float64
	ms  []float64
}

// refKernelMS is the kernel's time on the host that recorded
// BENCHMARK.json, on an ordinary day. Timings are reported as measured
// milliseconds times refKernelMS over the kernel's median, that is, in
// milliseconds of a host running at that reference speed.
const refKernelMS = 0.42

// sample runs the kernel n times — each run sixteen multiply-add passes
// over a 256 KiB array, about 0.4 ms, short against the 10 ms after
// which the Go scheduler preempts — and records each run's time.
func (h *hostSpeed) sample(n int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for ; n > 0; n-- {
		t0 := time.Now()
		sum := 0.0
		for pass := 0; pass < 16; pass++ {
			for i := range h.buf {
				h.buf[i] = h.buf[i]*0.999 + 1e-9*float64(i)
				sum += h.buf[i]
			}
		}
		h.buf[0] = sum * 1e-300 // keeps the sum, and so the loop, alive
		h.ms = append(h.ms, millis(time.Since(t0)))
	}
}

// take returns how many times slower than the reference the host ran
// over the samples taken since the last call — above 1 on a slow day —
// and forgets them.
func (h *hostSpeed) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	f := median(h.ms) / refKernelMS
	h.ms = h.ms[:0]
	return f
}
