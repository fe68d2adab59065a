// Package timing provides the per-stage instrumentation the paper uses
// to break a Navier-Stokes time step into its seven regions (section
// 4.1, Figure 12): each stage accumulates host wall time and the BLAS
// operation counts recorded by package blas, which the machine models
// later price per architecture.
package timing

import (
	"time"

	"nektar/internal/blas"
)

// Stages accumulates per-stage operation counts and host durations.
type Stages struct {
	Names []string

	Counts  []blas.Counts
	Seconds []float64 // host wall time, for native measurements
	Priced  []float64 // machine-priced seconds (cluster-simulated runs)
	Wall    []float64 // simulated wall seconds incl. comm/idle (cluster runs)

	master  blas.Counts
	prev    blas.Counts
	current int
	t0      time.Time
	active  bool
	started bool
}

// NewStages creates a stage set with the given names.
func NewStages(names ...string) *Stages {
	return &Stages{
		Names:   names,
		Counts:  make([]blas.Counts, len(names)),
		Seconds: make([]float64, len(names)),
		Priced:  make([]float64, len(names)),
		Wall:    make([]float64, len(names)),
	}
}

// Attach starts global BLAS recording; it must bracket the
// instrumented run (recording is process-global).
func (s *Stages) Attach() {
	blas.StartRecording(&s.master)
	s.started = true
}

// Detach stops BLAS recording.
func (s *Stages) Detach() {
	blas.StopRecording()
	s.started = false
}

// Begin enters stage i; any active stage is ended first.
func (s *Stages) Begin(i int) {
	if s.active {
		s.End()
	}
	s.current = i
	s.prev = s.master
	s.t0 = time.Now()
	s.active = true
}

// End closes the active stage, charging it the counts and wall time
// accumulated since Begin.
func (s *Stages) End() {
	if !s.active {
		return
	}
	delta := s.master
	delta.Sub(&s.prev)
	s.Counts[s.current].Add(&delta)
	s.Seconds[s.current] += time.Since(s.t0).Seconds()
	s.active = false
}

// AddPriced charges externally recorded counts and machine-priced
// seconds to the currently active stage. Cluster-simulated runs use
// this instead of Attach, because the global BLAS recorder cannot span
// the scheduler yields between simulated ranks.
func (s *Stages) AddPriced(c *blas.Counts, seconds float64) {
	if !s.active {
		return
	}
	s.Counts[s.current].Add(c)
	s.Priced[s.current] += seconds
}

// AddWall charges simulated wall-clock seconds (communication and idle
// time included) to stage i. Unlike AddPriced it does not require an
// active stage: the wall clock spans the stage transition itself.
func (s *Stages) AddWall(i int, seconds float64) {
	if i < 0 || i >= len(s.Wall) {
		return
	}
	s.Wall[i] += seconds
}

// Current returns the index of the active stage, or -1 if none.
func (s *Stages) Current() int {
	if !s.active {
		return -1
	}
	return s.current
}

// Total returns the sum of all per-stage counts.
func (s *Stages) Total() blas.Counts {
	var t blas.Counts
	for i := range s.Counts {
		t.Add(&s.Counts[i])
	}
	return t
}

// Reset zeroes the accumulated stage data (the master recording
// continues).
func (s *Stages) Reset() {
	for i := range s.Counts {
		s.Counts[i] = blas.Counts{}
		s.Seconds[i] = 0
		s.Priced[i] = 0
	}
	for i := range s.Wall {
		s.Wall[i] = 0
	}
}

// Snapshot is a copy of the per-stage second accumulators at an
// instant; subtracting two snapshots yields per-stage deltas (the
// engine's per-step trace events are built this way).
type Snapshot struct {
	Seconds []float64
	Priced  []float64
	Wall    []float64
}

// Snapshot copies the current per-stage second accumulators.
func (s *Stages) Snapshot() Snapshot {
	var snap Snapshot
	s.SnapshotInto(&snap)
	return snap
}

// SnapshotInto copies the current per-stage second accumulators into
// dst, reusing dst's slices. The engine's per-step tracing refreshes a
// scratch snapshot pair this way instead of allocating three slices
// every step.
func (s *Stages) SnapshotInto(dst *Snapshot) {
	dst.Seconds = append(dst.Seconds[:0], s.Seconds...)
	dst.Priced = append(dst.Priced[:0], s.Priced...)
	dst.Wall = append(dst.Wall[:0], s.Wall...)
}

// Percent returns each stage's share (0-100) of a per-stage metric
// given by eval (e.g. machine-priced seconds).
func Percent(vals []float64) []float64 {
	var total float64
	for _, v := range vals {
		total += v
	}
	out := make([]float64, len(vals))
	if total == 0 {
		return out
	}
	for i, v := range vals {
		out[i] = 100 * v / total
	}
	return out
}

// Clock is the stage accounting shared by the cluster-simulated
// solvers. Each Mark charges the simulated wall clock elapsed since the
// previous mark (communication and idle time included) to the previous
// stage's Wall accumulator and brackets the new stage; marking -1
// closes the step. Between marks, BeginCompute/EndCompute bracket the
// communication-free sections whose BLAS work is priced.
// Serial runs pass a zero clock and no pricing, so only the host
// accumulators move.
type Clock struct {
	st   *Stages
	now  func() float64 // the rank's simulated wall clock (Comm.Wtime)
	last int
	t    float64

	price   func(c *blas.Counts, stage int) float64
	advance func(dt float64)
	rec     blas.Counts
}

// NewClock creates a stage clock over st reading now.
func NewClock(st *Stages, now func() float64) Clock {
	return Clock{st: st, now: now, last: -1}
}

// Price turns the clock's compute sections into priced ones: price
// converts a section's BLAS counts, recorded in the given stage, to
// machine seconds (the CPU model times the solver's extrapolation
// factor) and advance moves the rank's clock by them (Comm.Compute).
func (c *Clock) Price(price func(c *blas.Counts, stage int) float64, advance func(dt float64)) {
	c.price, c.advance = price, advance
}

// BeginCompute opens a communication-free computation section. It is
// a no-op without pricing (validation mode; a nil clock too), so that
// a caller-attached Stages recorder sees everything.
func (c *Clock) BeginCompute() {
	if c == nil || c.price == nil {
		return
	}
	c.rec = blas.Counts{}
	blas.StartRecording(&c.rec)
}

// EndCompute closes the section: it stops recording, advances the
// rank's clock by the section's priced duration and charges the active
// stage.
func (c *Clock) EndCompute() {
	if c == nil || c.price == nil {
		return
	}
	blas.StopRecording()
	dt := c.price(&c.rec, c.st.Current())
	c.advance(dt)
	c.st.AddPriced(&c.rec, dt)
}

// Mark enters stage i (-1 closes the step).
func (c *Clock) Mark(i int) {
	now := c.now()
	if c.last >= 0 {
		c.st.AddWall(c.last, now-c.t)
	}
	c.last = i
	c.t = now
	if i >= 0 {
		c.st.Begin(i)
	} else {
		c.st.End()
	}
}
