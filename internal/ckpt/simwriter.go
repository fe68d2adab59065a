package ckpt

import (
	"fmt"
	"math"

	"nektar/internal/engine"
	"nektar/internal/mpi"
)

// WriteMode selects how a simulated rank's record reaches disk.
type WriteMode int

const (
	// WriteLocal: each rank writes its own framed record to its
	// node-local disk — the paper's restart files.
	WriteLocal WriteMode = iota
	// WriteStriped: each rank cuts its framed record into P equal
	// stripes and exchanges them all-to-all through the calibrated
	// network, so every node-local disk holds a 1/P-th shard of every
	// rank's record (a poor man's parallel file system: any single
	// record is re-assemblable at full aggregate disk bandwidth, at
	// the price of moving P-1/P of every checkpoint over the wires).
	WriteStriped
)

func (m WriteMode) String() string {
	switch m {
	case WriteLocal:
		return "local"
	case WriteStriped:
		return "striped"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// SimWriter is the checkpoint sink for ranks on the simulated cluster:
// it persists records synchronously (real background goroutines would
// break the cooperative virtual-time scheduler) and charges the write
// to the rank's virtual clock through the machine's disk and network
// model. This is where checkpoint cost stops being an assumed constant
// and becomes a measurement — faultbench feeds the measured per-write
// virtual seconds into Young's formula.
//
// All ranks of the communicator must submit at the same steps (the
// striped exchange is a collective); engine.Loop's checkpoint cadence
// guarantees that.
type SimWriter struct {
	// Store receives the records (nil prices the write without
	// persisting — pure cost model).
	Kind  string
	Store Store
	// Comm is the rank's communicator; Rank and the striping factor
	// derive from it.
	Comm *mpi.Comm
	// DiskMBs is the node-local disk bandwidth the write is priced at
	// (0 = free disk: network cost only).
	DiskMBs float64
	// Mode selects local restart files or striped shards.
	Mode WriteMode
	// Retention, when non-zero, runs GC after every put (rank 0 only,
	// so the collective delete happens once).
	Retention Retention
	// Trace, when set, receives one ckpt_done event per record.
	Trace *engine.Tracer

	stats  WriterStats
	last   float64
	stored int // framed size of the most recent record
}

// Submit implements engine.CheckpointSink. The write is priced from the
// framed size the store reports keeping.
func (w *SimWriter) Submit(step int, state []byte, final bool) error {
	m := Meta{Kind: w.Kind, Rank: w.Comm.Rank(), Step: step}
	var stats Stats
	if w.Store != nil {
		var err error
		stats, err = w.Store.Put(m, state)
		if err != nil {
			return err
		}
		if !w.Retention.zero() && w.Comm.Rank() == 0 {
			if _, err := GC(w.Store, w.Retention); err != nil {
				return err
			}
		}
	} else {
		frame, err := EncodeRecord(m, state)
		if err != nil {
			return err
		}
		stats = Stats{Raw: len(state), Stored: len(frame)}
	}

	w.stored = stats.Stored
	cost := w.price(w.Mode)
	w.last = cost
	w.stats.Snapshots++
	w.stats.RawBytes += int64(stats.Raw)
	w.stats.StoredBytes += int64(stats.Stored)
	w.stats.ExposedS += cost
	if w.Trace != nil {
		w.Trace.Emit(engine.Event{
			Ev: engine.EvCkptDone, Rank: w.Comm.Rank(), Step: step,
			Bytes: stats.Raw, Stored: stats.Stored, Ratio: stats.Ratio(),
			ExposedS: cost, Final: final,
		})
	}
	return nil
}

// price charges this rank's virtual clock for writing the most recent
// record in mode and returns the cost, without persisting anything and
// without touching the writer's counters. Collective in striped mode,
// like Submit.
func (w *SimWriter) price(mode WriteMode) float64 {
	t0 := w.Comm.Wtime()
	diskBytes := float64(w.stored)
	if mode == WriteStriped && w.Comm.Size() > 1 {
		p := w.Comm.Size()
		// Everyone must stripe the same block size or the exchange
		// deadlocks on shape; take the collective max of the framed
		// sizes (records differ by a few bytes across ranks).
		maxStored := w.Comm.Allreduce([]float64{diskBytes}, mpi.Max)[0]
		stripeBytes := math.Ceil(maxStored / float64(p))
		elems := int(math.Ceil(stripeBytes / 8)) // 8-byte words on the wire
		send := make([][]float64, p)
		for i := range send {
			send[i] = make([]float64, elems)
		}
		w.Comm.Alltoall(send, mpi.AlgAuto)
		// Each disk now lands one stripe from every rank.
		diskBytes = stripeBytes * float64(p)
	}
	if w.DiskMBs > 0 {
		w.Comm.Sleep(diskBytes / (w.DiskMBs * 1e6))
	}
	return w.Comm.Wtime() - t0
}

// Drain implements engine.CheckpointSink (writes are synchronous).
func (w *SimWriter) Drain() error { return nil }

// Stats returns the writer's counters; seconds are virtual.
func (w *SimWriter) Stats() WriterStats { return w.stats }

// LastCostS is the virtual wall cost of the most recent write on this
// rank — the measured delta faultbench feeds into Young's formula.
func (w *SimWriter) LastCostS() float64 { return w.last }
