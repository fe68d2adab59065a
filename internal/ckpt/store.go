// Package ckpt is the durable checkpoint store: the restart files the
// paper's 250-CPU-hour production runs survived commodity hardware
// with, as a subsystem. PRs 1-3 staged checkpoints as ephemeral
// in-memory []byte handed to engine.Loop's OnCheckpoint hook, which a
// process loss defeats; this package makes them durable records —
// framed with a header (magic, solver kind, step, rank, raw length),
// flate-compressed, and closed by a CRC-32 trailer — behind a small
// Store interface with memory and on-disk backends.
//
// Recovery is corruption-aware: Open verifies the CRC and the header
// before returning a payload, and Latest walks the store newest-first
// for the youngest step at which EVERY rank's record still verifies,
// skipping torn, bit-flipped, or incomplete steps. A Retention policy
// (keep the last K steps) bounds the disk footprint of a long campaign.
//
// The write path lives in writer.go: a synchronous writer and a
// double-buffered asynchronous one, both on host time.
package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Record framing, all integers big-endian:
//
//	offset  size  field
//	0       4     magic "NKCP"
//	4       1     version (currently 1)
//	5       1     len(kind)
//	6       k     kind (solver/workload tag, ASCII)
//	6+k     8     step
//	14+k    4     rank
//	18+k    8     raw payload length (pre-compression)
//	26+k    n     flate-compressed payload
//	26+k+n  4     CRC-32 (IEEE) over everything above
const (
	magic      = "NKCP"
	version    = 1
	trailerLen = 4
)

// Meta identifies one checkpoint record.
type Meta struct {
	// Kind tags the producing solver/workload (e.g. "ns2d", "nsf") so a
	// restart cannot load state into the wrong solver.
	Kind string
	Rank int
	Step int
}

// Stats reports one stored record's sizes.
type Stats struct {
	Raw    int // marshalled solver state bytes
	Stored int // framed bytes on the medium (header + flate + CRC)
}

// Ratio is the compression ratio raw/stored (1 = incompressible).
func (s Stats) Ratio() float64 {
	if s.Stored == 0 {
		return 0
	}
	return float64(s.Raw) / float64(s.Stored)
}

// CorruptError reports a record that failed verification. Latest and
// the recovery paths treat it as "this record does not exist" and fall
// back; Open surfaces it so callers can tell corruption from absence.
type CorruptError struct {
	Key    string // backend-specific record name
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: record %s corrupt: %s", e.Key, e.Reason)
}

// NotFoundError reports a record absent from the store.
type NotFoundError struct {
	Step, Rank int
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("ckpt: no record for step %d rank %d", e.Step, e.Rank)
}

// Store is one checkpoint tier: a set of framed records addressed by
// (step, rank). Implementations are safe for concurrent use.
type Store interface {
	// Put frames, compresses, and persists one record, replacing any
	// existing (step, rank) record.
	Put(m Meta, state []byte) (Stats, error)
	// Open returns the verified payload for (step, rank): a CRC or
	// header mismatch yields a *CorruptError, an absent record a
	// *NotFoundError.
	Open(step, rank int) ([]byte, Meta, error)
	// Steps lists the steps with at least one record, ascending.
	Steps() ([]int, error)
	// Ranks lists the ranks recorded at step, ascending.
	Ranks(step int) ([]int, error)
	// Delete removes every record at step (absent steps are a no-op).
	Delete(step int) error
}

// EncodeRecord frames and compresses one checkpoint payload.
func EncodeRecord(m Meta, state []byte) ([]byte, error) {
	if len(m.Kind) > 255 {
		return nil, fmt.Errorf("ckpt: kind %q longer than 255 bytes", m.Kind)
	}
	if m.Step < 0 || m.Rank < 0 {
		return nil, fmt.Errorf("ckpt: negative step %d or rank %d", m.Step, m.Rank)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(version)
	buf.WriteByte(byte(len(m.Kind)))
	buf.WriteString(m.Kind)
	var hdr [20]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(m.Step))
	binary.BigEndian.PutUint32(hdr[8:], uint32(m.Rank))
	binary.BigEndian.PutUint64(hdr[12:], uint64(len(state)))
	buf.Write(hdr[:])
	// flate.BestSpeed: checkpoints sit on the step loop's shadow; the
	// state payloads are float-heavy and compress only modestly, so a
	// deeper search buys little and costs a lot.
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if _, err := zw.Write(state); err != nil {
		return nil, fmt.Errorf("ckpt: compressing record: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: compressing record: %w", err)
	}
	var crc [trailerLen]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// DecodeRecord verifies and decodes one framed record. Any framing,
// CRC, or length inconsistency returns a *CorruptError (key left empty
// for the backend to fill in).
func DecodeRecord(frame []byte) (Meta, []byte, error) {
	corrupt := func(reason string, args ...any) (Meta, []byte, error) {
		return Meta{}, nil, &CorruptError{Reason: fmt.Sprintf(reason, args...)}
	}
	if len(frame) < len(magic)+2+20+trailerLen {
		return corrupt("truncated at %d bytes", len(frame))
	}
	body, trailer := frame[:len(frame)-trailerLen], frame[len(frame)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return corrupt("CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	if string(body[:len(magic)]) != magic {
		return corrupt("bad magic %q", body[:len(magic)])
	}
	if body[len(magic)] != version {
		return corrupt("unsupported version %d", body[len(magic)])
	}
	kindLen := int(body[len(magic)+1])
	rest := body[len(magic)+2:]
	if len(rest) < kindLen+20 {
		return corrupt("truncated header")
	}
	kind, rest := string(rest[:kindLen]), rest[kindLen:]
	step := binary.BigEndian.Uint64(rest[0:])
	rank := binary.BigEndian.Uint32(rest[8:])
	rawLen := binary.BigEndian.Uint64(rest[12:])
	// EncodeRecord writes only non-negative ints; a frame that says
	// otherwise is damage (or hostile), however good its CRC.
	if step > math.MaxInt || uint64(rank) > math.MaxInt || rawLen >= math.MaxInt {
		return corrupt("header out of range: step %d, rank %d, payload length %d", step, rank, rawLen)
	}
	// Inflate at most one byte past the declared length: enough to see
	// a mismatch, never an unbounded expansion of a small frame.
	zr := flate.NewReader(bytes.NewReader(rest[20:]))
	state, err := io.ReadAll(io.LimitReader(zr, int64(rawLen)+1))
	if err != nil {
		return corrupt("inflating payload: %v", err)
	}
	if uint64(len(state)) != rawLen {
		return corrupt("payload inflated to %d bytes or more, header says %d", len(state), rawLen)
	}
	return Meta{Kind: kind, Rank: int(rank), Step: int(step)}, state, nil
}

// Latest returns the newest step at which every rank in [0, procs) has
// a record that verifies, with the per-rank payloads. Corrupt, torn,
// and incomplete steps are skipped — this is the recovery fallback —
// and (-1, nil, nil) means the store holds nothing usable. Only
// backend I/O failures (listing errors) are returned as errors.
func Latest(s Store, procs int) (int, [][]byte, error) {
	steps, err := s.Steps()
	if err != nil {
		return -1, nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		states := make([][]byte, procs)
		ok := true
		for r := 0; r < procs; r++ {
			state, _, oerr := s.Open(steps[i], r)
			if oerr != nil {
				ok = false
				break
			}
			states[r] = state
		}
		if ok {
			return steps[i], states, nil
		}
	}
	return -1, nil, nil
}

// Retention is the GC policy: keep the newest KeepLast steps. The zero
// value keeps everything.
type Retention struct {
	KeepLast int
}

func (p Retention) zero() bool { return p.KeepLast <= 0 }

// GC applies the retention policy, returning the steps removed.
func GC(s Store, pol Retention) ([]int, error) {
	if pol.zero() {
		return nil, nil
	}
	steps, err := s.Steps()
	if err != nil {
		return nil, err
	}
	var removed []int
	for _, step := range steps[:max(0, len(steps)-pol.KeepLast)] {
		if err := s.Delete(step); err != nil {
			return removed, err
		}
		removed = append(removed, step)
	}
	return removed, nil
}
