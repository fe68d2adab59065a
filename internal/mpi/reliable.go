package mpi

import (
	"errors"
	"fmt"
)

// Reliable-delivery mode: on a lossy simulated network (fault
// injection), a Comm can be switched to an acknowledged stop-and-wait
// protocol per (peer, tag) channel — every payload is framed with a
// sequence number, the receiver acknowledges it on a dedicated ack
// tag, and the sender retransmits after an exponentially backed-off
// timeout. Duplicates (from lost acks) are detected by sequence number
// and re-acknowledged. This mirrors what TCP provides under LAM/MPICH
// on the paper's commodity Ethernet — and makes its cost visible in
// virtual time: each resend charges the sender's CPU and wall clock
// (protocol overhead + wire time) and each timeout advances the wall
// clock only, like a blocked recv.
//
// Bypasses (documented, deliberate): self-sends cannot be lost and use
// the direct path; wildcard (AnySource) receives skip sequencing, so
// reliable-mode programs must not mix them with reliable traffic on
// the same tag; the nonblocking Isend/Wait pair stays raw, because
// stop-and-wait acknowledgment is inherently blocking.

// ErrDeliveryFailed reports that a reliable send exhausted its retry
// budget without an acknowledgment (the peer crashed, or the link is
// lossier than the retry budget tolerates).
var ErrDeliveryFailed = errors.New("mpi: delivery failed")

// ackTagBase maps a data tag to its acknowledgment tag, above both the
// user tag space [0, 1<<24) and the collective space [1<<24, 1<<27).
const ackTagBase = 1 << 28

// Reliability configures the acknowledged-delivery protocol.
type Reliability struct {
	// AckTimeout is the initial ack wait in virtual seconds.
	AckTimeout float64
	// MaxRetries bounds the number of retransmissions per message
	// before the send fails with ErrDeliveryFailed.
	MaxRetries int
	// Backoff multiplies the timeout after each retransmission.
	Backoff float64
	// MaxTimeout caps the backed-off timeout.
	MaxTimeout float64
}

// DefaultReliability returns the standard protocol parameters: 1 ms
// initial timeout, doubling per retry up to 100 ms, at most 10
// retransmissions (a total wait near one virtual second — far beyond
// any solver's per-step compute skew).
func DefaultReliability() *Reliability {
	return &Reliability{AckTimeout: 1e-3, MaxRetries: 10, Backoff: 2, MaxTimeout: 0.1}
}

// pairTag keys the per-channel sequence counters.
type pairTag struct {
	peer, tag int
}

// SetReliability switches the communicator to reliable delivery (nil
// restores the raw direct mode). Every rank of a program must make the
// same choice, or framed and unframed messages will be mixed.
func (c *Comm) SetReliability(r *Reliability) {
	c.rel = r
	if r != nil && c.sendSeq == nil {
		c.sendSeq = map[pairTag]int{}
		c.recvSeq = map[pairTag]int{}
	}
}

// Retransmits returns the number of payload retransmissions this rank
// has performed in reliable mode (a determinism-sensitive statistic:
// same seed, same count).
func (c *Comm) Retransmits() int { return c.retransmits }

// Sleep advances the rank's virtual wall clock by dt seconds without
// consuming CPU — blocking I/O such as writing a checkpoint.
func (c *Comm) Sleep(dt float64) { c.node.Sleep(dt) }

// frame prepends the sequence number to the payload.
func frame(seq int, data []float64) []float64 {
	f := make([]float64, len(data)+1)
	f[0] = float64(seq)
	copy(f[1:], data)
	return f
}

// sendReliable transmits one framed payload and blocks until it is
// acknowledged (retransmitting as needed).
func (c *Comm) sendReliable(dst, tag int, data []float64) error {
	key := pairTag{dst, tag}
	seq := c.sendSeq[key]
	c.sendSeq[key] = seq + 1
	f := frame(seq, data)
	c.node.SendLossy(dst, tag, f)
	return c.awaitAck(dst, tag, seq, f)
}

// awaitAck waits for the acknowledgment of (tag, seq) from dst,
// retransmitting the frame on timeout with exponential backoff.
func (c *Comm) awaitAck(dst, tag, seq int, f []float64) error {
	timeout := c.rel.AckTimeout
	for attempt := 0; ; {
		ack, ok := c.node.RecvDeadline(dst, tag+ackTagBase, c.node.Clock()+timeout)
		if ok {
			if len(ack) > 0 && int(ack[0]) >= seq {
				return nil
			}
			continue // stale ack from an earlier exchange on this tag
		}
		attempt++
		if attempt > c.rel.MaxRetries {
			return fmt.Errorf("mpi: rank %d: no ack from rank %d (tag %d, seq %d) after %d retransmissions: %w",
				c.Rank(), dst, tag, seq, c.rel.MaxRetries, ErrDeliveryFailed)
		}
		c.retransmits++
		c.node.SendLossy(dst, tag, f)
		timeout *= c.rel.Backoff
		if timeout > c.rel.MaxTimeout {
			timeout = c.rel.MaxTimeout
		}
	}
}

// recvReliable blocks for the next in-sequence framed payload from
// (src, tag), acknowledging everything it sees and discarding
// duplicates. It returns an error if src crashes with nothing pending.
func (c *Comm) recvReliable(src, tag int) ([]float64, error) {
	key := pairTag{src, tag}
	for {
		f, err := c.node.RecvErr(src, tag)
		if err != nil {
			return nil, err
		}
		if len(f) == 0 {
			return nil, fmt.Errorf("mpi: rank %d: unframed message from rank %d on tag %d in reliable mode", c.Rank(), src, tag)
		}
		seq := int(f[0])
		expect := c.recvSeq[key]
		if seq > expect {
			// A gap: the sender abandoned an earlier message (retry
			// budget exhausted). Unrecoverable for this channel; do not
			// acknowledge out-of-order data.
			continue
		}
		c.node.SendControl(src, tag+ackTagBase, f[:1])
		if seq == expect {
			c.recvSeq[key] = seq + 1
			return f[1:], nil
		}
		// seq < expect: duplicate of a delivered payload (its ack was
		// lost); the re-ack above is all it needed.
	}
}

// sendrecvReliable is the acknowledged symmetric exchange. Either
// direction may have been dropped, so while waiting for the partner's
// payload the sender retransmits its own on timeout; phase two then
// waits for its own acknowledgment.
func (c *Comm) sendrecvReliable(dst, sendTag int, data []float64, src, recvTag int) ([]float64, error) {
	skey := pairTag{dst, sendTag}
	seq := c.sendSeq[skey]
	c.sendSeq[skey] = seq + 1
	f := frame(seq, data)
	c.node.SendLossy(dst, sendTag, f)

	rkey := pairTag{src, recvTag}
	timeout := c.rel.AckTimeout
	var out []float64
	for attempt := 0; ; {
		got, ok := c.node.RecvDeadline(src, recvTag, c.node.Clock()+timeout)
		if !ok {
			attempt++
			if attempt > c.rel.MaxRetries {
				return nil, fmt.Errorf("mpi: rank %d: no payload from rank %d (tag %d) after %d retransmissions to rank %d: %w",
					c.Rank(), src, recvTag, c.rel.MaxRetries, dst, ErrDeliveryFailed)
			}
			c.retransmits++
			c.node.SendLossy(dst, sendTag, f)
			timeout *= c.rel.Backoff
			if timeout > c.rel.MaxTimeout {
				timeout = c.rel.MaxTimeout
			}
			continue
		}
		if len(got) == 0 {
			return nil, fmt.Errorf("mpi: rank %d: unframed message from rank %d on tag %d in reliable mode", c.Rank(), src, recvTag)
		}
		s := int(got[0])
		expect := c.recvSeq[rkey]
		if s > expect {
			continue
		}
		c.node.SendControl(src, recvTag+ackTagBase, got[:1])
		if s == expect {
			c.recvSeq[rkey] = s + 1
			out = got[1:]
			break
		}
	}
	if err := c.awaitAck(dst, sendTag, seq, f); err != nil {
		return nil, err
	}
	return out, nil
}

// SendErr is Send returning an error instead of failing the run when
// reliable delivery exhausts its retries. Without reliability it is
// identical to Send (the perfect network cannot fail).
func (c *Comm) SendErr(dst, tag int, data []float64) error {
	if c.rel == nil || dst == c.Rank() {
		c.node.Send(dst, tag, data)
		return nil
	}
	return c.sendReliable(dst, tag, data)
}

// RecvErr is Recv returning an error when the awaited peer has crashed
// (instead of blocking into a simulator deadlock). Works with or
// without reliable mode; src must be a concrete rank for crash
// detection (AnySource falls back to blocking semantics).
func (c *Comm) RecvErr(src, tag int) ([]float64, error) {
	if c.rel == nil || src == c.Rank() || src == AnySource {
		return c.node.RecvErr(src, tag)
	}
	return c.recvReliable(src, tag)
}
