// Package mpi provides the message-passing API the paper's solvers
// use, implemented on the simulated cluster of package simnet: blocking
// point-to-point operations plus the collectives MPICH/LAM implement on
// top of them — Alltoall (pairwise exchange), Allreduce (recursive
// doubling), Bcast (binomial tree), Reduce, Gather and Barrier
// (dissemination).
//
// The paper's kernel-level Figure 8 benchmarks MPI_Alltoall, and its
// Nektar-F application is dominated by it ("This type of algorithm
// relies heavily on Global Exchange MPI_Alltoall"); the Nektar-ALE code
// instead uses global reductions and pairwise exchanges via the
// gather-scatter library (package gs).
package mpi

import (
	"fmt"
	"math/bits"

	"nektar/internal/simnet"
)

// Comm is a communicator bound to one simulated rank.
type Comm struct {
	node *simnet.Node
	size int // sub-world size override; 0 = full world
	seq  int // collective sequence number for tag isolation

	// Reliable-delivery state (see reliable.go); nil rel = raw mode.
	rel         *Reliability
	sendSeq     map[pairTag]int
	recvSeq     map[pairTag]int
	retransmits int
}

// Tag spaces: user tags occupy [0, collTagBase), collective tags
// [collTagBase, collTagMax), and acknowledgment tags (reliable mode)
// live at tag+ackTagBase in [1<<28, 1<<28+collTagMax).
const (
	// collTagBase separates collective traffic from user tags.
	collTagBase = 1 << 24
	// collTagMax bounds the collective tag space; nextTag wraps before
	// reaching it.
	collTagMax = 1 << 27
)

// AnySource and AnyTag are the wildcard receive selectors.
const (
	AnySource = simnet.AnySource
	AnyTag    = simnet.AnyTag
)

// World wraps a simnet rank in a communicator spanning all ranks.
func World(n *simnet.Node) *Comm { return &Comm{node: n} }

// SubWorld wraps a simnet rank in a communicator spanning only ranks
// [0, size) of the simulation. The solvers are written against
// Size()/Rank(), so a sub-world is all the rank-replacement rewiring a
// supervised run needs: extra simulated ranks (a failure-detection
// monitor, future hot-spare processes) share the cluster without
// participating in the solver's collectives, and after a restart the
// replacement process simply adopts the failed rank's id inside the
// same sub-world. The caller's rank must lie inside the sub-world;
// traffic to ranks outside it uses the simnet.Node API directly.
func SubWorld(n *simnet.Node, size int) (*Comm, error) {
	if size < 1 || size > n.P {
		return nil, fmt.Errorf("mpi: sub-world size %d outside [1, %d]", size, n.P)
	}
	if n.Rank >= size {
		return nil, fmt.Errorf("mpi: rank %d cannot join a sub-world of size %d", n.Rank, size)
	}
	return &Comm{node: n, size: size}, nil
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.node.Rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.size > 0 {
		return c.size
	}
	return c.node.P
}

// Wtime returns the virtual wall-clock time in seconds (MPI_Wtime).
func (c *Comm) Wtime() float64 { return c.node.Clock() }

// CPUTime returns the virtual CPU time in seconds (the C library
// clock() the paper compares against MPI_Wtime).
func (c *Comm) CPUTime() float64 { return c.node.CPUTime() }

// Compute accounts dt seconds of local computation.
func (c *Comm) Compute(dt float64) { c.node.Compute(dt) }

// Send performs a blocking standard-mode send. In reliable mode the
// payload is acknowledged and retransmitted as needed; an exhausted
// retry budget fails the run (use SendErr to handle it instead).
func (c *Comm) Send(dst, tag int, data []float64) {
	if err := c.SendErr(dst, tag, data); err != nil {
		panic(err)
	}
}

// Recv performs a blocking receive. Use AnySource / AnyTag for
// wildcards. In reliable mode a crashed peer fails the run (use
// RecvErr to handle it instead).
func (c *Comm) Recv(src, tag int) []float64 {
	data, err := c.RecvErr(src, tag)
	if err != nil {
		panic(err)
	}
	return data
}

// Isend starts a nonblocking send; pass the request to Wait.
func (c *Comm) Isend(dst, tag int, data []float64) *simnet.Request {
	return c.node.Isend(dst, tag, data)
}

// Wait blocks until a nonblocking send completes.
func (c *Comm) Wait(r *simnet.Request) { c.node.Wait(r) }

// SetPhantomFactor scales the timed size of this rank's outgoing
// messages (paper-scale extrapolation; see simnet.Node).
func (c *Comm) SetPhantomFactor(f float64) { c.node.SetPhantomFactor(f) }

// Sendrecv exchanges messages with two (possibly different) partners.
// The send is posted nonblocking before the receive, so symmetric
// exchanges overlap both directions (as MPI_Sendrecv does) and
// rendezvous transfers cannot deadlock. In reliable mode both
// directions are acknowledged (see sendrecvReliable).
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	if c.rel != nil && dst != c.Rank() && src != c.Rank() && src != AnySource {
		out, err := c.sendrecvReliable(dst, sendTag, data, src, recvTag)
		if err != nil {
			panic(err)
		}
		return out
	}
	req := c.node.Isend(dst, sendTag, data)
	out := c.node.Recv(src, recvTag)
	c.node.Wait(req)
	return out
}

// nextTag returns a fresh collective tag in [collTagBase, collTagMax).
// The sequence wraps before spilling past collTagMax into the
// acknowledgment tag space. The wrap is safe: collectives are issued
// in the same order on every rank with at most one in flight per
// communicator, and each consumes all of its messages before
// returning, so a reused tag can never match live traffic. (Reliable
// mode can leave stale *duplicates* in flight, but their sequence
// numbers are per (peer, tag) and monotone, so a reused tag discards
// them as duplicates.) The Size()+1 margin keeps Bruck's tag+k round
// offsets inside the bound.
func (c *Comm) nextTag() int {
	if collTagBase+c.seq+c.Size()+1 >= collTagMax {
		c.seq = 0
	}
	c.seq++
	return collTagBase + c.seq
}

// Barrier blocks until all ranks reach it (dissemination algorithm).
// Each round is a Sendrecv, not Send-then-Recv: the dissemination
// pattern is a ring, and in reliable mode a blocking acknowledged send
// around a cycle would deadlock (every rank waiting for an ack only
// its successor's receive can generate). Sendrecv makes progress on
// both directions at once; tree-shaped collectives (Bcast, Reduce,
// Gather) have no cycles and keep their plain sends.
func (c *Comm) Barrier() {
	p, r := c.Size(), c.Rank()
	tag := c.nextTag()
	for k := 1; k < p; k <<= 1 {
		dst := (r + k) % p
		src := (r - k + p) % p
		c.Sendrecv(dst, tag, nil, src, tag)
	}
}

// Bcast distributes root's data to all ranks via a binomial tree and
// returns the received slice (root returns data unchanged).
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p, r := c.Size(), c.Rank()
	tag := c.nextTag()
	if p == 1 {
		return data
	}
	// Virtual rank with root at 0.
	vr := (r - root + p) % p
	if vr != 0 {
		mask := 1
		for mask < p {
			if vr&mask != 0 {
				src := ((vr - mask) + root) % p
				data = c.Recv(src, tag)
				break
			}
			mask <<= 1
		}
		// Forward to children below that bit.
		mask >>= 1
		for ; mask > 0; mask >>= 1 {
			if vr+mask < p {
				c.Send((vr+mask+root)%p, tag, data)
			}
		}
		return data
	}
	// Root: highest power of two below p downwards.
	mask := 1
	for mask < p {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if mask < p {
			c.Send((mask+root)%p, tag, data)
		}
	}
	return data
}

// Op is a reduction operator applied element-wise.
type Op int

const (
	// Sum adds element-wise.
	Sum Op = iota
	// Min takes the element-wise minimum.
	Min
	// Max takes the element-wise maximum.
	Max
)

func (op Op) apply(dst, src []float64) {
	switch op {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// Allreduce combines data across all ranks and returns the result on
// every rank. Power-of-two sizes use recursive doubling; others fall
// back to Reduce + Bcast, like MPICH.
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	p, r := c.Size(), c.Rank()
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	if p&(p-1) == 0 {
		tag := c.nextTag()
		for k := 1; k < p; k <<= 1 {
			partner := r ^ k
			got := c.Sendrecv(partner, tag, acc, partner, tag)
			op.apply(acc, got)
		}
		return acc
	}
	acc = c.Reduce(0, acc, op)
	return c.Bcast(0, acc)
}

// Reduce combines data onto root (binomial tree); non-root ranks
// receive nil.
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	p, r := c.Size(), c.Rank()
	tag := c.nextTag()
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	vr := (r - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			dst := ((vr &^ mask) + root) % p
			c.Send(dst, tag, acc)
			return nil
		}
		if vr|mask < p {
			src := ((vr | mask) + root) % p
			got := c.Recv(src, tag)
			op.apply(acc, got)
		}
		mask <<= 1
	}
	return acc
}

// Gather collects each rank's data at root; root receives a slice of
// per-rank payloads (indexed by rank), others receive nil. Linear
// algorithm, as in the paper's solution-field output path ("Sends (all
// but processor 0) and Receives (processor 0)").
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	p, r := c.Size(), c.Rank()
	tag := c.nextTag()
	if r != root {
		c.Send(root, tag, data)
		return nil
	}
	out := make([][]float64, p)
	out[root] = append([]float64(nil), data...)
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		out[i] = c.Recv(i, tag)
	}
	return out
}

// AlltoallAlg selects an MPI_Alltoall implementation.
type AlltoallAlg int

const (
	// AlgAuto picks Bruck for tiny messages on many ranks (latency
	// bound) and pairwise otherwise, MPICH's heuristic.
	AlgAuto AlltoallAlg = iota
	// AlgPairwise runs P-1 sendrecv steps with disjoint partners.
	AlgPairwise
	// AlgBruck is the log2(P)-round store-and-forward algorithm:
	// fewer, larger messages, trading bandwidth for latency.
	AlgBruck
)

// Alltoall exchanges send[i] to rank i, returning the per-source
// payloads. len(send) must equal Size().
func (c *Comm) Alltoall(send [][]float64, alg AlltoallAlg) [][]float64 {
	p, r := c.Size(), c.Rank()
	if len(send) != p {
		panic(fmt.Sprintf("mpi: Alltoall needs %d buffers, got %d", p, len(send)))
	}
	tag := c.nextTag()
	recv := make([][]float64, p)
	recv[r] = append([]float64(nil), send[r]...)
	if p == 1 {
		return recv
	}
	if alg == AlgAuto {
		// Tiny per-pair messages on many ranks are latency bound:
		// Bruck's log2(P) rounds win; otherwise pairwise. Bruck needs
		// equal block sizes.
		alg = AlgPairwise
		if p >= 8 && len(send[(r+1)%p]) <= 128 {
			equal := true
			for i := 1; i < p; i++ {
				if len(send[i]) != len(send[0]) {
					equal = false
					break
				}
			}
			if equal {
				alg = AlgBruck
			}
		}
	}
	if alg == AlgBruck {
		return c.alltoallBruck(send, tag)
	}
	pow2 := p&(p-1) == 0
	for step := 1; step < p; step++ {
		var dst, src int
		if pow2 {
			dst = r ^ step
			src = dst
		} else {
			dst = (r + step) % p
			src = (r - step + p) % p
		}
		recv[src] = c.Sendrecv(dst, tag, send[dst], src, tag)
	}
	return recv
}

// alltoallBruck implements the Bruck (1997) store-and-forward
// alltoall: ceil(log2 P) rounds of combined messages. All blocks must
// have equal length (the solvers' transposes do).
func (c *Comm) alltoallBruck(send [][]float64, tag int) [][]float64 {
	p, r := c.Size(), c.Rank()
	blockLen := len(send[0])
	for i := 1; i < p; i++ {
		if len(send[i]) != blockLen {
			panic("mpi: Bruck alltoall requires equal block sizes")
		}
	}
	// Phase 1: local rotation so block i holds the payload for rank
	// (r + i) mod p.
	tmp := make([][]float64, p)
	for i := 0; i < p; i++ {
		tmp[i] = append([]float64(nil), send[(r+i)%p]...)
	}
	// Phase 2: log rounds; round k ships every block whose index has
	// bit k set, packed into one message.
	for k := 1; k < p; k <<= 1 {
		dst := (r + k) % p
		src := (r - k + p) % p
		var idx []int
		for i := 0; i < p; i++ {
			if i&k != 0 {
				idx = append(idx, i)
			}
		}
		buf := make([]float64, 0, len(idx)*blockLen)
		for _, i := range idx {
			buf = append(buf, tmp[i]...)
		}
		got := c.Sendrecv(dst, tag+k, buf, src, tag+k)
		for j, i := range idx {
			copy(tmp[i], got[j*blockLen:(j+1)*blockLen])
		}
	}
	// Phase 3: inverse rotation — block i arrived from rank
	// (r - i + p) mod p.
	recv := make([][]float64, p)
	for i := 0; i < p; i++ {
		recv[(r-i+p)%p] = tmp[i]
	}
	return recv
}

// PowerOfTwo reports whether n is a power of two (exported for the
// harnesses that choose Alltoall partnerings).
func PowerOfTwo(n int) bool { return n > 0 && bits.OnesCount(uint(n)) == 1 }
