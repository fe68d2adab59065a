// Package mpi provides the message-passing API the paper's solvers
// use, implemented on the simulated cluster of package simnet: blocking
// point-to-point operations plus the collectives MPICH/LAM implement on
// top of them — Alltoall (pairwise exchange), Allreduce (recursive
// doubling), Bcast (binomial tree), Gather and Barrier
// (dissemination).
//
// The paper's kernel-level Figure 8 benchmarks MPI_Alltoall, and its
// Nektar-F application is dominated by it ("This type of algorithm
// relies heavily on Global Exchange MPI_Alltoall"); the Nektar-ALE code
// instead uses global reductions and pairwise exchanges via the
// gather-scatter library (package gs).
//
// Buffer ownership: the Into forms (RecvInto, SendrecvInto,
// AllreduceInto, AlltoallInto) read and write only buffers the caller
// owns and retain none of them; the allocating forms (Recv, Sendrecv,
// Allreduce, Alltoall) are thin wrappers that return fresh memory the
// caller owns. Send buffers are free for reuse as soon as a call returns.
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

	// work is the collectives' scratch space (AllreduceInto's partner
	// vector, Bruck's staging blocks); collectives never nest, so one
	// buffer serves them all.
	work []float64
}

// Tag spaces: user tags occupy [0, collTagBase), collective tags
// [collTagBase, collTagMax).
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
// Size()/Rank(), so extra simulated ranks (an out-of-band observer,
// say) can share the cluster without participating in the solver's
// collectives. The caller's rank must lie inside the sub-world;
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

// Send performs a blocking standard-mode send.
func (c *Comm) Send(dst, tag int, data []float64) { c.node.Send(dst, tag, data) }

// Recv performs a blocking receive. Use AnySource / AnyTag for
// wildcards.
func (c *Comm) Recv(src, tag int) []float64 { return c.node.Recv(src, tag) }

// RecvInto is Recv into a buffer the caller owns, returning the payload
// length; dst must be at least that long.
func (c *Comm) RecvInto(src, tag int, dst []float64) int { return c.node.RecvInto(src, tag, dst) }

// Isend starts a nonblocking send; pass the request to Wait.
func (c *Comm) Isend(dst, tag int, data []float64) *simnet.Request {
	return c.node.Isend(dst, tag, data)
}

// Wait blocks until a nonblocking send completes.
func (c *Comm) Wait(r *simnet.Request) { c.node.Wait(r) }

// SetPhantomFactor scales the timed size of this rank's outgoing
// messages (paper-scale extrapolation; see simnet.Node).
func (c *Comm) SetPhantomFactor(f float64) { c.node.SetPhantomFactor(f) }

// Sendrecv exchanges messages with two (possibly different) partners
// and returns the received payload as fresh memory. The send is posted
// nonblocking before the receive, so symmetric exchanges overlap both
// directions (as MPI_Sendrecv does) and rendezvous transfers cannot
// deadlock.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) []float64 {
	return c.sendrecv(dst, sendTag, data, src, recvTag, nil)
}

// SendrecvInto is Sendrecv receiving into recv, which the caller owns
// and which must be at least as long as the incoming payload; it
// returns the payload length. data and recv must not overlap.
func (c *Comm) SendrecvInto(dst, sendTag int, data []float64, src, recvTag int, recv []float64) int {
	if recv == nil {
		recv = []float64{}
	}
	return len(c.sendrecv(dst, sendTag, data, src, recvTag, recv))
}

// sendrecv is the one exchange: a nil recv asks for the payload as
// fresh memory, anything else is filled and returned cut to length.
func (c *Comm) sendrecv(dst, sendTag int, data []float64, src, recvTag int, recv []float64) []float64 {
	req := c.node.Isend(dst, sendTag, data)
	if recv == nil {
		recv = c.node.Recv(src, recvTag)
	} else {
		recv = recv[:c.node.RecvInto(src, recvTag, recv)]
	}
	c.node.Wait(req)
	return recv
}

// nextTag returns a fresh collective tag in [collTagBase, collTagMax).
// The sequence wraps before spilling past collTagMax. The wrap is safe:
// collectives are called in the same order on every rank with at most
// one in flight per communicator, and each consumes all of its
// messages before returning, so a reused tag can never match live
// traffic. The Size()+1 margin keeps Bruck's tag+k round offsets
// inside the bound.
func (c *Comm) nextTag() int {
	if collTagBase+c.seq+c.Size()+1 >= collTagMax {
		c.seq = 0
	}
	c.seq++
	return collTagBase + c.seq
}

// Barrier blocks until all ranks reach it (dissemination algorithm).
// Each round is a Sendrecv: the dissemination pattern is a ring, and
// posting the send before the receive moves both directions at once.
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
// every rank as fresh memory.
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	out := make([]float64, len(data))
	c.AllreduceInto(out, data, op)
	return out
}

// AllreduceInto combines src across all ranks into dst on every rank;
// the two must have equal length and may be the same slice. Power-of-two
// sizes use recursive doubling; others fall back to Reduce + Bcast,
// like MPICH: the same binomial trees, tags and messages as those two
// calls, run in dst and the communicator's scratch space.
func (c *Comm) AllreduceInto(dst, src []float64, op Op) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: AllreduceInto needs equal lengths, got dst %d and src %d", len(dst), len(src)))
	}
	p, r := c.Size(), c.Rank()
	copy(dst, src)
	if p == 1 {
		return
	}
	got := c.scratch(len(dst))
	if p&(p-1) == 0 {
		tag := c.nextTag()
		for k := 1; k < p; k <<= 1 {
			partner := r ^ k
			c.SendrecvInto(partner, tag, dst, partner, tag, got)
			op.apply(dst, got)
		}
		return
	}
	// Reduce onto rank 0: fold in each child's partial sum, then hand
	// this subtree's to the parent.
	tag := c.nextTag()
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			c.Send(r&^mask, tag, dst)
			break
		}
		if r|mask < p {
			c.RecvInto(r|mask, tag, got)
			op.apply(dst, got)
		}
	}
	// Broadcast from rank 0: receive from the parent, forward to the
	// children below that bit.
	tag = c.nextTag()
	mask := 1
	for mask < p {
		if r&mask != 0 {
			c.RecvInto(r-mask, tag, dst)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r+mask < p {
			c.Send(r+mask, tag, dst)
		}
	}
}

// scratch returns the communicator's work buffer cut to n floats;
// contents are unspecified.
func (c *Comm) scratch(n int) []float64 {
	if cap(c.work) < n {
		c.work = make([]float64, n)
	}
	return c.work[:n]
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
// payloads as fresh memory. len(send) must equal Size().
func (c *Comm) Alltoall(send [][]float64, alg AlltoallAlg) [][]float64 {
	recv := make([][]float64, len(send))
	c.AlltoallInto(send, recv, alg)
	return recv
}

// AlltoallInto exchanges send[i] to rank i and leaves rank i's block in
// recv[i]. len(send) and len(recv) must equal Size(). Each recv[i] the
// caller provides must be at least as long as the block rank i sends
// and has its leading elements overwritten; a nil recv[i] is replaced by
// a fresh slice of exactly the block (that is all Alltoall is). No send
// block may overlap a recv block.
func (c *Comm) AlltoallInto(send, recv [][]float64, alg AlltoallAlg) {
	p, r := c.Size(), c.Rank()
	if len(send) != p || len(recv) != p {
		panic(fmt.Sprintf("mpi: Alltoall needs %d send and receive buffers, got %d and %d", p, len(send), len(recv)))
	}
	tag := c.nextTag()
	fill(recv, r, send[r])
	if p == 1 {
		return
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
		c.alltoallBruck(send, recv, tag)
		return
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
		if got := c.sendrecv(dst, tag, send[dst], src, tag, recv[src]); recv[src] == nil {
			recv[src] = got
		}
	}
}

// fill stores block as recv[i]: copied into the caller's buffer when
// there is one, as a fresh slice otherwise.
func fill(recv [][]float64, i int, block []float64) {
	if recv[i] == nil {
		recv[i] = append([]float64(nil), block...)
		return
	}
	if len(block) > len(recv[i]) {
		panic(fmt.Sprintf("mpi: %d-float payload does not fit the %d-float receive buffer", len(block), len(recv[i])))
	}
	copy(recv[i], block)
}

// alltoallBruck implements the Bruck (1997) store-and-forward
// alltoall: ceil(log2 P) rounds of combined messages. All blocks must
// have equal length (the solvers' transposes do). The staging blocks
// and both round buffers live in the communicator's scratch space.
func (c *Comm) alltoallBruck(send, recv [][]float64, tag int) {
	p, r := c.Size(), c.Rank()
	bl := len(send[0])
	for i := 1; i < p; i++ {
		if len(send[i]) != bl {
			panic("mpi: Bruck alltoall requires equal block sizes")
		}
	}
	half := (p + 1) / 2 // most blocks any one round ships
	work := c.scratch((p + 2*half) * bl)
	tmp, out, in := work[:p*bl], work[p*bl:(p+half)*bl], work[(p+half)*bl:]
	// Phase 1: local rotation so block i holds the payload for rank
	// (r + i) mod p.
	for i := 0; i < p; i++ {
		copy(tmp[i*bl:(i+1)*bl], send[(r+i)%p])
	}
	// Phase 2: log rounds; round k ships every block whose index has
	// bit k set, packed into one message.
	for k := 1; k < p; k <<= 1 {
		dst := (r + k) % p
		src := (r - k + p) % p
		n := 0
		for i := 0; i < p; i++ {
			if i&k != 0 {
				n += copy(out[n:n+bl], tmp[i*bl:(i+1)*bl])
			}
		}
		c.SendrecvInto(dst, tag+k, out[:n], src, tag+k, in[:n])
		n = 0
		for i := 0; i < p; i++ {
			if i&k != 0 {
				n += copy(tmp[i*bl:(i+1)*bl], in[n:n+bl])
			}
		}
	}
	// Phase 3: inverse rotation — block i arrived from rank
	// (r - i + p) mod p. Block 0 is the rank's own, already in place.
	for i := 1; i < p; i++ {
		fill(recv, (r-i+p)%p, tmp[i*bl:(i+1)*bl])
	}
}

// PowerOfTwo reports whether n is a power of two (exported for the
// harnesses that choose Alltoall partnerings).
func PowerOfTwo(n int) bool { return n > 0 && bits.OnesCount(uint(n)) == 1 }
