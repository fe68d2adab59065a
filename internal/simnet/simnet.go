package simnet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Injector is the observation hook RunWithFaults installs, consulted
// on every inter-node eager send: n counts the earlier eager messages
// on the directed pair src -> dst, t is the sender's clock. It must be
// a pure function of its arguments (plus its own state) so a run stays
// reproducible. The network model is lossless, as TCP made the paper's
// Ethernet, so an Injector observes traffic and must return false; a
// true result fails the run with ErrMessageDropped.
type Injector interface {
	DropMessage(src, dst, n int, t float64) bool
}

// ErrMessageDropped reports that an Injector asked to lose a message,
// which the lossless network model cannot represent.
var ErrMessageDropped = errors.New("simnet: the network is lossless, an injector cannot drop messages")

// poisonSignal unwinds a rank poisoned by the scheduler's deadlock
// resolution (or by a run-failing error); the recover handler
// recognizes it and keeps it out of c.fail.
type poisonSignal struct{}

// Node is one simulated rank. All methods must be called from the
// rank's own goroutine (the body function passed to Run).
type Node struct {
	Rank int
	P    int

	net *cluster

	clock float64 // virtual wall-clock, seconds
	cpu   float64 // virtual CPU time, seconds

	resume chan struct{}
	done   bool
	poison bool // set by the election that finds a deadlock; yield panics

	// Pending received messages keyed by (source, tag); each entry is
	// FIFO per key, matching MPI's non-overtaking guarantee. Only keys
	// with a message pending are present: a queue that drains leaves the
	// map for freeQueues, so a program that draws a fresh tag per
	// collective retains nothing and a wildcard receive scans only what
	// is actually waiting. Touched only by the rank holding the baton
	// (serial) or the admission (parallel), sender or receiver alike.
	inbox      map[msgKey]*msgQueue
	freeQueues []*msgQueue
	// freePayloads recycles payload copies by length: isend takes its
	// copy from here and RecvInto returns the one it has copied out of.
	// Only this rank's own goroutine touches it, so it needs no lock
	// under either scheduler.
	freePayloads     map[int][][]float64
	freePayloadCount int
	// The key being waited for while blockKind is a receive kind.
	waitKey msgKey
	// If blocked in Wait for a rendezvous send, the message involved.
	waitSend  *message
	blockKind blockKind

	// phantom multiplies the *timed* size of every outgoing message
	// without inflating the payload. The paper-scale extrapolation
	// harness uses it to charge full-size transfer times while moving
	// validation-scale data.
	phantom float64

	// Parallel-scheduler state (parsched.go; unused when net.par is
	// nil): the protocol state and the rank's frozen election key — the
	// virtual time of its next shared-state event, published at each
	// release. Guarded by net.par.mu.
	status rankState
	key    float64
}

// SetPhantomFactor sets the message-size multiplier used for timing
// (values < 1 are treated as 1).
func (n *Node) SetPhantomFactor(f float64) { n.phantom = f }

// maxTimedSize caps the phantom-scaled timed size of a message: 2^52
// bytes is exactly representable in float64 and far below int overflow
// on 64-bit targets, so arithmetic on timed sizes stays well-defined.
const maxTimedSize = 1 << 52

// timedSize returns the size in bytes used for transfer timing. Very
// large phantom factors are clamped to maxTimedSize (and the run is
// marked failed) instead of silently overflowing to a negative int.
func (n *Node) timedSize(elems int) int {
	s := 8 * elems
	if n.phantom > 1 {
		f := float64(s) * n.phantom
		if math.IsNaN(f) || f < 0 || f > maxTimedSize {
			n.net.failOnce(fmt.Errorf(
				"simnet: rank %d: phantom factor %g overflows the timed size of a %d-byte message (clamped to 2^52)",
				n.Rank, n.phantom, s))
			return maxTimedSize
		}
		s = int(f)
	}
	return s
}

type blockKind int

const (
	blockNone blockKind = iota
	blockRecv
	blockSendRendezvous
)

type msgKey struct {
	src, tag int
}

type message struct {
	key      msgKey
	dst      int // destination rank (for diagnostics)
	data     []float64
	arrive   float64 // virtual time at which the payload is available
	rendezv  bool    // requires the receiver before transfer starts
	xferDone bool    // transfer booked (always true for eager)
	ready    float64 // time the sender's buffer is free (send completion)
	sender   *Node   // for rendezvous completion
	size     int
	posted   float64 // sender clock when the send was issued

	// Pool bookkeeping: the struct (with its embedded Request) is
	// recycled through msgPool once both owners — the sender-side
	// Request and the receiver-side delivery — have released it. The
	// payload slice never travels with it: Recv hands it to the
	// application, RecvInto to the receiving rank's freePayloads.
	refs int32
	req  Request
}

// Request is the handle of a nonblocking send.
type Request struct {
	m *message
}

// msgPool recycles message structs. At P=4096 every simulated step
// issues thousands of sends; without the pool each one allocates a
// message plus a Request and leaves them for the GC.
var msgPool = sync.Pool{New: func() any { return new(message) }}

// getMsg returns a reset message with refs owners and its embedded
// Request wired up. Callers fill the remaining fields.
func getMsg(refs int32) *message {
	m := msgPool.Get().(*message)
	*m = message{refs: refs}
	m.req.m = m
	return m
}

// release drops one ownership share; the last release recycles the
// struct. The data slice is detached first — it may have escaped to
// the application through Recv.
func (m *message) release() {
	if atomic.AddInt32(&m.refs, -1) == 0 {
		m.data = nil
		m.sender = nil
		m.req.m = nil
		msgPool.Put(m)
	}
}

// msgQueue is one inbox FIFO. A head index instead of re-slicing keeps
// the backing array alive across push/pop cycles, so a steady-state
// exchange pattern reaches zero allocations per message.
type msgQueue struct {
	buf  []*message
	head int
}

func (q *msgQueue) empty() bool     { return q.head == len(q.buf) }
func (q *msgQueue) peek() *message  { return q.buf[q.head] }
func (q *msgQueue) push(m *message) { q.buf = append(q.buf, m) }

func (q *msgQueue) pop() *message {
	m := q.buf[q.head]
	q.buf[q.head] = nil // drop the reference; the pool may reuse m
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// cluster is the shared simulator state. Node methods synchronize
// through the scheduler: under the serial scheduler only the rank
// holding the baton runs, and it passes the baton itself (yield, elect);
// under the parallel scheduler (parsched.go) rank host code runs
// concurrently but shared-state mutations are admitted one at a time in
// the same (virtual time, rank) order.
type cluster struct {
	model *Model
	nodes []*Node

	mu sync.Mutex // guards fail

	// Serial scheduler state, owned by the baton holder: rank
	// goroutines not yet done, and whether an election found a deadlock
	// (after which the poisoned ranks are resumed in rank order).
	running    int
	deadlocked bool

	// Shared resources: per-SMP-node NIC free times and the switch
	// backplane free time.
	egressFree  []float64
	ingressFree []float64
	bpFree      float64

	// par is the parallel scheduler's state; nil under the serial
	// scheduler, which also turns every lockPar/unlockPar into a no-op.
	par *parSched

	// inj and msgSeq (eager messages per directed rank pair) are set
	// only when RunWithFaults installs an Injector.
	inj    Injector
	msgSeq map[[2]int]int

	fail error
}

// failOnce records the first failure; later ones are dropped so the
// root cause survives the unwinding that follows.
func (c *cluster) failOnce(err error) {
	c.mu.Lock()
	if c.fail == nil {
		c.fail = err
	}
	c.mu.Unlock()
}

// Run simulates P ranks executing body concurrently under the given
// network model. It returns the
// per-rank virtual wall-clock and CPU times at exit, and an error if
// the program deadlocked or a rank panicked.
func Run(p int, model *Model, body func(n *Node)) (wall, cpu []float64, err error) {
	return RunWithFaults(p, model, nil, body)
}

// RunWithFaults is Run with an Injector observing every inter-node
// eager send. A nil injector reproduces Run exactly, and so does any
// injector that returns false.
func RunWithFaults(p int, model *Model, inj Injector, body func(n *Node)) (wall, cpu []float64, err error) {
	if p < 1 {
		return nil, nil, fmt.Errorf("simnet: need at least one rank")
	}
	nNodes := p
	if model.RanksPerNode > 1 {
		nNodes = (p + model.RanksPerNode - 1) / model.RanksPerNode
	}
	c := &cluster{
		model:       model,
		running:     p,
		egressFree:  make([]float64, nNodes),
		ingressFree: make([]float64, nNodes),
	}
	if inj != nil {
		c.inj = inj
		c.msgSeq = map[[2]int]int{}
	}
	c.nodes = make([]*Node, p)
	for i := 0; i < p; i++ {
		c.nodes[i] = &Node{
			Rank:   i,
			P:      p,
			net:    c,
			resume: make(chan struct{}),
			inbox:  map[msgKey]*msgQueue{},
		}
	}
	kind, err := resolveScheduler(model, p)
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	if kind == kindParallel {
		// Host-parallel conservative scheduler: rank host code overlaps
		// on real cores, shared-state events are admitted in serial
		// order (bit-identical).
		c.par = &parSched{live: p}
		c.par.cond = sync.NewCond(&c.par.mu)
		// Seed the election heap before any rank can run: the first
		// election must see every rank at key 0.
		for i := 0; i < p; i++ {
			c.pushElect(c.nodes[i])
		}
		for i := 0; i < p; i++ {
			wg.Add(1)
			go c.parRank(c.nodes[i], body, &wg)
		}
		c.parRun()
		wg.Wait()
		return c.collect(p)
	}
	for i := 0; i < p; i++ {
		wg.Add(1)
		n := c.nodes[i]
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(poisonSignal); !ok {
						c.failOnce(fmt.Errorf("simnet: rank %d panicked: %v", n.Rank, r))
					}
					// A poisoned rank's cause is already recorded (the
					// deadlock or run-failing error).
				}
				// A finishing rank still holds the baton: it elects its
				// successor before it goes.
				n.done = true
				c.running--
				if next := c.elect(); next != nil {
					next.resume <- struct{}{}
				}
			}()
			// Wait for the first baton.
			<-n.resume
			body(n)
		}()
	}
	// Every rank is parked at its launch; the first election starts the
	// run and the baton then moves from rank to rank (yield) until the
	// last one finishes.
	c.elect().resume <- struct{}{}
	wg.Wait()
	return c.collect(p)
}

// elect is the serial scheduler: one pass over the rank states picks
// who runs next. A rank is a candidate when it is runnable (blockKind
// == blockNone — parked at <-resume, woken, freshly launched, or the
// caller itself in the middle of yield) at its clock; the minimum
// (time, rank) wins, which does not depend on visit order. There is no
// scheduler goroutine: the rank
// that holds the baton calls elect from yield or from its exit path
// and hands the baton straight to the winner, so the election order —
// and with it every clock, trajectory and error — is what a central
// loop over the same scan would produce. The scan is O(P) per event;
// parsched.go elects the same order from elect.go's O(log P) heap and
// is the independent implementation the differential tests compare
// this one against. elect returns nil when every rank is done.
func (c *cluster) elect() *Node {
	if c.deadlocked {
		return c.firstLive()
	}
	var pick *Node
	for _, n := range c.nodes {
		if n.done || n.blockKind != blockNone {
			continue
		}
		if pick == nil || n.clock < pick.clock || (n.clock == pick.clock && n.Rank < pick.Rank) {
			pick = n
		}
	}
	if pick == nil && c.running > 0 {
		// Deadlock: every live rank is blocked with no wake-up time.
		// Diagnose, then poison them so their goroutines unwind through
		// the recover handler, one after another in rank order.
		c.failOnce(c.deadlockError(c.running))
		c.deadlocked = true
		for _, n := range c.nodes {
			n.poison = !n.done
		}
		return c.firstLive()
	}
	return pick
}

// firstLive returns the lowest rank whose goroutine has not finished.
func (c *cluster) firstLive() *Node {
	for _, n := range c.nodes {
		if !n.done {
			return n
		}
	}
	return nil
}

// collect gathers the per-rank virtual clocks and the run's error after
// every rank goroutine has exited.
func (c *cluster) collect(p int) (wall, cpu []float64, err error) {
	wall = make([]float64, p)
	cpu = make([]float64, p)
	for i, n := range c.nodes {
		wall[i] = n.clock
		cpu[i] = n.cpu
	}
	return wall, cpu, c.fail
}

// deadlockError names each blocked rank and what it is waiting on: the
// (source, tag) of a pending receive, or the rendezvous partner of an
// unmatched send.
func (c *cluster) deadlockError(running int) error {
	name := func(v int) string {
		if v == -1 {
			return "any"
		}
		return fmt.Sprintf("%d", v)
	}
	var parts []string
	for _, n := range c.nodes {
		if n.done {
			continue
		}
		switch n.blockKind {
		case blockRecv:
			parts = append(parts, fmt.Sprintf(
				"rank %d in Recv(src=%s, tag=%s) since t=%.6gs",
				n.Rank, name(n.waitKey.src), name(n.waitKey.tag), n.clock))
		case blockSendRendezvous:
			m := n.waitSend
			parts = append(parts, fmt.Sprintf(
				"rank %d in Wait for rendezvous send (dst=%d, tag=%d, %d bytes) posted at t=%.6gs",
				n.Rank, m.dst, m.key.tag, m.size, m.posted))
		default:
			parts = append(parts, fmt.Sprintf("rank %d blocked in an unknown state", n.Rank))
		}
	}
	return fmt.Errorf("simnet: deadlock — all %d remaining rank(s) blocked: %s",
		running, strings.Join(parts, "; "))
}

// yield ends the rank's slice. Under the serial scheduler the rank
// runs the election itself: still first, it keeps the baton and returns
// at once (no goroutine switch — the common case inside a burst of
// eager sends or Compute calls); otherwise it resumes the winner and
// parks until the baton comes back (one switch).
func (n *Node) yield() {
	if n.net.par != nil {
		n.net.parYield(n)
		return
	}
	if next := n.net.elect(); next != n {
		next.resume <- struct{}{}
		<-n.resume
	}
	if n.poison {
		panic(poisonSignal{})
	}
}

// Clock returns the rank's virtual wall-clock time in seconds
// (the simulated MPI_Wtime).
func (n *Node) Clock() float64 { return n.clock }

// CPUTime returns the rank's accumulated virtual CPU time in seconds
// (the simulated clock(); it excludes blocking in communication).
func (n *Node) CPUTime() float64 { return n.cpu }

// Compute advances the rank's clock and CPU time by dt seconds of
// computation. A negative or NaN dt fails the run (through the same
// error path as a deadlock) and unwinds the rank.
func (n *Node) Compute(dt float64) {
	if dt < 0 || math.IsNaN(dt) {
		n.net.failOnce(fmt.Errorf("simnet: rank %d: negative compute time %g", n.Rank, dt))
		panic(poisonSignal{})
	}
	n.clock += dt
	n.cpu += dt
	n.yield()
}

// Send transmits data to rank dst with a tag. Standard-mode semantics:
// eager messages buffer and return after the sender overhead;
// rendezvous messages (size above the link's EagerLimit) block until
// the receiver posts the matching receive.
func (n *Node) Send(dst, tag int, data []float64) {
	n.Wait(n.Isend(dst, tag, data))
}

// Isend starts a nonblocking standard-mode send and returns a request
// to pass to Wait. The sender consumes its per-message CPU overhead
// immediately; rendezvous transfers are booked when the receiver posts
// the matching receive.
func (n *Node) Isend(dst, tag int, data []float64) *Request {
	n.begin()
	if dst == n.Rank {
		// Self-send: buffer locally with no network cost.
		cp := n.newPayload(data)
		key := msgKey{n.Rank, tag}
		m := getMsg(2) // sender Request + receiver delivery
		m.key = key
		m.dst = dst
		m.data = cp
		m.arrive = n.clock
		m.ready = n.clock
		m.xferDone = true
		m.size = 8 * len(data)
		m.posted = n.clock
		n.queueFor(key).push(m)
		n.yield()
		return &m.req
	}
	c := n.net
	link := c.model.link(n.Rank, dst)
	size := n.timedSize(len(data))
	cp := n.newPayload(data)
	rendezv := link.EagerLimit > 0 && size > link.EagerLimit

	// Sender CPU overhead: fixed protocol cost plus per-byte stack
	// copies (TCP); DMA-driven networks set CPUCopyMBs to 0, and a
	// kernel-bypass rendezvous (ZeroCopy) DMAs straight from the user
	// buffer — only its eager messages pay the bounce-buffer copy.
	o := link.OverheadUS * us
	if link.CPUCopyMBs > 0 && !(rendezv && link.ZeroCopy) {
		o += float64(size) / (link.CPUCopyMBs * mb)
	}
	n.clock += o
	n.cpu += o

	m := getMsg(2) // sender Request + receiver delivery
	m.key = msgKey{n.Rank, tag}
	m.dst = dst
	m.data = cp
	m.rendezv = rendezv
	m.sender = n
	m.size = size
	m.posted = n.clock
	dstNode := c.nodes[dst]
	if !rendezv {
		// Eager transfers cross the wire immediately.
		if c.inj != nil && c.model.nodeOf(n.Rank) != c.model.nodeOf(dst) {
			pair := [2]int{n.Rank, dst}
			seq := c.msgSeq[pair]
			c.msgSeq[pair] = seq + 1
			if c.inj.DropMessage(n.Rank, dst, seq, n.clock) {
				c.failOnce(fmt.Errorf("simnet: rank %d: eager message %d to rank %d: %w", n.Rank, seq, dst, ErrMessageDropped))
				panic(poisonSignal{})
			}
		}
		m.arrive = n.reserveTransfer(dst, size, n.clock, link)
		m.ready = n.clock // eager: buffered, sender is free immediately
		m.xferDone = true
		n.deliver(dstNode, m)
		n.yield()
		return &m.req
	}
	// Rendezvous: if the receiver is already waiting, transfer now;
	// otherwise park until it posts the matching receive. The receiver's
	// block state is read under the parallel scheduler's lock: a
	// non-admitted peer can be writing its own block state concurrently
	// only inside Wait, which takes the same lock.
	c.lockPar()
	if dstNode.blockKind == blockRecv && matches(dstNode.waitKey, m.key) {
		start := max(n.clock, dstNode.clock) + link.LatencyUS*us // handshake
		m.arrive = n.reserveTransfer(dst, size, start, link)
		m.ready = m.arrive - link.LatencyUS*us // payload has left the NIC
		m.xferDone = true
		n.deliverLocked(dstNode, m)
		c.unlockPar()
		n.yield()
		return &m.req
	}
	m.arrive = -1
	n.deliverLocked(dstNode, m)
	c.unlockPar()
	n.yield()
	return &m.req
}

// Wait blocks until the send completes (for rendezvous, until the
// receiver has posted and the payload has left the sender's NIC).
// Waiting releases the request: a Request must not be waited on twice.
func (n *Node) Wait(r *Request) {
	if r.m == nil {
		return
	}
	if n.net.par != nil {
		n.parWait(r)
		return
	}
	for !r.m.xferDone {
		n.blockKind = blockSendRendezvous
		n.waitSend = r.m
		n.yield()
		n.waitSend = nil
	}
	n.clock = max(n.clock, r.m.ready)
	m := r.m
	r.m = nil
	m.release()
}

// matches reports whether a posted receive key (which may use
// wildcards via -1) matches a message key.
func matches(want, have msgKey) bool {
	if want.src != -1 && want.src != have.src {
		return false
	}
	if want.tag != -1 && want.tag != have.tag {
		return false
	}
	return true
}

// reserveTransfer books the NIC and backplane resources for a transfer
// starting no earlier than start, returning the arrival time at the
// destination.
func (n *Node) reserveTransfer(dst, size int, start float64, link *LinkModel) float64 {
	c := n.net
	srcNode := c.model.nodeOf(n.Rank)
	dstNode := c.model.nodeOf(dst)
	xfer := link.xfer(size)
	lat := link.LatencyUS * us

	intra := c.model.sharedNode(n.Rank, dst)
	if intra {
		// Shared-memory copy: no NIC or backplane involvement.
		return start + lat + xfer
	}
	egBegin := max(start, c.egressFree[srcNode])
	if link.HalfDuplex {
		egBegin = max(egBegin, c.ingressFree[srcNode])
	}
	egEnd := egBegin + xfer
	c.egressFree[srcNode] = egEnd
	if link.HalfDuplex {
		c.ingressFree[srcNode] = egEnd
	}
	pathEnd := egEnd
	if c.model.BackplaneMBs > 0 {
		bpBegin := max(egBegin, c.bpFree)
		bpEnd := bpBegin + float64(size)/(c.model.BackplaneMBs*mb)
		c.bpFree = bpEnd
		pathEnd = max(pathEnd, bpEnd)
	}
	arrive := pathEnd + lat
	// Cut-through ingress serialization: the receive wire is busy for
	// the transfer duration ending at arrival.
	inBegin := max(arrive-xfer, c.ingressFree[dstNode])
	arrive = inBegin + xfer
	c.ingressFree[dstNode] = arrive
	if link.HalfDuplex {
		c.egressFree[dstNode] = max(c.egressFree[dstNode], arrive)
	}
	return arrive
}

// deliver places a message in the destination inbox and unblocks the
// destination if it is waiting for it.
func (n *Node) deliver(dst *Node, m *message) {
	n.net.lockPar()
	n.deliverLocked(dst, m)
	n.net.unlockPar()
}

// queueFor returns the inbox FIFO for a key, entering one (from the
// free list when it has any) if nothing is pending under that key.
func (n *Node) queueFor(k msgKey) *msgQueue {
	q := n.inbox[k]
	if q == nil {
		if last := len(n.freeQueues) - 1; last >= 0 {
			q, n.freeQueues = n.freeQueues[last], n.freeQueues[:last]
		} else {
			q = &msgQueue{}
		}
		n.inbox[k] = q
	}
	return q
}

// deliverLocked is deliver with the parallel scheduler's lock already
// held (no-op lock under the serial scheduler).
func (n *Node) deliverLocked(dst *Node, m *message) {
	c := n.net
	dst.queueFor(m.key).push(m)
	if dst.blockKind == blockRecv && matches(dst.waitKey, m.key) {
		dst.blockKind = blockNone
		if c.par != nil {
			// Woken: electable again at its parked key.
			c.pushElect(dst)
		}
		// Serial: the election scan sees the cleared blockKind directly.
	}
}

// AnySource and AnyTag are wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Recv blocks until a message from src with the given tag arrives and
// returns its payload, which belongs to the caller from then on. The
// rank's clock advances to the later of its own time and the message's
// arrival time.
func (n *Node) Recv(src, tag int) []float64 {
	return n.recv(src, tag).take()
}

// RecvInto is Recv into a buffer the caller owns: the payload is copied
// to dst[:k], k is returned, and the simulator's copy goes back to this
// rank's free list for a later send of the same length. Timing is
// identical to Recv. A dst shorter than the payload is a programming
// error and panics.
func (n *Node) RecvInto(src, tag int, dst []float64) int {
	return n.takeInto(n.recv(src, tag), dst)
}

// recv is the blocking receive behind Recv and RecvInto: it waits for a
// match, consumes it and returns the message with the receiver's share
// still held.
func (n *Node) recv(src, tag int) *message {
	n.begin()
	key := msgKey{src, tag}
	for {
		if m := n.takeMatch(key); m != nil {
			n.consume(m)
			return m
		}
		n.waitKey = key
		n.blockKind = blockRecv
		n.yield()
	}
}

// take ends a receipt the allocating way: the payload is handed to the
// application and the receiver's share of the message is released.
func (m *message) take() []float64 {
	data := m.data
	m.release()
	return data
}

// takeInto ends a receipt the caller-owned way: copy out, recycle the
// simulator's payload copy, release the receiver's share.
func (n *Node) takeInto(m *message, dst []float64) int {
	if len(m.data) > len(dst) {
		panic(fmt.Sprintf("simnet: rank %d: RecvInto(src=%d, tag=%d): %d-float payload does not fit the %d-float buffer",
			n.Rank, m.key.src, m.key.tag, len(m.data), len(dst)))
	}
	k := copy(dst, m.data)
	n.freePayload(m.data)
	m.release()
	return k
}

// maxFreePayloads bounds the payload copies one rank keeps for reuse.
// A rank needs about as many as it has sends in flight (a gather-scatter
// round posts one per neighbour); beyond the cap a returned payload is
// simply dropped for the collector.
const maxFreePayloads = 64

// newPayload returns a copy of data for the wire, reusing a recycled
// payload of the same length when this rank has one.
func (n *Node) newPayload(data []float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	if l := n.freePayloads[len(data)]; len(l) > 0 {
		cp := l[len(l)-1]
		n.freePayloads[len(data)] = l[:len(l)-1]
		n.freePayloadCount--
		copy(cp, data)
		return cp
	}
	return append([]float64(nil), data...)
}

// freePayload keeps a payload this rank has finished copying out of.
func (n *Node) freePayload(buf []float64) {
	if len(buf) == 0 || n.freePayloadCount >= maxFreePayloads {
		return
	}
	if n.freePayloads == nil {
		n.freePayloads = map[int][][]float64{}
	}
	n.freePayloads[len(buf)] = append(n.freePayloads[len(buf)], buf)
	n.freePayloadCount++
}

// consume finishes the receipt of a matched message: runs a pending
// rendezvous, advances the clock to the arrival time and charges the
// receive-side protocol copies. The caller still holds the receiver's
// share of m (take or takeInto releases it).
func (n *Node) consume(m *message) {
	if m.rendezv && !m.xferDone {
		// Transfer has not started: run the rendezvous now. Under the
		// parallel scheduler the sender may be concurrently entering
		// Wait, so the completion flag and the sender's block state are
		// accessed under the scheduler lock (Wait takes the same lock).
		c := n.net
		link := c.model.link(m.sender.Rank, n.Rank)
		start := max(m.posted, n.clock) + link.LatencyUS*us
		c.lockPar()
		m.arrive = m.sender.reserveTransfer(n.Rank, m.size, start, link)
		m.ready = m.arrive - link.LatencyUS*us
		m.xferDone = true
		// Unblock the sender if it is parked in Wait on this message.
		if m.sender.blockKind == blockSendRendezvous && m.sender.waitSend == m {
			m.sender.blockKind = blockNone
			if c.par != nil {
				c.pushElect(m.sender)
			}
			// Serial: the election scan sees the cleared blockKind.
		}
		c.unlockPar()
	}
	n.clock = max(n.clock, m.arrive)
	if m.sender != nil {
		link := n.net.model.link(m.sender.Rank, n.Rank)
		// A kernel-bypass rendezvous (ZeroCopy) lands by DMA in the
		// receive buffer; only eager/bounce-buffered messages pay the
		// protocol copy.
		if link.CPUCopyMBs > 0 && !(m.rendezv && link.ZeroCopy) {
			o := float64(m.size) / (link.CPUCopyMBs * mb)
			n.clock += o
			n.cpu += o
		}
	}
	n.yield()
}

// takeMatch removes and returns the earliest matching message, or nil.
func (n *Node) takeMatch(want msgKey) *message {
	if want.src != AnySource && want.tag != AnyTag {
		if q := n.inbox[want]; q != nil {
			return n.popQueue(want, q)
		}
		return nil
	}
	// Wildcard: scan the pending queues, earliest posted first for
	// fairness.
	var best *msgQueue
	var bestKey msgKey
	for k, q := range n.inbox {
		if !matches(want, k) {
			continue
		}
		if best == nil || q.peek().posted < best.peek().posted ||
			(q.peek().posted == best.peek().posted && lessKey(k, bestKey)) {
			best = q
			bestKey = k
		}
	}
	if best == nil {
		return nil
	}
	return n.popQueue(bestKey, best)
}

// popQueue pops the head of inbox queue k; a queue that drains leaves
// the inbox for the free list (the inbox holds pending messages only).
func (n *Node) popQueue(k msgKey, q *msgQueue) *message {
	m := q.pop()
	if q.empty() {
		delete(n.inbox, k)
		n.freeQueues = append(n.freeQueues, q)
	}
	return m
}

// lessKey orders message keys deterministically (tie-break for
// wildcard receives on equal post times, independent of map order).
func lessKey(a, b msgKey) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	return a.tag < b.tag
}
