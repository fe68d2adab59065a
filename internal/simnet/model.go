// Package simnet is a deterministic discrete-event simulator of a
// message-passing cluster. Each rank runs as a goroutine with a
// virtual clock; a cooperative scheduler always resumes the runnable
// rank with the smallest clock, so resource reservations (NIC egress,
// NIC ingress, switch backplane) happen in global time order and every
// run is reproducible.
//
// The paper's communication hardware — Fast Ethernet with MPICH/LAM,
// Myrinet with MPICH-GM, the IBM SP switch, Fujitsu AP-Net, the Cray
// T3E torus and the Hitachi SR8000 crossbar — is represented by
// calibrated LogGP-style models (latency, per-link bandwidth, sender
// overhead, optional shared backplane and half-duplex links). The
// models are calibrated in package machine from the paper's Figure 7.
package simnet

import "fmt"

// LinkModel is a LogGP-style point-to-point channel model.
type LinkModel struct {
	// LatencyUS is the one-way zero-byte latency in microseconds
	// (wire + protocol stack).
	LatencyUS float64
	// BandwidthMBs is the sustainable one-way per-link bandwidth in
	// MB/s (1 MB = 1e6 bytes, as in the paper's figures).
	BandwidthMBs float64
	// OverheadUS is the sender CPU time consumed per message
	// (protocol work); the paper's Ethernet TCP stacks have large
	// overheads, Myrinet GM and the T3E tiny ones.
	OverheadUS float64
	// CPUCopyMBs is the per-byte CPU cost of moving a message through
	// the protocol stack, expressed as an effective copy bandwidth in
	// MB/s (0 = free, e.g. DMA-driven Myrinet GM). TCP charges both
	// sender and receiver; this is why the paper's Ethernet runs show
	// CPU time growing with processor count.
	CPUCopyMBs float64
	// EagerLimit is the message size in bytes above which the
	// transfer uses a rendezvous handshake costing one extra one-way
	// latency. Zero means everything is eager.
	EagerLimit int
	// HalfDuplex makes a node's send and receive share the same wire
	// (early shared-media Ethernet).
	HalfDuplex bool
	// ZeroCopy marks a kernel-bypass transport whose rendezvous
	// transfers move the payload by DMA directly between user buffers
	// (RDMA-style), so neither side pays the CPUCopyMBs charge on
	// rendezvous messages. Eager messages still pay it: they land in a
	// preposted bounce buffer that must be copied out. Tanaka's
	// kernel-bypass GbE driver (physics/0407152) is the calibrated
	// example.
	ZeroCopy bool
}

// Model describes a whole cluster network.
type Model struct {
	Name string
	// Inter is the link model between SMP nodes; Intra the model
	// inside a node (shared memory). If RanksPerNode <= 1 every pair
	// uses Inter.
	Inter LinkModel
	Intra LinkModel
	// RanksPerNode maps MPI ranks onto SMP nodes round-robin blocks:
	// node = rank / RanksPerNode.
	RanksPerNode int
	// BackplaneMBs caps the aggregate inter-node traffic (an
	// oversubscribed Ethernet switch); 0 = full crossbar.
	BackplaneMBs float64
	// Scheduler selects the simulator's execution strategy. The zero
	// value (SchedAuto) runs the serial reference scheduler. Serial and
	// the host-parallel conservative scheduler (SchedParallel) produce
	// bit-identical virtual-time results. The NEKTAR_SIMNET_SCHED
	// environment variable overrides it.
	Scheduler Scheduler
}

// Scheduler selects how simnet executes the rank goroutines.
type Scheduler int

const (
	// SchedAuto (the default) lets simnet choose; it chooses the serial
	// reference scheduler, the fastest on every measured cell (see
	// resolveScheduler).
	SchedAuto Scheduler = iota
	// SchedSerial names the one-rank-at-a-time reference scheduler.
	SchedSerial
	// SchedParallel forces the host-parallel conservative scheduler.
	SchedParallel
)

// String names the scheduler mode for error messages and reports.
func (s Scheduler) String() string {
	switch s {
	case SchedAuto:
		return "auto"
	case SchedSerial:
		return "serial"
	case SchedParallel:
		return "parallel"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// nodeOf returns the SMP node that hosts a rank.
func (m *Model) nodeOf(rank int) int {
	if m.RanksPerNode <= 1 {
		return rank
	}
	return rank / m.RanksPerNode
}

// sharedNode reports whether two ranks live on the same SMP node under
// a placement that can co-locate ranks at all.
func (m *Model) sharedNode(from, to int) bool {
	if m.RanksPerNode <= 1 {
		return false
	}
	return m.nodeOf(from) == m.nodeOf(to)
}

// link returns the channel model governing communication between two
// ranks.
func (m *Model) link(from, to int) *LinkModel {
	if m.sharedNode(from, to) {
		return &m.Intra
	}
	return &m.Inter
}

const (
	us = 1e-6 // seconds per microsecond
	mb = 1e6  // bytes per MB
)

// sendTime returns the wire time of a message of size bytes.
func (l *LinkModel) xfer(bytes int) float64 {
	if l.BandwidthMBs <= 0 {
		return 0
	}
	return float64(bytes) / (l.BandwidthMBs * mb)
}
