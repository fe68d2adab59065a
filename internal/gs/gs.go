// Package gs implements the Tufo-Fischer gather-scatter communication
// interface (Tufo 1998) the paper's Nektar-ALE code uses for all its
// inter-processor communication: values attached to globally shared
// degrees of freedom are combined (summed, min'd or max'd) across the
// processors that share them, using
//
//   - pairwise exchanges for values shared by only a few processors
//     (partition-interface dofs typically touch 2), and
//   - a tree-based reduction (a packed Allreduce) for values shared by
//     many processors (corner dofs at partition cross points).
//
// As the paper notes, MPI_Alltoall is never used in this approach.
package gs

import (
	"sort"

	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// Op mirrors the mpi reduction operators.
type Op = mpi.Op

// Re-exported reduction operators.
const (
	Sum = mpi.Sum
	Min = mpi.Min
	Max = mpi.Max
)

// GS is a gather-scatter handle bound to one rank's list of global
// dof ids.
type GS struct {
	comm *mpi.Comm

	// pairwise plan: per neighbor rank, the local indices (sorted by
	// global id) of dofs shared with that neighbor.
	nbr     []int   // neighbor ranks, ascending
	nbrIdx  [][]int // local indices shared with each neighbor
	treeIdx []int   // local indices handled by the tree stage
	treePos []int   // position of each tree dof in the packed tree vector
	treeLen int

	// Mult[i] is the number of ranks sharing local dof i (including
	// this one) — used for globally consistent inner products.
	Mult []float64

	// PairwiseLimit is the maximum sharer count routed through the
	// pairwise strategy (the rest go to the tree). The paper's GS
	// library uses "pairwise exchange ... for values shared by only a
	// few processors".
	PairwiseLimit int

	// Work space kept across calls so CombineFields and DotFields
	// allocate nothing once it has grown to the widest call: the
	// pairwise pack buffer (reused for every neighbour's send, then for
	// the receives), the pending sends and the packed tree vector.
	buf  []float64
	reqs []*simnet.Request
	tree []float64
}

// grown returns buf cut to n elements, reallocating only when it is too
// small.
func grown(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// New builds a gather-scatter plan for the given global ids (one per
// local dof; ids may repeat across ranks but not within a rank). All
// ranks must call New collectively.
func New(comm *mpi.Comm, ids []int, pairwiseLimit int) *GS {
	if pairwiseLimit < 2 {
		pairwiseLimit = 2
	}
	g := &GS{comm: comm, PairwiseLimit: pairwiseLimit}
	p := comm.Size()
	g.Mult = make([]float64, len(ids))
	for i := range g.Mult {
		g.Mult[i] = 1
	}
	if p == 1 {
		return g
	}

	// Exchange id lists: gather to 0, broadcast the concatenation.
	// (Setup cost, not benchmarked.)
	enc := make([]float64, len(ids))
	for i, id := range ids {
		enc[i] = float64(id)
	}
	all := comm.Gather(0, enc)
	var flatLens []float64
	var flat []float64
	if comm.Rank() == 0 {
		for _, l := range all {
			flatLens = append(flatLens, float64(len(l)))
			flat = append(flat, l...)
		}
	}
	flatLens = comm.Bcast(0, flatLens)
	flat = comm.Bcast(0, flat)

	// sharers[id] = sorted ranks holding id.
	sharers := map[int][]int{}
	off := 0
	for r := 0; r < p; r++ {
		l := int(flatLens[r])
		for _, v := range flat[off : off+l] {
			id := int(v)
			sharers[id] = append(sharers[id], r)
		}
		off += l
	}

	me := comm.Rank()
	local := map[int]int{} // global id -> local index
	for i, id := range ids {
		local[id] = i
	}

	// Build the pairwise and tree plans.
	nbrSet := map[int][]int{} // neighbor rank -> local indices
	var treeIDs []int
	for i, id := range ids {
		sh := sharers[id]
		g.Mult[i] = float64(len(sh))
		if len(sh) <= 1 {
			continue
		}
		if len(sh) <= g.PairwiseLimit {
			for _, r := range sh {
				if r != me {
					nbrSet[r] = append(nbrSet[r], i)
				}
			}
		} else {
			treeIDs = append(treeIDs, id)
		}
	}
	for r := range nbrSet {
		g.nbr = append(g.nbr, r)
	}
	sort.Ints(g.nbr)
	g.nbrIdx = make([][]int, len(g.nbr))
	for ni, r := range g.nbr {
		idx := nbrSet[r]
		// Sort by global id so both sides pack identically.
		sort.Slice(idx, func(a, b int) bool { return ids[idx[a]] < ids[idx[b]] })
		g.nbrIdx[ni] = idx
	}

	// Tree stage: a globally agreed ordering of all many-shared ids.
	treeAll := map[int]bool{}
	for id, sh := range sharers {
		if len(sh) > g.PairwiseLimit {
			treeAll[id] = true
		}
	}
	var treeOrder []int
	for id := range treeAll {
		treeOrder = append(treeOrder, id)
	}
	sort.Ints(treeOrder)
	g.treeLen = len(treeOrder)
	pos := map[int]int{}
	for i, id := range treeOrder {
		pos[id] = i
	}
	for _, id := range treeIDs {
		g.treeIdx = append(g.treeIdx, local[id])
		g.treePos = append(g.treePos, pos[id])
	}
	return g
}

// Combine performs the gather-scatter: after the call, vals[i] holds
// op over all ranks' values at the same global id.
func (g *GS) Combine(vals []float64, op Op) {
	g.CombineFields([][]float64{vals}, op)
}

// CombineFields is Combine over k fields at once, each a local vector
// over this handle's dofs: every neighbour gets one message carrying
// the k fields' shared values back to back, and the tree stage is one
// packed reduction of k×treeLen values. Every field ends bit-identical
// to a Combine of its own: its values are folded in the same neighbour
// order, and the tree reduction is element-wise. All ranks must pass
// the same k.
func (g *GS) CombineFields(fields [][]float64, op Op) {
	k := len(fields)
	if g.comm.Size() == 1 || k == 0 {
		return
	}
	// Pairwise stage: send this rank's *original* contribution to each
	// sharer (nonblocking, so multi-neighbor cycles cannot deadlock),
	// then fold in each neighbor's original contribution.
	const tag = 1 << 22
	g.reqs = g.reqs[:0]
	for ni, r := range g.nbr {
		idx := g.nbrIdx[ni]
		n := len(idx)
		g.buf = grown(g.buf, k*n)
		for f, vals := range fields {
			seg := g.buf[f*n : (f+1)*n]
			for j, li := range idx {
				seg[j] = vals[li]
			}
		}
		g.reqs = append(g.reqs, g.comm.Isend(r, tag, g.buf))
	}
	for ni, r := range g.nbr {
		idx := g.nbrIdx[ni]
		n := len(idx)
		g.buf = grown(g.buf, k*n)
		got := g.buf[:g.comm.RecvInto(r, tag, g.buf)]
		for f, vals := range fields {
			fold(op, vals, idx, got[f*n:(f+1)*n])
		}
	}
	for _, rq := range g.reqs {
		g.comm.Wait(rq)
	}
	// Tree stage: packed reduction over the many-shared ids, field f's
	// values at offset f×treeLen.
	if g.treeLen > 0 {
		n := g.treeLen
		g.tree = grown(g.tree, k*n)
		packed := g.tree
		clear(packed)
		if op == Min || op == Max {
			inf := 1e308
			if op == Max {
				inf = -1e308
			}
			for i := range packed {
				packed[i] = inf
			}
		}
		for f, vals := range fields {
			for j, li := range g.treeIdx {
				packed[f*n+g.treePos[j]] = vals[li]
			}
		}
		g.comm.AllreduceInto(packed, packed, op)
		for f, vals := range fields {
			for j, li := range g.treeIdx {
				vals[li] = packed[f*n+g.treePos[j]]
			}
		}
	}
}

// fold combines a neighbour's values got, one per index of idx, into
// vals.
func fold(op Op, vals []float64, idx []int, got []float64) {
	switch op {
	case Sum:
		for j, li := range idx {
			vals[li] += got[j]
		}
	case Min:
		for j, li := range idx {
			if got[j] < vals[li] {
				vals[li] = got[j]
			}
		}
	case Max:
		for j, li := range idx {
			if got[j] > vals[li] {
				vals[li] = got[j]
			}
		}
	}
}

// MeanPairwiseLen returns the mean number of dofs exchanged with each
// pairwise neighbor (0 when there are none) — the per-neighbor
// interface size, used by the paper-scale extrapolation to size its
// phantom messages.
func (g *GS) MeanPairwiseLen() float64 {
	if len(g.nbrIdx) == 0 {
		return 0
	}
	total := 0
	for _, idx := range g.nbrIdx {
		total += len(idx)
	}
	return float64(total) / float64(len(g.nbrIdx))
}

// Dot computes the globally consistent inner product of two local
// vectors whose entries live on shared dofs: each global dof is
// counted exactly once via the multiplicity weights.
func (g *GS) Dot(a, b []float64) float64 {
	var d [1]float64
	g.DotFields(d[:], [][]float64{a}, [][]float64{b})
	return d[0]
}

// DotFields is Dot over k field pairs at once: dst[f] = Dot(a[f],
// b[f]), with the k local sums reduced in one Allreduce of a k-vector.
// Each dst[f] is bit-identical to its own Dot, because the reduction is
// element-wise. All ranks must pass the same k.
func (g *GS) DotFields(dst []float64, a, b [][]float64) {
	for f, af := range a {
		bf := b[f]
		var local float64
		for i := range af {
			local += af[i] * bf[i] / g.Mult[i]
		}
		dst[f] = local
	}
	if g.comm.Size() > 1 {
		g.comm.AllreduceInto(dst[:len(a)], dst[:len(a)], Sum)
	}
}
