package solver

import (
	"fmt"
	"sort"

	"nektar/internal/blas"
	"nektar/internal/lapack"
	"nektar/internal/mesh"
)

// Condensed is a statically condensed global Helmholtz solver: the
// interior ("bubble") modes of every element are eliminated with dense
// per-element factorizations, and only the boundary-mode Schur
// complement is assembled into a banded global system. This is the
// spectral/hp production strategy — the boundary/interior block
// structure of the paper's Figure 10 — and what keeps the paper's
// 230,000-dof serial benchmark inside a Pentium's memory.
type Condensed struct {
	A      *mesh.Assembly
	Lambda float64

	nb    int   // number of boundary unknowns
	bidx  []int // assembly dof -> condensed index (-1 when not a boundary unknown)
	bdofs []int // condensed index -> assembly dof

	band *lapack.BandStorage // factored Schur complement
	coup []mesh.DirCoupling  // Schur couplings to Dirichlet dofs

	elems []condElem
}

type condElem struct {
	nb, ni int
	iiChol []float64 // NInt x NInt dense Cholesky factor of Hii
	hib    []float64 // NInt x NBnd block (rows interior, cols boundary)
	g      []float64 // NInt x NBnd, Hii^{-1} Hib
}

// ElemMatrices holds every element's Laplacian L and mass matrix M of
// one mesh: the two lambda-independent halves of the elemental
// Helmholtz operator L + lambda*M. Built once, they serve every
// condensed operator on the mesh, whatever its lambda or assembly;
// they are only read after construction.
type ElemMatrices struct {
	mesh *mesh.Mesh
	l, m [][]float64 // row-major NModes^2 per element
}

// NewElemMatrices computes the elemental Laplacian and mass matrices
// of every element of m.
func NewElemMatrices(m *mesh.Mesh) *ElemMatrices {
	em := &ElemMatrices{mesh: m, l: make([][]float64, len(m.Elems)), m: make([][]float64, len(m.Elems))}
	for ei, el := range m.Elems {
		em.l[ei] = el.Laplacian()
		em.m[ei] = el.Mass()
	}
	return em
}

// helmholtz returns element e's L + lambda*M in a new slice, with the
// arithmetic of mesh.Element.Helmholtz, so the bits are the same.
func (em *ElemMatrices) helmholtz(e int, lambda float64) []float64 {
	h := append([]float64(nil), em.l[e]...)
	if lambda != 0 {
		blas.Daxpy(len(h), lambda, em.m[e], 1, h, 1)
	}
	return h
}

// NewCondensed builds and factors the condensed Helmholtz operator
// L + lambda*M over assembly a, taking the elemental matrices from em,
// which must belong to a's mesh.
func NewCondensed(a *mesh.Assembly, em *ElemMatrices, lambda float64) (*Condensed, error) {
	if em == nil || em.mesh != a.Mesh {
		return nil, fmt.Errorf("solver: elemental matrices of another mesh than the assembly's")
	}
	c := &Condensed{A: a, Lambda: lambda}

	// Identify boundary unknowns: assembly dofs reached by local
	// boundary modes, below the Dirichlet threshold.
	c.bidx = make([]int, a.NGlobal)
	for i := range c.bidx {
		c.bidx[i] = -1
	}
	isBnd := make([]bool, a.NGlobal)
	for ei, el := range a.Mesh.Elems {
		for mi := 0; mi < el.Ref.NBnd; mi++ {
			isBnd[a.L2G[ei][mi]] = true
		}
	}
	var bdofs []int
	for g := 0; g < a.NSolve; g++ {
		if isBnd[g] {
			bdofs = append(bdofs, g)
		}
	}
	// Reverse Cuthill-McKee over the boundary-unknown graph for a
	// small Schur bandwidth.
	bdofs = c.rcmBoundary(bdofs, isBnd)
	c.bdofs = bdofs
	c.nb = len(bdofs)
	for i, g := range bdofs {
		c.bidx[g] = i
	}

	// Per-element condensation and Schur assembly.
	kd := c.schurBandwidth()
	band := lapack.NewBandStorage(c.nb, kd)
	c.elems = make([]condElem, len(a.Mesh.Elems))
	for ei, el := range a.Mesh.Elems {
		h := em.helmholtz(ei, lambda)
		n := el.Ref.NModes
		nbm := el.Ref.NBnd
		nim := n - nbm
		ce := condElem{nb: nbm, ni: nim}
		// Extract blocks (boundary-first local ordering).
		hbb := make([]float64, nbm*nbm)
		for i := 0; i < nbm; i++ {
			copy(hbb[i*nbm:(i+1)*nbm], h[i*n:i*n+nbm])
		}
		if nim > 0 {
			hii := make([]float64, nim*nim)
			hib := make([]float64, nim*nbm)
			for i := 0; i < nim; i++ {
				copy(hii[i*nim:(i+1)*nim], h[(nbm+i)*n+nbm:(nbm+i)*n+n])
				copy(hib[i*nbm:(i+1)*nbm], h[(nbm+i)*n:(nbm+i)*n+nbm])
			}
			if err := lapack.Dpotrf(nim, hii, nim); err != nil {
				return nil, fmt.Errorf("solver: element %d interior block: %w", ei, err)
			}
			g := append([]float64(nil), hib...)
			lapack.Dpotrs(nim, nbm, hii, nim, g, nbm)
			// Schur: hbb -= hib^T g.
			blas.Dgemm(blas.Trans, blas.NoTrans, nbm, nbm, nim, -1, hib, nbm, g, nbm, 1, hbb, nbm)
			ce.iiChol = hii
			ce.hib = hib
			ce.g = g
		}
		c.elems[ei] = ce

		// Assemble the elemental Schur block.
		l2g, sign := a.L2G[ei], a.Sign[ei]
		for mi := 0; mi < nbm; mi++ {
			gi := l2g[mi]
			bi := c.bidx[gi]
			for mj := 0; mj < nbm; mj++ {
				gj := l2g[mj]
				v := sign[mi] * sign[mj] * hbb[mi*nbm+mj]
				if v == 0 {
					continue
				}
				switch {
				case bi >= 0 && c.bidx[gj] >= 0:
					if bj := c.bidx[gj]; bj <= bi {
						band.Add(bi, bj, v)
					}
				case bi >= 0 && gj >= a.NSolve:
					c.coup = append(c.coup, mesh.DirCoupling{Row: bi, Dir: gj, Val: v})
				}
			}
		}
	}
	if err := lapack.Dpbtrf(band); err != nil {
		return nil, fmt.Errorf("solver: Schur factorization: %w", err)
	}
	c.band = band
	return c, nil
}

// rcmBoundary orders the boundary unknowns by reverse Cuthill-McKee
// over the element-induced adjacency restricted to them.
func (c *Condensed) rcmBoundary(bdofs []int, isBnd []bool) []int {
	a := c.A
	pos := map[int]int{}
	for i, g := range bdofs {
		pos[g] = i
	}
	n := len(bdofs)
	adj := make([][]int, n)
	for ei, el := range a.Mesh.Elems {
		nbm := el.Ref.NBnd
		l2g := a.L2G[ei]
		for mi := 0; mi < nbm; mi++ {
			i, ok := pos[l2g[mi]]
			if !ok {
				continue
			}
			for mj := 0; mj < nbm; mj++ {
				if j, ok := pos[l2g[mj]]; ok && j != i {
					adj[i] = append(adj[i], j)
				}
			}
		}
	}
	deg := make([]int, n)
	for i := range adj {
		sort.Ints(adj[i])
		out := adj[i][:0]
		prev := -1
		for _, v := range adj[i] {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		adj[i] = out
		deg[i] = len(out)
	}
	visited := make([]bool, n)
	var order []int
	for {
		root, best := -1, 1<<62
		for i := 0; i < n; i++ {
			if !visited[i] && deg[i] < best {
				root, best = i, deg[i]
			}
		}
		if root < 0 {
			break
		}
		queue := []int{root}
		visited[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			nbrs := append([]int(nil), adj[v]...)
			sort.Slice(nbrs, func(x, y int) bool { return deg[nbrs[x]] < deg[nbrs[y]] })
			for _, w := range nbrs {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	out := make([]int, n)
	for i, v := range order {
		out[n-1-i] = bdofs[v] // reverse
	}
	return out
}

// schurBandwidth computes the half-bandwidth of the assembled Schur
// system under the condensed ordering.
func (c *Condensed) schurBandwidth() int {
	var kd int
	for ei, el := range c.A.Mesh.Elems {
		nbm := el.Ref.NBnd
		l2g := c.A.L2G[ei]
		for mi := 0; mi < nbm; mi++ {
			bi := c.bidx[l2g[mi]]
			if bi < 0 {
				continue
			}
			for mj := 0; mj < nbm; mj++ {
				if bj := c.bidx[l2g[mj]]; bj >= 0 {
					if d := bi - bj; d > kd {
						kd = d
					}
				}
			}
		}
	}
	return kd
}

// Bandwidth returns the Schur half-bandwidth.
func (c *Condensed) Bandwidth() int { return c.band.Kd }

// NumBoundary returns the number of boundary unknowns in the Schur
// system.
func (c *Condensed) NumBoundary() int { return c.nb }

// Solve computes the global solution for a weak right-hand side rhs
// and Dirichlet values dir, exactly like Direct.Solve but through the
// condensed system.
func (c *Condensed) Solve(rhs, dir []float64) []float64 {
	a := c.A
	rb := make([]float64, c.nb)
	for i, g := range c.bdofs {
		rb[i] = rhs[g]
	}
	// Condense the interior RHS: rb -= Hbi Hii^{-1} fi.
	yis := make([][]float64, len(c.elems))
	for ei, el := range a.Mesh.Elems {
		ce := &c.elems[ei]
		if ce.ni == 0 {
			continue
		}
		l2g, sign := a.L2G[ei], a.Sign[ei]
		fi := make([]float64, ce.ni)
		for k := 0; k < ce.ni; k++ {
			mi := ce.nb + k
			fi[k] = sign[mi] * rhs[l2g[mi]]
		}
		yi := append([]float64(nil), fi...)
		lapack.Dpotrs(ce.ni, 1, ce.iiChol, ce.ni, yi, 1)
		yis[ei] = yi
		// rb[b] -= sign_b * (Hib^T yi)[b]
		tmp := make([]float64, ce.nb)
		blas.Dgemv(blas.Trans, ce.ni, ce.nb, 1, ce.hib, ce.nb, yi, 1, 0, tmp, 1)
		for mb := 0; mb < ce.nb; mb++ {
			if bi := c.bidx[l2g[mb]]; bi >= 0 {
				rb[bi] -= sign[mb] * tmp[mb]
			}
		}
		_ = el
	}
	// Dirichlet lift on the Schur system.
	if dir != nil {
		for _, cp := range c.coup {
			rb[cp.Row] -= cp.Val * dir[cp.Dir]
		}
	}
	lapack.Dpbtrs(c.band, rb)

	out := make([]float64, a.NGlobal)
	for i, g := range c.bdofs {
		out[g] = rb[i]
	}
	if dir != nil {
		copy(out[a.NSolve:], dir[a.NSolve:])
	}
	// Interior back-substitution: ui = Hii^{-1} fi - G ub.
	for ei := range a.Mesh.Elems {
		ce := &c.elems[ei]
		if ce.ni == 0 {
			continue
		}
		l2g, sign := a.L2G[ei], a.Sign[ei]
		ub := make([]float64, ce.nb)
		for mb := 0; mb < ce.nb; mb++ {
			ub[mb] = sign[mb] * out[l2g[mb]]
		}
		ui := append([]float64(nil), yis[ei]...)
		blas.Dgemv(blas.NoTrans, ce.ni, ce.nb, -1, ce.g, ce.nb, ub, 1, 1, ui, 1)
		for k := 0; k < ce.ni; k++ {
			mi := ce.nb + k
			out[l2g[mi]] = sign[mi] * ui[k]
		}
	}
	return out
}

// SchurStats computes the boundary-unknown count and Schur
// half-bandwidth of the condensed system for an assembly, without
// building or factoring the operator — cheap enough to interrogate
// paper-scale meshes.
func SchurStats(a *mesh.Assembly) (nb, kd int) {
	c := &Condensed{A: a}
	c.bidx = make([]int, a.NGlobal)
	for i := range c.bidx {
		c.bidx[i] = -1
	}
	isBnd := make([]bool, a.NGlobal)
	for ei, el := range a.Mesh.Elems {
		for mi := 0; mi < el.Ref.NBnd; mi++ {
			isBnd[a.L2G[ei][mi]] = true
		}
	}
	var bdofs []int
	for g := 0; g < a.NSolve; g++ {
		if isBnd[g] {
			bdofs = append(bdofs, g)
		}
	}
	bdofs = c.rcmBoundary(bdofs, isBnd)
	c.bdofs = bdofs
	c.nb = len(bdofs)
	for i, g := range bdofs {
		c.bidx[g] = i
	}
	return c.nb, c.schurBandwidth()
}

// CondensedSolveCounts returns the per-solve operation counts of the
// condensed strategy for a system with nb boundary unknowns of Schur
// half-bandwidth kd and nElems elements of ni interior and nbm
// boundary modes each — used to price paper-scale solves analytically.
func CondensedSolveCounts(nb, kd, nElems, ni, nbm int) blas.Counts {
	c := lapack.SolveCounts(nb, kd)
	// Per element: one dense triangular solve pair (ni^2 madds twice)
	// and two ni x nbm gemv applications.
	per := int64(nElems)
	op := &c.Ops[blas.KernelDgemv]
	op.Calls += 3 * per
	op.Flops += per * int64(2*ni*ni+4*ni*nbm)
	op.Bytes += per * 8 * int64(ni*ni+2*ni*nbm)
	return c
}
