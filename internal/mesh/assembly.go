package mesh

import (
	"cmp"
	"slices"

	"nektar/internal/basis"
	"nektar/internal/jacobi"
	"nektar/internal/lapack"
)

// Assembly is the C0 global numbering of a mesh: the local-to-global
// map with orientation signs, with Dirichlet degrees of freedom
// numbered last and the remaining unknowns reordered by reverse
// Cuthill-McKee to keep the assembled global matrix banded — the
// structure the paper's direct solvers exploit.
type Assembly struct {
	Mesh *Mesh

	NGlobal int // total global dofs
	NSolve  int // unknown dofs, numbered [0, NSolve)

	// L2G[e][m] is the global dof of local mode m of element e;
	// Sign[e][m] is the orientation factor (+1/-1).
	L2G  [][]int
	Sign [][]float64

	// VertDof[v] is the global dof of mesh vertex v; EdgeDof[ed][k]
	// the dof of the k-th mode on global edge ed (nil slices when the
	// order has no edge modes).
	VertDof []int
	EdgeDof [][]int
	FaceDof [][]int
}

// NewAssembly numbers the global degrees of freedom. dirichletTag
// reports whether a boundary tag carries Dirichlet (essential)
// conditions; boundary entities with such tags have their dofs placed
// after the unknowns. A nil dirichletTag means all-natural
// (pure-Neumann) boundaries.
func NewAssembly(m *Mesh, dirichletTag func(tag string) bool) *Assembly {
	a, rawL2G, dir := rawNumbering(m, dirichletTag)

	// Reorder: unknowns first in reverse Cuthill-McKee order over the
	// dof-connectivity graph, Dirichlet dofs after.
	perm := a.reorder(rawL2G, dir)

	a.L2G = make([][]int, len(m.Elems))
	for ei, l2g := range rawL2G {
		nl := make([]int, len(l2g))
		for mi, g := range l2g {
			nl[mi] = perm[g]
		}
		a.L2G[ei] = nl
	}
	for v := range a.VertDof {
		a.VertDof[v] = perm[a.VertDof[v]]
	}
	for e := range a.EdgeDof {
		for k := range a.EdgeDof[e] {
			a.EdgeDof[e][k] = perm[a.EdgeDof[e][k]]
		}
	}
	for f := range a.FaceDof {
		for k := range a.FaceDof[f] {
			a.FaceDof[f][k] = perm[a.FaceDof[f][k]]
		}
	}
	return a
}

// rawNumbering numbers the dofs entity by entity (vertices, edges,
// faces, then element interiors), before any reordering: it returns
// the assembly with its raw entity numbering and signs, each element's
// raw local-to-global map, and which raw dofs are Dirichlet.
func rawNumbering(m *Mesh, dirichletTag func(tag string) bool) (*Assembly, [][]int, []bool) {
	a := &Assembly{Mesh: m}
	p := m.Order
	nEdgeModes := p - 1
	nFaceModes := (p - 1) * (p - 1) // hex faces only

	// Raw (pre-reordering) dof ids.
	nv := len(m.Verts)
	a.VertDof = make([]int, nv)
	for v := range a.VertDof {
		a.VertDof[v] = v
	}
	next := nv
	a.EdgeDof = make([][]int, m.NumEdges)
	for e := range a.EdgeDof {
		a.EdgeDof[e] = make([]int, nEdgeModes)
		for k := 0; k < nEdgeModes; k++ {
			a.EdgeDof[e][k] = next
			next++
		}
	}
	a.FaceDof = make([][]int, m.NumFaces)
	if m.Dim == 3 {
		for f := range a.FaceDof {
			a.FaceDof[f] = make([]int, nFaceModes)
			for k := 0; k < nFaceModes; k++ {
				a.FaceDof[f][k] = next
				next++
			}
		}
	}
	interiorBase := next
	for _, el := range m.Elems {
		next += el.Ref.NModes - el.Ref.NBnd
	}
	a.NGlobal = next

	// Build raw local-to-global.
	rawL2G := make([][]int, len(m.Elems))
	a.Sign = make([][]float64, len(m.Elems))
	intNext := interiorBase
	for ei, el := range m.Elems {
		l2g := make([]int, el.Ref.NModes)
		sign := make([]float64, el.Ref.NModes)
		for mi, mo := range el.Ref.Modes {
			sign[mi] = 1
			switch mo.Type {
			case basis.VertexMode:
				l2g[mi] = a.VertDof[el.Vert[mo.Entity]]
			case basis.EdgeMode:
				l2g[mi] = a.EdgeDof[el.Edge[mo.Entity]][mo.Index]
				// Edge mode k has trace A_{k+2}; reversing the edge
				// parameter flips the sign of odd k modes.
				if el.EdgeRev[mo.Entity] && mo.Index%2 == 1 {
					sign[mi] = -1
				}
			case basis.FaceMode:
				or := el.FaceOrient[mo.Entity]
				k1, k2 := mo.Index, mo.Index2
				s := 1.0
				if or.Rev1 && k1%2 == 1 {
					s = -s
				}
				if or.Rev2 && k2%2 == 1 {
					s = -s
				}
				if or.Swap {
					k1, k2 = k2, k1
				}
				l2g[mi] = a.FaceDof[el.Face[mo.Entity]][k1*(p-1)+k2]
				sign[mi] = s
			case basis.InteriorMode:
				l2g[mi] = intNext
				intNext++
			}
		}
		rawL2G[ei] = l2g
		a.Sign[ei] = sign
	}

	// Mark Dirichlet dofs.
	dir := make([]bool, a.NGlobal)
	if dirichletTag != nil {
		markEdge := func(el *Element, le int) {
			ev := EdgeVertsOf(el.Ref.Shape)[le]
			dir[a.VertDof[el.Vert[ev[0]]]] = true
			dir[a.VertDof[el.Vert[ev[1]]]] = true
			for _, d := range a.EdgeDof[el.Edge[le]] {
				dir[d] = true
			}
		}
		for _, be := range m.BndEdges {
			if !dirichletTag(be.Tag) {
				continue
			}
			markEdge(m.Elems[be.Elem], be.LocalEdge)
		}
		for _, bf := range m.BndFaces {
			if !dirichletTag(bf.Tag) {
				continue
			}
			el := m.Elems[bf.Elem]
			// A Dirichlet face pins its face modes, its four edges and
			// its four vertices.
			for _, d := range a.FaceDof[el.Face[bf.LocalFace]] {
				dir[d] = true
			}
			fv := basis.HexFaceVerts[bf.LocalFace]
			for _, lv := range fv {
				dir[a.VertDof[el.Vert[lv]]] = true
			}
			for le, ev := range basis.HexEdgeVerts {
				if onFace(fv, ev) {
					for _, d := range a.EdgeDof[el.Edge[le]] {
						dir[d] = true
					}
				}
			}
		}
	}

	return a, rawL2G, dir
}

// onFace reports whether both endpoints of a local hex edge belong to
// the 4-vertex local face fv.
func onFace(fv [4]int, ev [2]int) bool {
	in := func(v int) bool {
		for _, f := range fv {
			if f == v {
				return true
			}
		}
		return false
	}
	return in(ev[0]) && in(ev[1])
}

// reorder computes the final permutation raw-dof -> new-dof: unknowns
// get [0, NSolve) in reverse Cuthill-McKee order, Dirichlet dofs get
// [NSolve, NGlobal).
//
// It runs in O(nnz) of the unknown-dof graph plus the per-visit sorts:
// a stamp array yields each dof's distinct neighbours, one transpose
// of that symmetric list puts every row in ascending order, and a BFS
// visit that queues two or more neighbours orders its row by degree
// with slices.SortFunc. That is the same pdqsort on the same ascending
// input as the sort.Slice this numbering was first written with,
// comparing by degree alone, so ties between equal degrees break
// exactly as they always have (DESIGN.md §5.1; TestReorderMatchesOracle
// keeps the original as the oracle).
func (a *Assembly) reorder(rawL2G [][]int, dir []bool) []int {
	n := a.NGlobal
	// elemOf[at[g]:at[g+1]] lists the elements holding unknown dof g;
	// bound caps the neighbour count, an element's u unknowns listing at
	// most u of them for each.
	at := make([]int, n+1)
	bound := 0
	for _, l2g := range rawL2G {
		u := 0
		for _, g := range l2g {
			if !dir[g] {
				at[g+1]++
				u++
			}
		}
		bound += u * u
	}
	for g := 0; g < n; g++ {
		at[g+1] += at[g]
	}
	elemOf := make([]int, at[n])
	fill := append([]int(nil), at[:n]...)
	for e, l2g := range rawL2G {
		for _, g := range l2g {
			if !dir[g] {
				elemOf[fill[g]] = e
				fill[g]++
			}
		}
	}

	// Distinct unknown neighbours of each unknown dof: row i is
	// nbr[row[i]:row[i+1]], stamp[j] == i marking j as already listed.
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	row := make([]int, n+1)
	nbr := make([]int, 0, bound)
	for i := 0; i < n; i++ {
		row[i] = len(nbr)
		if dir[i] {
			continue
		}
		stamp[i] = i
		for _, e := range elemOf[at[i]:at[i+1]] {
			for _, j := range rawL2G[e] {
				if !dir[j] && stamp[j] != i {
					stamp[j] = i
					nbr = append(nbr, j)
				}
			}
		}
	}
	row[n] = len(nbr)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = row[i+1] - row[i]
	}
	// The graph is symmetric, so scattering i into the rows of its
	// neighbours, i ascending, rebuilds every row in ascending order.
	adj := make([]int, len(nbr))
	copy(fill, row[:n])
	for i := 0; i < n; i++ {
		for _, j := range nbr[row[i]:row[i+1]] {
			adj[fill[j]] = i
			fill[j]++
		}
	}

	byDeg := func(x, y int) int { return cmp.Compare(deg[x], deg[y]) }
	visited := make([]bool, n)
	// order doubles as the BFS queue: a dof is appended when it is
	// reached and visited when head passes it.
	order := make([]int, 0, n)
	for {
		// Pick an unvisited unknown of minimum degree as BFS root.
		root, best := -1, 1<<62
		for i := 0; i < n; i++ {
			if !dir[i] && !visited[i] && deg[i] < best {
				root, best = i, deg[i]
			}
		}
		if root < 0 {
			break
		}
		visited[root] = true
		order = append(order, root)
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			nbrs := adj[row[v]:row[v+1]]
			// The sort only decides the order in which unvisited
			// neighbours are queued: with fewer than two, it decides
			// nothing. Most visits are such, since the first dof of an
			// element to be visited reaches all the others.
			fresh := 0
			for _, w := range nbrs {
				if !visited[w] {
					fresh++
				}
			}
			if fresh > 1 {
				slices.SortFunc(nbrs, byDeg)
			}
			for _, w := range nbrs {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
				}
			}
		}
	}
	a.NSolve = len(order)

	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	// Reverse Cuthill-McKee: reverse the BFS ordering.
	for i, raw := range order {
		perm[raw] = a.NSolve - 1 - i
	}
	nextDir := a.NSolve
	for i := 0; i < n; i++ {
		if perm[i] == -1 {
			perm[i] = nextDir
			nextDir++
		}
	}
	return perm
}

// Gather accumulates element-local coefficient arrays into a global
// vector: global[g] += sign * local[m] (the transpose of Scatter).
// The global slice must have length NGlobal.
func (a *Assembly) Gather(elem int, local, global []float64) {
	l2g, sign := a.L2G[elem], a.Sign[elem]
	for m, g := range l2g {
		global[g] += sign[m] * local[m]
	}
}

// Scatter extracts element-local coefficients from a global vector:
// local[m] = sign * global[g].
func (a *Assembly) Scatter(elem int, global, local []float64) {
	l2g, sign := a.L2G[elem], a.Sign[elem]
	for m, g := range l2g {
		local[m] = sign[m] * global[g]
	}
}

// Bandwidth returns the half-bandwidth of the assembled global matrix
// restricted to the unknown dofs: max |gi - gj| over element dof
// pairs with both unknowns.
func (a *Assembly) Bandwidth() int {
	var kd int
	for _, l2g := range a.L2G {
		for _, gi := range l2g {
			if gi >= a.NSolve {
				continue
			}
			for _, gj := range l2g {
				if gj >= a.NSolve {
					continue
				}
				if d := gi - gj; d > kd {
					kd = d
				}
			}
		}
	}
	return kd
}

// AssembleBanded assembles per-element matrices (given by the callback
// elemMat, row-major NModes^2) into the global banded system over the
// unknown dofs, returning the band matrix and the coupling columns to
// Dirichlet dofs as a sparse list used to form right-hand sides.
func (a *Assembly) AssembleBanded(elemMat func(e int) []float64) (*lapack.BandStorage, []DirCoupling) {
	kd := a.Bandwidth()
	band := lapack.NewBandStorage(a.NSolve, kd)
	var coup []DirCoupling
	for ei := range a.Mesh.Elems {
		mat := elemMat(ei)
		l2g, sign := a.L2G[ei], a.Sign[ei]
		n := len(l2g)
		for mi := 0; mi < n; mi++ {
			gi := l2g[mi]
			if gi >= a.NSolve {
				continue
			}
			for mj := 0; mj < n; mj++ {
				gj := l2g[mj]
				v := sign[mi] * sign[mj] * mat[mi*n+mj]
				if v == 0 {
					continue
				}
				if gj >= a.NSolve {
					coup = append(coup, DirCoupling{Row: gi, Dir: gj, Val: v})
				} else if gj <= gi {
					band.Add(gi, gj, v)
				}
			}
		}
	}
	return band, coup
}

// DirCoupling is one entry coupling an unknown row to a Dirichlet dof:
// the assembled RHS gets rhs[Row] -= Val * dirichletValue[Dir].
type DirCoupling struct {
	Row, Dir int
	Val      float64
}

// ProjectEdgeTrace computes the Dirichlet dof values for boundary edge
// be from a boundary function g(x, y): the two vertex values plus the
// L2 projection of the residual onto the edge's interior modes.
// Values are written into global (length NGlobal) at the edge's dofs.
func (a *Assembly) ProjectEdgeTrace(be BndEdge, g func(x, y float64) float64, global []float64) {
	m := a.Mesh
	el := m.Elems[be.Elem]
	ev := EdgeVertsOf(el.Ref.Shape)[be.LocalEdge]
	va := m.Verts[el.Vert[ev[0]]]
	vb := m.Verts[el.Vert[ev[1]]]
	ga := g(va[0], va[1])
	gb := g(vb[0], vb[1])
	global[a.VertDof[el.Vert[ev[0]]]] = ga
	global[a.VertDof[el.Vert[ev[1]]]] = gb

	p := m.Order
	if p < 2 {
		return
	}
	// 1D projection along the edge: subtract the linear (vertex) part,
	// then project onto A_2..A_p with the 1D mass matrix. The edge
	// parameter s runs from the *global* edge start (smaller vertex
	// id) so the stored dof values are orientation-independent.
	sa, sb := va, vb
	if el.EdgeRev[be.LocalEdge] {
		sa, sb = sb, sa
		ga, gb = gb, ga
	}
	q := p + 2
	rule := jacobi.NewRule(jacobi.Lobatto, q, 0, 0)
	nint := p - 1
	mass := make([]float64, nint*nint)
	rhs := make([]float64, nint)
	for qi, s := range rule.Points {
		x := 0.5*(1-s)*sa[0] + 0.5*(1+s)*sb[0]
		y := 0.5*(1-s)*sa[1] + 0.5*(1+s)*sb[1]
		resid := g(x, y) - 0.5*(1-s)*ga - 0.5*(1+s)*gb
		w := rule.Weight[qi]
		for i := 0; i < nint; i++ {
			ai := basis.ModifiedA(i+2, s)
			rhs[i] += w * ai * resid
			for j := 0; j < nint; j++ {
				mass[i*nint+j] += w * ai * basis.ModifiedA(j+2, s)
			}
		}
	}
	if err := lapack.SolveDense(nint, mass, rhs); err != nil {
		panic("mesh: edge trace mass singular: " + err.Error())
	}
	for k := 0; k < nint; k++ {
		global[a.EdgeDof[be.Edge][k]] = rhs[k]
	}
}
