package basis

import (
	"fmt"

	"nektar/internal/blas"
	"nektar/internal/jacobi"
)

// Shape enumerates the reference element shapes.
type Shape int

const (
	// Quad is the reference quadrilateral [-1,1]^2.
	Quad Shape = iota
	// Tri is the reference triangle {xi1+xi2 <= 0, xi >= -1}.
	Tri
	// Hex is the reference hexahedron [-1,1]^3.
	Hex
)

func (s Shape) String() string {
	switch s {
	case Quad:
		return "quad"
	case Tri:
		return "tri"
	case Hex:
		return "hex"
	}
	return "unknown"
}

// Dim returns the spatial dimension of the shape.
func (s Shape) Dim() int {
	if s == Hex {
		return 3
	}
	return 2
}

// NumVerts returns the vertex count of the shape.
func (s Shape) NumVerts() int {
	switch s {
	case Quad:
		return 4
	case Tri:
		return 3
	case Hex:
		return 8
	}
	return 0
}

// NumEdges returns the edge count of the shape.
func (s Shape) NumEdges() int {
	switch s {
	case Quad:
		return 4
	case Tri:
		return 3
	case Hex:
		return 12
	}
	return 0
}

// ModeType classifies an expansion mode by the mesh entity it attaches
// to.
type ModeType int

const (
	// VertexMode is one of the linear vertex functions.
	VertexMode ModeType = iota
	// EdgeMode is attached to an edge; its trace on that edge is the
	// 1D interior mode A_{k+2}.
	EdgeMode
	// FaceMode is attached to a hexahedral face.
	FaceMode
	// InteriorMode ("bubble") vanishes on the element boundary.
	InteriorMode
)

func (t ModeType) String() string {
	switch t {
	case VertexMode:
		return "vertex"
	case EdgeMode:
		return "edge"
	case FaceMode:
		return "face"
	case InteriorMode:
		return "interior"
	}
	return "unknown"
}

// Mode describes one expansion mode: its tensor indices, its type, the
// local entity (vertex/edge/face number) it attaches to, and its index
// along that entity (used for edge orientation sign flips).
type Mode struct {
	P, Q, R int
	Type    ModeType
	Entity  int // local vertex/edge/face id; -1 for interior
	Index   int // 0-based index along the entity (edge modes: k with trace A_{k+2})
	Index2  int // second face index (3D faces only)
}

// Ref is a tabulated reference element: basis values and parametric
// derivatives at the quadrature points, quadrature weights including
// any collapsed-coordinate Jacobian factor, and the boundary-first
// mode ordering.
type Ref struct {
	Shape  Shape
	P      int // polynomial order
	NModes int
	NBnd   int // number of boundary (vertex+edge+face) modes, ordered first
	NQuad  int // total quadrature points

	QDim [3]int       // per-direction quadrature counts (1 for unused dims)
	Pts  [3][]float64 // per-direction quadrature points (in local/collapsed coords)

	// B[m*NQuad+q] is mode m evaluated at quadrature point q.
	B []float64
	// D[d][m*NQuad+q] is d phi_m / d xi_d at point q (xi are the
	// *reference* coordinates, not the collapsed ones).
	D [3][]float64
	// W[q] is the quadrature weight at point q such that
	// integral over the reference element of f = sum_q W[q] f[q].
	W []float64

	Modes []Mode

	tensor  *tensorOps  // sum-factorization tables (quads)
	tensor3 *tensorOps3 // sum-factorization tables (hexes)
	tensorT *tensorTri  // sum-factorization tables (triangles)

	// Triangle chain-rule factors at the quadrature points:
	// d/dxi1 = triC1 * d/deta1; d/dxi2 = triC2 * d/deta1 + d/deta2.
	triC1, triC2 []float64
}

// NewRef tabulates a reference element of the given shape and
// polynomial order p (p >= 1). The quadrature order is p+2 points per
// direction, enough to integrate the mass matrix exactly.
func NewRef(shape Shape, p int) *Ref {
	if p < 1 {
		panic(fmt.Sprintf("basis: order must be >= 1, got %d", p))
	}
	var r *Ref
	switch shape {
	case Quad:
		r = newQuad(p)
	case Tri:
		r = newTri(p)
	case Hex:
		r = newHex(p)
	default:
		panic("basis: unknown shape")
	}
	r.initTensor()
	return r
}

// qidx returns the flat quadrature index for tensor coordinates.
func (r *Ref) qidx(i, j, k int) int {
	return (i*r.QDim[1]+j)*r.QDim[2] + k
}

// BackwardTransform evaluates the expansion at the quadrature points:
// phys[q] = sum_m B[m][q] coef[m], via sum-factorization on tensor
// shapes.
func (r *Ref) BackwardTransform(coef, phys []float64) {
	if r.tensor != nil {
		t := r.tensor
		ct := make([]float64, t.p1*t.p1)
		t.gather(coef, ct)
		t.bwd(t.a1, t.a2, ct, phys)
		return
	}
	if r.tensor3 != nil {
		t := r.tensor3
		ct := make([]float64, t.p1*t.p1*t.p1)
		t.gather(coef, ct)
		m1, m2, m3 := t.tables(-1)
		t.bwd(m1, m2, m3, ct, phys)
		return
	}
	if r.tensorT != nil {
		r.tensorT.bwd(coef, r.tensorT.a, false, false, phys)
		return
	}
	blas.Dgemv(blas.Trans, r.NModes, r.NQuad, 1, r.B, r.NQuad, coef, 1, 0, phys, 1)
}

// InnerProduct computes b[m] = integral phi_m * f over the reference
// element, given f at the quadrature points and an extra pointwise
// factor jw (typically the geometric Jacobian times 1; pass nil for
// the reference element itself).
func (r *Ref) InnerProduct(f, jw, out []float64) {
	tmp := make([]float64, r.NQuad)
	for q := 0; q < r.NQuad; q++ {
		v := f[q] * r.W[q]
		if jw != nil {
			v *= jw[q]
		}
		tmp[q] = v
	}
	blas.Dgemv(blas.NoTrans, r.NModes, r.NQuad, 1, r.B, r.NQuad, tmp, 1, 0, out, 1)
}

// Mass assembles the reference-element mass matrix weighted by the
// pointwise Jacobian jw (nil means unit Jacobian): M_mn = integral
// phi_m phi_n jw.
func (r *Ref) Mass(jw []float64) []float64 {
	n, nq := r.NModes, r.NQuad
	// WB[m][q] = W[q]*jw[q]*B[m][q]; M = WB * B^T.
	wb := make([]float64, n*nq)
	for m := 0; m < n; m++ {
		for q := 0; q < nq; q++ {
			v := r.B[m*nq+q] * r.W[q]
			if jw != nil {
				v *= jw[q]
			}
			wb[m*nq+q] = v
		}
	}
	mass := make([]float64, n*n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, nq, 1, wb, nq, r.B, nq, 0, mass, n)
	return mass
}

// sortModes orders boundary modes first (vertices, then edges, then
// faces) followed by interior modes, and records NBnd.
func (r *Ref) sortModes(modes []Mode) {
	bnd := make([]Mode, 0, len(modes))
	interior := make([]Mode, 0, len(modes))
	// Stable three-pass ordering: vertices, edges, faces, interior.
	for _, t := range []ModeType{VertexMode, EdgeMode, FaceMode} {
		for _, m := range modes {
			if m.Type == t {
				bnd = append(bnd, m)
			}
		}
	}
	for _, m := range modes {
		if m.Type == InteriorMode {
			interior = append(interior, m)
		}
	}
	r.Modes = append(bnd, interior...)
	r.NBnd = len(bnd)
}

// tabulate fills B and D given per-mode evaluation callbacks over the
// tensor quadrature grid. evalAt returns (value, dxi1, dxi2, dxi3) of
// mode m at tensor point (i, j, k).
func (r *Ref) tabulate(evalAt func(m Mode, i, j, k int) (v, d1, d2, d3 float64)) {
	nq := r.NQuad
	r.B = make([]float64, r.NModes*nq)
	for d := 0; d < r.Shape.Dim(); d++ {
		r.D[d] = make([]float64, r.NModes*nq)
	}
	for m, mode := range r.Modes {
		for i := 0; i < r.QDim[0]; i++ {
			for j := 0; j < r.QDim[1]; j++ {
				for k := 0; k < r.QDim[2]; k++ {
					q := r.qidx(i, j, k)
					v, d1, d2, d3 := evalAt(mode, i, j, k)
					r.B[m*nq+q] = v
					r.D[0][m*nq+q] = d1
					if r.Shape.Dim() >= 2 {
						r.D[1][m*nq+q] = d2
					}
					if r.Shape.Dim() >= 3 {
						r.D[2][m*nq+q] = d3
					}
				}
			}
		}
	}
}

// lobattoRule is a convenience wrapper for the Legendre-weight
// Gauss-Lobatto rule used in non-collapsed directions.
func lobattoRule(q int) *jacobi.Rule {
	return jacobi.NewRule(jacobi.Lobatto, q, 0, 0)
}
