package basis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nektar/internal/lapack"
)

func TestModifiedAVertexValues(t *testing.T) {
	if ModifiedA(0, -1) != 1 || ModifiedA(0, 1) != 0 {
		t.Fatal("A_0 wrong at endpoints")
	}
	if ModifiedA(1, -1) != 0 || ModifiedA(1, 1) != 1 {
		t.Fatal("A_1 wrong at endpoints")
	}
	for p := 2; p <= 8; p++ {
		if ModifiedA(p, -1) != 0 || ModifiedA(p, 1) != 0 {
			t.Fatalf("A_%d should vanish at endpoints", p)
		}
	}
}

func TestModifiedAPartitionOfUnity(t *testing.T) {
	for _, z := range []float64{-1, -0.4, 0, 0.9, 1} {
		if s := ModifiedA(0, z) + ModifiedA(1, z); math.Abs(s-1) > 1e-15 {
			t.Fatalf("A_0+A_1 at %v = %v", z, s)
		}
	}
}

func TestModifiedADerivFiniteDifference(t *testing.T) {
	f := func(pRaw uint8, zRaw int8) bool {
		p := int(pRaw) % 10
		z := float64(zRaw) / 160.0 // in (-0.8, 0.8)
		h := 1e-6
		fd := (ModifiedA(p, z+h) - ModifiedA(p, z-h)) / (2 * h)
		return math.Abs(ModifiedADeriv(p, z)-fd) < 1e-5*(1+math.Abs(fd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestModifiedBDerivFiniteDifference(t *testing.T) {
	f := func(pRaw, qRaw uint8, zRaw int8) bool {
		p := int(pRaw) % 7
		q := int(qRaw) % 7
		z := float64(zRaw) / 160.0
		h := 1e-6
		fd := (ModifiedB(p, q, z+h) - ModifiedB(p, q, z-h)) / (2 * h)
		return math.Abs(ModifiedBDeriv(p, q, z)-fd) < 1e-5*(1+math.Abs(fd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestModifiedBReducesToA(t *testing.T) {
	for q := 0; q <= 5; q++ {
		for _, z := range []float64{-0.7, 0.1, 0.8} {
			if math.Abs(ModifiedB(0, q, z)-ModifiedA(q, z)) > 1e-15 {
				t.Fatalf("B_{0,%d} != A_%d at %v", q, q, z)
			}
		}
	}
}

func modeCounts(r *Ref) map[ModeType]int {
	c := map[ModeType]int{}
	for _, m := range r.Modes {
		c[m.Type]++
	}
	return c
}

func TestQuadModeInventory(t *testing.T) {
	p := 4
	r := NewRef(Quad, p)
	if r.NModes != (p+1)*(p+1) {
		t.Fatalf("NModes = %d, want %d", r.NModes, (p+1)*(p+1))
	}
	c := modeCounts(r)
	if c[VertexMode] != 4 || c[EdgeMode] != 4*(p-1) || c[InteriorMode] != (p-1)*(p-1) {
		t.Fatalf("mode counts: %v", c)
	}
	if r.NBnd != 4+4*(p-1) {
		t.Fatalf("NBnd = %d", r.NBnd)
	}
	// Boundary-first ordering: the paper's Figure 9 ordering.
	for i, m := range r.Modes {
		if i < r.NBnd && m.Type == InteriorMode {
			t.Fatal("interior mode ordered before boundary modes")
		}
		if i >= r.NBnd && m.Type != InteriorMode {
			t.Fatal("boundary mode ordered after interior modes")
		}
	}
}

func TestTriModeInventory(t *testing.T) {
	p := 4
	r := NewRef(Tri, p)
	want := (p + 1) * (p + 2) / 2
	if r.NModes != want {
		t.Fatalf("NModes = %d, want %d", r.NModes, want)
	}
	c := modeCounts(r)
	if c[VertexMode] != 3 || c[EdgeMode] != 3*(p-1) || c[InteriorMode] != (p-1)*(p-2)/2 {
		t.Fatalf("mode counts: %v", c)
	}
}

func TestHexModeInventory(t *testing.T) {
	p := 3
	r := NewRef(Hex, p)
	if r.NModes != (p+1)*(p+1)*(p+1) {
		t.Fatalf("NModes = %d", r.NModes)
	}
	c := modeCounts(r)
	if c[VertexMode] != 8 || c[EdgeMode] != 12*(p-1) ||
		c[FaceMode] != 6*(p-1)*(p-1) || c[InteriorMode] != (p-1)*(p-1)*(p-1) {
		t.Fatalf("mode counts: %v", c)
	}
}

func TestReferenceAreas(t *testing.T) {
	// Sum of quadrature weights = measure of the reference element.
	cases := []struct {
		shape Shape
		want  float64
	}{{Quad, 4}, {Tri, 2}, {Hex, 8}}
	for _, tc := range cases {
		r := NewRef(tc.shape, 4)
		var s float64
		for _, w := range r.W {
			s += w
		}
		if math.Abs(s-tc.want) > 1e-12 {
			t.Fatalf("%v: sum W = %v, want %v", tc.shape, s, tc.want)
		}
	}
}

func TestVertexModesPartitionOfUnity(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri, Hex} {
		r := NewRef(shape, 4)
		coef := make([]float64, r.NModes)
		for i, m := range r.Modes {
			if m.Type == VertexMode {
				coef[i] = 1
			}
		}
		phys := make([]float64, r.NQuad)
		r.BackwardTransform(coef, phys)
		for q, v := range phys {
			if math.Abs(v-1) > 1e-12 {
				t.Fatalf("%v: vertex modes sum to %v at q=%d", shape, v, q)
			}
		}
	}
}

// linearCoef returns the modal coefficients of f = a + b*xi1 + c*xi2
// (+ d*xi3 in 3D): only vertex modes are active, with nodal values.
func linearCoef(r *Ref, a, b, c, d float64) []float64 {
	coef := make([]float64, r.NModes)
	var verts [][3]float64
	switch r.Shape {
	case Quad:
		verts = [][3]float64{{-1, -1, 0}, {1, -1, 0}, {1, 1, 0}, {-1, 1, 0}}
	case Tri:
		verts = [][3]float64{{-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}}
	case Hex:
		verts = [][3]float64{
			{-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
			{-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1},
		}
	}
	for i, m := range r.Modes {
		if m.Type == VertexMode {
			v := verts[m.Entity]
			coef[i] = a + b*v[0] + c*v[1] + d*v[2]
		}
	}
	return coef
}

// refCoords returns the reference coordinates of quadrature point q.
func refCoords(r *Ref, q int) (x1, x2, x3 float64) {
	k := q % r.QDim[2]
	j := (q / r.QDim[2]) % r.QDim[1]
	i := q / (r.QDim[1] * r.QDim[2])
	x1 = r.Pts[0][i]
	x2 = r.Pts[1][j]
	if r.Shape == Tri {
		// Points are stored in collapsed coordinates.
		eta1, eta2 := x1, x2
		x1 = 0.5*(1+eta1)*(1-eta2) - 1
		x2 = eta2
	}
	if r.Shape.Dim() == 3 {
		x3 = r.Pts[2][k]
	}
	return
}

func TestLinearReproduction(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri, Hex} {
		r := NewRef(shape, 5)
		a, b, c, d := 0.7, 1.3, -0.8, 0.5
		if shape != Hex {
			d = 0
		}
		coef := linearCoef(r, a, b, c, d)
		phys := make([]float64, r.NQuad)
		r.BackwardTransform(coef, phys)
		for q := range phys {
			x1, x2, x3 := refCoords(r, q)
			want := a + b*x1 + c*x2 + d*x3
			if math.Abs(phys[q]-want) > 1e-11 {
				t.Fatalf("%v: linear field at q=%d = %v, want %v", shape, q, phys[q], want)
			}
		}
	}
}

func TestLinearDerivatives(t *testing.T) {
	// The parametric derivative tables must differentiate a linear
	// field exactly: d(a + b*xi1 + c*xi2 + d*xi3)/dxi = (b, c, d).
	for _, shape := range []Shape{Quad, Tri, Hex} {
		r := NewRef(shape, 4)
		b, c, d := 1.7, -2.1, 0.9
		if shape != Hex {
			d = 0
		}
		coef := linearCoef(r, 0.3, b, c, d)
		want := []float64{b, c, d}
		for dir := 0; dir < shape.Dim(); dir++ {
			for q := 0; q < r.NQuad; q++ {
				var got float64
				for m := range r.Modes {
					got += r.D[dir][m*r.NQuad+q] * coef[m]
				}
				if math.Abs(got-want[dir]) > 1e-10 {
					t.Fatalf("%v dir=%d q=%d: deriv = %v, want %v", shape, dir, q, got, want[dir])
				}
			}
		}
	}
}

func TestEdgeModesVanishAtVertices(t *testing.T) {
	// Edge and interior modes must vanish at every vertex; this is the
	// C0 decomposition property of the modified basis.
	vertsXi := map[Shape][][2]float64{
		Quad: {{-1, -1}, {1, -1}, {1, 1}, {-1, 1}},
		Tri:  {{-1, -1}, {1, -1}, {-1, 1}},
	}
	for _, shape := range []Shape{Quad, Tri} {
		r := NewRef(shape, 5)
		for mi, m := range r.Modes {
			if m.Type == VertexMode {
				continue
			}
			for vi, v := range vertsXi[shape] {
				val := evalModeAtXi(r, mi, v[0], v[1])
				if math.Abs(val) > 1e-12 {
					t.Fatalf("%v mode %d (%v) at vertex %d = %v", shape, mi, m.Type, vi, val)
				}
			}
		}
	}
}

// evalModeAtXi evaluates mode mi of a 2D reference element at
// reference coordinates (xi1, xi2) directly from the basis
// definitions.
func evalModeAtXi(r *Ref, mi int, xi1, xi2 float64) float64 {
	m := r.Modes[mi]
	switch r.Shape {
	case Quad:
		return ModifiedA(m.P, xi1) * ModifiedA(m.Q, xi2)
	case Tri:
		if m.P == 0 && m.Q == 1 {
			return 0.5 * (1 + xi2)
		}
		eta2 := xi2
		var eta1 float64
		if eta2 == 1 {
			eta1 = -1 // top vertex: collapsed edge; basis value limit
		} else {
			eta1 = 2*(1+xi1)/(1-xi2) - 1
		}
		return ModifiedA(m.P, eta1) * ModifiedB(m.P, m.Q, eta2)
	}
	panic("2D only")
}

func TestInteriorModesVanishOnEdges(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri} {
		r := NewRef(shape, 5)
		// Sample points along each edge in reference coordinates.
		var edgePts [][2]float64
		ts := []float64{-0.9, -0.3, 0.2, 0.8}
		for _, s := range ts {
			if shape == Quad {
				edgePts = append(edgePts, [2]float64{s, -1}, [2]float64{1, s}, [2]float64{s, 1}, [2]float64{-1, s})
			} else {
				edgePts = append(edgePts, [2]float64{s, -1}, [2]float64{-s, s}, [2]float64{-1, s})
			}
		}
		for mi, m := range r.Modes {
			if m.Type != InteriorMode {
				continue
			}
			for _, p := range edgePts {
				if v := evalModeAtXi(r, mi, p[0], p[1]); math.Abs(v) > 1e-12 {
					t.Fatalf("%v interior mode %d at edge point %v = %v", shape, mi, p, v)
				}
			}
		}
	}
}

func TestEdgeTraceIsModifiedA(t *testing.T) {
	// On its own edge, edge mode k must equal A_{k+2} of the edge
	// parameter — this is what makes inter-element C0 assembly work,
	// including between triangles and quadrilaterals.
	r := NewRef(Tri, 5)
	for mi, m := range r.Modes {
		if m.Type != EdgeMode {
			continue
		}
		for _, s := range []float64{-0.8, -0.1, 0.5, 0.9} {
			var xi [2]float64
			switch m.Entity {
			case 0: // bottom: param s = xi1
				xi = [2]float64{s, -1}
			case 1: // hypotenuse v1->v2: param s = xi2, xi1 = -xi2
				xi = [2]float64{-s, s}
			case 2: // left: param s = xi2
				xi = [2]float64{-1, s}
			}
			got := evalModeAtXi(r, mi, xi[0], xi[1])
			want := ModifiedA(m.Index+2, s)
			if math.Abs(got-want) > 1e-10 {
				t.Fatalf("edge %d mode %d at s=%v: %v, want %v", m.Entity, m.Index, s, got, want)
			}
		}
	}
}

func TestForwardBackwardRoundTrip(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri, Hex} {
		r := NewRef(shape, 4)
		rng := rand.New(rand.NewSource(11))
		coef := make([]float64, r.NModes)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		phys := make([]float64, r.NQuad)
		r.BackwardTransform(coef, phys)
		got := make([]float64, r.NModes)
		forwardTransform(r, phys, got)
		for i := range coef {
			if math.Abs(got[i]-coef[i]) > 1e-9 {
				t.Fatalf("%v: coef[%d] = %v, want %v", shape, i, got[i], coef[i])
			}
		}
	}
}

func TestMassMatrixSymmetricAndIntegratesConstants(t *testing.T) {
	for _, shape := range []Shape{Quad, Tri} {
		r := NewRef(shape, 4)
		m := r.Mass(nil)
		n := r.NModes
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(m[i*n+j]-m[j*n+i]) > 1e-13 {
					t.Fatalf("%v: mass not symmetric at (%d,%d)", shape, i, j)
				}
			}
		}
		// 1^T M 1 over vertex-partition-of-unity = measure.
		coef := make([]float64, n)
		for i, mo := range r.Modes {
			if mo.Type == VertexMode {
				coef[i] = 1
			}
		}
		var total float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				total += coef[i] * m[i*n+j] * coef[j]
			}
		}
		want := 4.0
		if shape == Tri {
			want = 2.0
		}
		if math.Abs(total-want) > 1e-11 {
			t.Fatalf("%v: integral of 1 = %v, want %v", shape, total, want)
		}
	}
}

func TestQuadraticProjectionExact(t *testing.T) {
	// Functions inside the polynomial space project exactly.
	r := NewRef(Quad, 3)
	phys := make([]float64, r.NQuad)
	for q := range phys {
		x, y, _ := refCoords(r, q)
		phys[q] = x*x*y - 2*x*y + y*y + 1
	}
	coef := make([]float64, r.NModes)
	forwardTransform(r, phys, coef)
	back := make([]float64, r.NQuad)
	r.BackwardTransform(coef, back)
	for q := range phys {
		if math.Abs(back[q]-phys[q]) > 1e-10 {
			t.Fatalf("projection not exact at q=%d: %v vs %v", q, back[q], phys[q])
		}
	}
}

func TestShapeAccessors(t *testing.T) {
	if Quad.Dim() != 2 || Hex.Dim() != 3 || Tri.Dim() != 2 {
		t.Fatal("Dim wrong")
	}
	if Quad.NumVerts() != 4 || Tri.NumVerts() != 3 || Hex.NumVerts() != 8 {
		t.Fatal("NumVerts wrong")
	}
	if Quad.NumEdges() != 4 || Tri.NumEdges() != 3 || Hex.NumEdges() != 12 {
		t.Fatal("NumEdges wrong")
	}
	if Quad.String() != "quad" || Tri.String() != "tri" || Hex.String() != "hex" {
		t.Fatal("String wrong")
	}
}

func TestHexEdgeAndFaceTables(t *testing.T) {
	// Every edge's endpoints must be distinct vertices, and each
	// vertex must appear in exactly 3 edges.
	cnt := map[int]int{}
	for _, e := range HexEdgeVerts {
		if e[0] == e[1] {
			t.Fatal("degenerate edge")
		}
		cnt[e[0]]++
		cnt[e[1]]++
	}
	for v := 0; v < 8; v++ {
		if cnt[v] != 3 {
			t.Fatalf("vertex %d appears in %d edges, want 3", v, cnt[v])
		}
	}
	// Each vertex appears in exactly 3 faces.
	fcnt := map[int]int{}
	for _, f := range HexFaceVerts {
		for _, v := range f {
			fcnt[v]++
		}
	}
	for v := 0; v < 8; v++ {
		if fcnt[v] != 3 {
			t.Fatalf("vertex %d appears in %d faces, want 3", v, fcnt[v])
		}
	}
}

// forwardTransform projects physical values at quadrature points onto
// the modal space of the *reference* element (unit Jacobian): solves
// M coef = B W phys, the oracle BackwardTransform is inverted against.
func forwardTransform(r *Ref, phys, coef []float64) {
	m := r.Mass(nil)
	band := lapack.NewBandStorage(r.NModes, r.NModes-1)
	for i := 0; i < r.NModes; i++ {
		for j := 0; j <= i; j++ {
			band.Set(i, j, m[i*r.NModes+j])
		}
	}
	if err := lapack.Dpbtrf(band); err != nil {
		panic(fmt.Sprintf("basis: reference mass not SPD: %v", err))
	}
	r.InnerProduct(phys, nil, coef)
	lapack.Dpbtrs(band, coef)
}
