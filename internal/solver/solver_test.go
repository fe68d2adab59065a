package solver

import (
	"math"
	"testing"

	"nektar/internal/mesh"
)

func dirAll(tag string) bool { return true }

// solvePoisson2D solves -Lap(u) + lambda*u = f on a mesh with exact
// solution uex and returns the L2 error.
func solveHelmholtz2D(t *testing.T, m *mesh.Mesh, lambda float64,
	uex func(x, y float64) float64, f func(x, y float64) float64) float64 {
	t.Helper()
	a := mesh.NewAssembly(m, dirAll)
	d, err := NewDirect(a, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return f(x, y) })
	dir := DirichletFromFunc(a, dirAll, uex)
	u := d.Solve(rhs, dir)
	return L2Error(a, u, func(x, y, z float64) float64 { return uex(x, y) })
}

func TestPoissonQuadManufactured(t *testing.T) {
	uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }
	f := func(x, y float64) float64 { return 2 * math.Pi * math.Pi * uex(x, y) }
	m, err := mesh.RectQuad(7, 3, 3, 0, 1, 0, 1, func(x, y, z float64) string { return "wall" })
	if err != nil {
		t.Fatal(err)
	}
	if e := solveHelmholtz2D(t, m, 0, uex, f); e > 1e-6 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestPoissonPConvergence(t *testing.T) {
	uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }
	f := func(x, y float64) float64 { return 2 * math.Pi * math.Pi * uex(x, y) }
	var prev float64
	for i, p := range []int{2, 4, 6, 8} {
		m, err := mesh.RectQuad(p, 2, 2, 0, 1, 0, 1, func(x, y, z float64) string { return "wall" })
		if err != nil {
			t.Fatal(err)
		}
		e := solveHelmholtz2D(t, m, 0, uex, f)
		if i > 0 && e > prev/5 {
			t.Fatalf("p=%d: error %g did not drop spectrally from %g", p, e, prev)
		}
		prev = e
	}
	if prev > 1e-7 {
		t.Fatalf("p=8 error %g too large", prev)
	}
}

func TestHelmholtzQuadNonzeroLambda(t *testing.T) {
	// u = cos(x)cosh(y): -Lap u = 0, so -Lap u + u = u means f = u.
	uex := func(x, y float64) float64 { return math.Cos(x) * math.Cosh(y) }
	f := uex // lambda = 1
	m, err := mesh.RectQuad(8, 2, 2, -1, 1, -1, 1, func(x, y, z float64) string { return "d" })
	if err != nil {
		t.Fatal(err)
	}
	if e := solveHelmholtz2D(t, m, 1, uex, f); e > 1e-7 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestPoissonTriangles(t *testing.T) {
	uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }
	f := func(x, y float64) float64 { return 2 * math.Pi * math.Pi * uex(x, y) }
	m, err := mesh.RectTri(7, 3, 3, 0, 1, 0, 1, func(x, y, z float64) string { return "wall" })
	if err != nil {
		t.Fatal(err)
	}
	if e := solveHelmholtz2D(t, m, 0, uex, f); e > 1e-5 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestPoissonNonhomogeneousDirichlet(t *testing.T) {
	// u = x^2 + y^2 exactly representable at p >= 2; f = -Lap u = -4.
	uex := func(x, y float64) float64 { return x*x + y*y }
	f := func(x, y float64) float64 { return -4 }
	for _, gen := range []func() (*mesh.Mesh, error){
		func() (*mesh.Mesh, error) {
			return mesh.RectQuad(3, 2, 3, 0, 2, 0, 1, func(x, y, z float64) string { return "d" })
		},
		func() (*mesh.Mesh, error) {
			return mesh.RectTri(3, 2, 3, 0, 2, 0, 1, func(x, y, z float64) string { return "d" })
		},
	} {
		m, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if e := solveHelmholtz2D(t, m, 0, uex, f); e > 1e-9 {
			t.Fatalf("L2 error = %g (u in space: must be exact)", e)
		}
	}
}

func TestPoissonMixedNeumann(t *testing.T) {
	// Right boundary (x=1) natural with du/dn = 0 for
	// u = cos(pi x) sin(pi y)? du/dx at x=1 is pi*sin(pi)*... = 0. So
	// tag x=1 as "neumann" and keep the rest Dirichlet.
	uex := func(x, y float64) float64 { return math.Cos(math.Pi*x) * math.Sin(math.Pi*y) }
	f := func(x, y float64) float64 { return 2 * math.Pi * math.Pi * uex(x, y) }
	m, err := mesh.RectQuad(8, 2, 2, 0, 1, 0, 1, func(x, y, z float64) string {
		if x > 0.999 {
			return "neumann"
		}
		return "d"
	})
	if err != nil {
		t.Fatal(err)
	}
	isD := func(tag string) bool { return tag == "d" }
	a := mesh.NewAssembly(m, isD)
	d, err := NewDirect(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return f(x, y) })
	dir := DirichletFromFunc(a, isD, uex)
	u := d.Solve(rhs, dir)
	if e := L2Error(a, u, func(x, y, z float64) float64 { return uex(x, y) }); e > 1e-7 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestPoissonHex3D(t *testing.T) {
	uex := func(x, y, z float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
	}
	f := func(x, y, z float64) float64 { return 3 * math.Pi * math.Pi * uex(x, y, z) }
	m, err := mesh.BoxHex(5, 2, 2, 2, 0, 1, 0, 1, 0, 1, func(x, y, z float64) string { return "wall" })
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, dirAll)
	d, err := NewDirect(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := WeakRHSFunc(a, f)
	u := d.Solve(rhs, nil) // homogeneous Dirichlet
	if e := L2Error(a, u, uex); e > 2e-3 {
		t.Fatalf("L2 error = %g", e)
	}
}

func TestWeakRHSLinearity(t *testing.T) {
	m, err := mesh.RectQuad(3, 2, 2, 0, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, nil)
	r1 := WeakRHSFunc(a, func(x, y, z float64) float64 { return x })
	r2 := WeakRHSFunc(a, func(x, y, z float64) float64 { return y })
	r12 := WeakRHSFunc(a, func(x, y, z float64) float64 { return x + y })
	for i := range r12 {
		if math.Abs(r12[i]-r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("RHS not linear at dof %d", i)
		}
	}
}

func TestDirectSolverBandwidthExposed(t *testing.T) {
	m, err := mesh.RectQuad(3, 4, 2, 0, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, nil)
	d, err := NewDirect(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bandwidth() <= 0 || d.Bandwidth() != a.Bandwidth() {
		t.Fatalf("Bandwidth() = %d, assembly says %d", d.Bandwidth(), a.Bandwidth())
	}
}
