package solver

import (
	"math"
	"testing"

	"nektar/internal/blas"
	"nektar/internal/mesh"
)

func TestCondensedMatchesDirect(t *testing.T) {
	for _, gen := range []func() (*mesh.Mesh, error){
		func() (*mesh.Mesh, error) {
			return mesh.RectQuad(5, 3, 2, 0, 1, 0, 1, func(x, y, z float64) string { return "d" })
		},
		func() (*mesh.Mesh, error) {
			return mesh.RectTri(4, 3, 3, 0, 1, 0, 1, func(x, y, z float64) string { return "d" })
		},
	} {
		m, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		a := mesh.NewAssembly(m, dirAll)
		dir, err := NewDirect(a, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		cond, err := NewCondensed(a, NewElemMatrices(m), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Cos(y) }
		rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return x*y + 1 })
		dirv := DirichletFromFunc(a, dirAll, uex)
		u1 := dir.Solve(rhs, dirv)
		u2 := cond.Solve(rhs, dirv)
		for i := range u1 {
			if math.Abs(u1[i]-u2[i]) > 1e-8*(1+math.Abs(u1[i])) {
				t.Fatalf("dof %d: direct %v vs condensed %v", i, u1[i], u2[i])
			}
		}
	}
}

func TestCondensedPoissonSpectralAccuracy(t *testing.T) {
	uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }
	f := func(x, y float64) float64 { return 2 * math.Pi * math.Pi * uex(x, y) }
	m, err := mesh.RectQuad(8, 2, 2, 0, 1, 0, 1, func(x, y, z float64) string { return "d" })
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, dirAll)
	c, err := NewCondensed(a, NewElemMatrices(m), 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return f(x, y) })
	dirv := DirichletFromFunc(a, dirAll, uex)
	u := c.Solve(rhs, dirv)
	if e := L2Error(a, u, func(x, y, z float64) float64 { return uex(x, y) }); e > 1e-7 {
		t.Fatalf("L2 error %g", e)
	}
}

func TestCondensedBandwidthMuchSmallerThanFull(t *testing.T) {
	// The Schur system couples only boundary modes; on a high-order
	// mesh its bandwidth is far below the full assembled system's.
	m, err := mesh.RectQuad(8, 6, 3, 0, 6, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, nil)
	c, err := NewCondensed(a, NewElemMatrices(m), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bandwidth() >= a.Bandwidth() {
		t.Fatalf("Schur bandwidth %d not below full %d", c.Bandwidth(), a.Bandwidth())
	}
	// Boundary unknowns a small fraction of the total at order 8.
	if c.NumBoundary() >= a.NSolve/2 {
		t.Fatalf("boundary unknowns %d of %d — condensation ineffective", c.NumBoundary(), a.NSolve)
	}
}

func TestCondensedSolveCounts(t *testing.T) {
	counts := CondensedSolveCounts(1000, 50, 100, 49, 32)
	if counts.TotalFlops() == 0 || counts.TotalBytes() == 0 {
		t.Fatal("empty counts")
	}
	// The band term alone is 4*n*(kd+1).
	if counts.TotalFlops() < 4*1000*51 {
		t.Fatalf("flops %d below band-solve minimum", counts.TotalFlops())
	}
}

func TestCondensedPureNeumannWithMass(t *testing.T) {
	// With lambda > 0 the condensed operator is SPD even with no
	// Dirichlet boundary at all.
	m, err := mesh.RectQuad(4, 3, 3, 0, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, nil)
	c, err := NewCondensed(a, NewElemMatrices(m), 2)
	if err != nil {
		t.Fatal(err)
	}
	// -Lap u + 2u = 2 with natural BCs has the exact solution u = 1.
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return 2 })
	u := c.Solve(rhs, nil)
	if e := L2Error(a, u, func(x, y, z float64) float64 { return 1 }); e > 1e-10 {
		t.Fatalf("L2 error %g", e)
	}
}

func TestCondensedSolveCountsMatchRecorded(t *testing.T) {
	// The analytic per-solve cost formula (used by the paper-scale
	// extrapolation) must track the actually recorded work of a
	// condensed Solve within a modest factor.
	m, err := mesh.BluffBody(6, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.NewAssembly(m, func(tag string) bool { return tag != "outflow" })
	c, err := NewCondensed(a, NewElemMatrices(m), 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := WeakRHSFunc(a, func(x, y, z float64) float64 { return 1 })

	var rec blas.Counts
	blas.StartRecording(&rec)
	c.Solve(rhs, nil)
	blas.StopRecording()

	ref := m.Elems[0].Ref
	nb, kd := SchurStats(a)
	want := CondensedSolveCounts(nb, kd, len(m.Elems), ref.NModes-ref.NBnd, ref.NBnd)
	gotFlops := rec.Ops[blas.KernelDgemv].Flops
	wantFlops := want.Ops[blas.KernelDgemv].Flops
	ratio := float64(gotFlops) / float64(wantFlops)
	if ratio < 0.7 || ratio > 1.6 {
		t.Fatalf("recorded gemv flops %d vs formula %d (ratio %.2f)", gotFlops, wantFlops, ratio)
	}
}

// TestElemMatricesHelmholtz: the shared elemental matrices give every
// element's Helmholtz operator bit for bit as mesh.Element.Helmholtz
// does, at lambda zero and not, so a condensed operator built from them
// is the one each rank used to build alone; and NewCondensed refuses
// matrices of another mesh than the assembly's.
func TestElemMatricesHelmholtz(t *testing.T) {
	m, err := mesh.BluffBody(5, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	em := NewElemMatrices(m)
	for _, lambda := range []float64{0, 0.9, 37.5} {
		for ei, el := range m.Elems {
			want, got := el.Helmholtz(lambda), em.helmholtz(ei, lambda)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("lambda %g element %d entry %d: %v, Element.Helmholtz %v", lambda, ei, i, got[i], want[i])
				}
			}
		}
	}
	other, err := mesh.BluffBody(5, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCondensed(mesh.NewAssembly(other, nil), em, 1); err == nil {
		t.Fatal("NewCondensed accepted elemental matrices of another mesh")
	}
}
