package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nektar/internal/mesh"
)

// channelMesh builds a short channel [0,L] x [-1,1] with walls top and
// bottom, inflow left and outflow right.
func channelMesh(t *testing.T, order, nx, ny int, L float64) *mesh.Mesh {
	t.Helper()
	m, err := mesh.RectQuad(order, nx, ny, 0, L, -1, 1, func(x, y, z float64) string {
		switch {
		case y <= -0.999 || y >= 0.999:
			return "wall"
		case x <= 1e-9:
			return "inflow"
		default:
			return "outflow"
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func poiseuilleCfg(nu, dt float64) NS2DConfig {
	return NS2DConfig{
		Nu:    nu,
		Dt:    dt,
		Order: 2,
		VelDirichlet: map[string]VelBC{
			"wall":   ConstantVel(0, 0),
			"inflow": func(x, y float64) (float64, float64) { return 1 - y*y, 0 },
		},
		PresDirichlet: map[string]bool{"outflow": true},
	}
}

func TestPoiseuilleSteadyStateIsPreserved(t *testing.T) {
	// The parabolic profile is an exact steady Navier-Stokes solution
	// representable at order >= 2; starting from it, the splitting
	// scheme must keep it (up to splitting error).
	m := channelMesh(t, 5, 4, 2, 4)
	ns, err := NewNS2D(m, poiseuilleCfg(0.1, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	exact := func(x, y float64) (float64, float64) { return 1 - y*y, 0 }
	ns.SetInitial(exact)
	if e0 := ns.L2VelocityError(exact); e0 > 1e-8 {
		t.Fatalf("initial projection error %g", e0)
	}
	for i := 0; i < 40; i++ {
		ns.Step()
	}
	if e := ns.L2VelocityError(exact); e > 2e-3 {
		t.Fatalf("steady state drifted: L2 error %g", e)
	}
	if d := ns.MaxDivergence(); d > 0.05 {
		t.Fatalf("divergence %g too large", d)
	}
}

func TestPoiseuilleConvergesFromPerturbedStart(t *testing.T) {
	m := channelMesh(t, 5, 4, 2, 4)
	ns, err := NewNS2D(m, poiseuilleCfg(0.5, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	exact := func(x, y float64) (float64, float64) { return 1 - y*y, 0 }
	// Perturbed start: uniform plug flow.
	ns.SetInitial(func(x, y float64) (float64, float64) {
		return (1 - y*y) * (1 + 0.2*math.Sin(math.Pi*x)), 0
	})
	e0 := ns.L2VelocityError(exact)
	for i := 0; i < 300; i++ {
		ns.Step()
	}
	e1 := ns.L2VelocityError(exact)
	if e1 > e0/3 {
		t.Fatalf("no convergence toward steady state: %g -> %g", e0, e1)
	}
}

func TestKovasznayFlow(t *testing.T) {
	// Kovasznay's exact steady solution at Re = 40. Velocity Dirichlet
	// everywhere except the outflow (natural + p = 0 is not exactly
	// consistent, so we only require the error to stay small and
	// stable rather than spectral).
	re := 40.0
	lam := re/2 - math.Sqrt(re*re/4+4*math.Pi*math.Pi)
	uex := func(x, y float64) (float64, float64) {
		return 1 - math.Exp(lam*x)*math.Cos(2*math.Pi*y),
			lam / (2 * math.Pi) * math.Exp(lam*x) * math.Sin(2*math.Pi*y)
	}
	m, err := mesh.RectQuad(7, 3, 3, -0.5, 1.0, -0.5, 1.5, func(x, y, z float64) string {
		if x >= 0.999 {
			return "outflow"
		}
		return "in"
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := NS2DConfig{
		Nu: 1 / re, Dt: 1e-3, Order: 2,
		VelDirichlet:  map[string]VelBC{"in": uex},
		PresDirichlet: map[string]bool{"outflow": true},
	}
	ns, err := NewNS2D(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns.SetInitial(uex)
	for i := 0; i < 200; i++ {
		ns.Step()
	}
	if e := ns.L2VelocityError(uex); e > 0.02 {
		t.Fatalf("Kovasznay error %g", e)
	}
}

func TestBluffBodySmoke(t *testing.T) {
	// A few steps of the paper's serial benchmark configuration at
	// validation scale: impulsive start past a cylinder at Re = 100.
	m, err := mesh.BluffBody(4, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NS2DConfig{
		Nu: 0.01, Dt: 5e-3, Order: 2,
		VelDirichlet: map[string]VelBC{
			"wall":   ConstantVel(0, 0),
			"inflow": ConstantVel(1, 0),
			"side":   ConstantVel(1, 0),
		},
		PresDirichlet: map[string]bool{"outflow": true},
	}
	ns, err := NewNS2D(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	ke0 := ns.KineticEnergy()
	for i := 0; i < 10; i++ {
		ns.Step()
	}
	ke := ns.KineticEnergy()
	if math.IsNaN(ke) || ke <= 0 || ke > 4*ke0 {
		t.Fatalf("kinetic energy unstable: %g -> %g", ke0, ke)
	}
	fx, fy := ns.Forces()
	if math.IsNaN(fx) || math.IsNaN(fy) {
		t.Fatal("forces are NaN")
	}
	if fx <= 0 {
		t.Fatalf("drag %g should be positive for impulsively started flow", fx)
	}
}

func TestStageAccountingCoversStep(t *testing.T) {
	m := channelMesh(t, 4, 3, 2, 3)
	ns, err := NewNS2D(m, poiseuilleCfg(0.1, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	ns.Stages().Attach()
	ns.Step()
	ns.Stages().Detach()
	total := ns.Stages().Total()
	if total.TotalFlops() == 0 {
		t.Fatal("no flops recorded")
	}
	// Every stage must have recorded some work.
	for i, name := range ns.Stages().Names {
		c := ns.Stages().Counts[i]
		if c.TotalFlops() == 0 && c.TotalBytes() == 0 {
			t.Fatalf("stage %q recorded nothing", name)
		}
	}
	// The solve stages (5 and 7) must dominate gemv-class work, as in
	// the paper's Figure 12 where matrix inversions are ~60%%.
}

func TestOrderRampUp(t *testing.T) {
	m := channelMesh(t, 3, 2, 2, 2)
	ns, err := NewNS2D(m, poiseuilleCfg(0.1, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	if schemeOrder(ns.step, ns.Cfg.Order) != 1 {
		t.Fatal("first step must use order 1")
	}
	ns.Step()
	if schemeOrder(ns.step, ns.Cfg.Order) != 2 {
		t.Fatal("second step must use order 2")
	}
	if ns.StepCount() != 1 {
		t.Fatal("step count wrong")
	}
}

func TestNS2DConfigValidation(t *testing.T) {
	m := channelMesh(t, 2, 2, 2, 2)
	if _, err := NewNS2D(m, NS2DConfig{Nu: 0.1, Dt: 1e-3, Order: 5}); err == nil {
		t.Fatal("order 5 should be rejected")
	}
	if _, err := NewNS2D(m, NS2DConfig{Nu: -1, Dt: 1e-3, Order: 1}); err == nil {
		t.Fatal("negative viscosity should be rejected")
	}
}

func TestNS2DWriteField(t *testing.T) {
	m := channelMesh(t, 3, 2, 2, 2)
	ns, err := NewNS2D(m, poiseuilleCfg(0.1, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	ns.Step()
	var b strings.Builder
	if err := ns.WriteField(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# x y u v p") {
		t.Fatalf("missing header:\n%.80s", out)
	}
	lines := strings.Count(out, "\n")
	wantPts := 0
	for _, el := range m.Elems {
		wantPts += el.Ref.NQuad
	}
	if lines != wantPts+1 {
		t.Fatalf("lines = %d, want %d", lines, wantPts+1)
	}
}

func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	// Save mid-run, keep stepping; a fresh solver restored from the
	// checkpoint must reproduce the exact same trajectory.
	m := channelMesh(t, 4, 3, 2, 3)
	cfg := poiseuilleCfg(0.2, 2e-3)

	ns, err := NewNS2D(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns.SetInitial(func(x, y float64) (float64, float64) {
		return (1 - y*y) * (1 + 0.1*math.Sin(x)), 0
	})
	for i := 0; i < 5; i++ {
		ns.Step()
	}
	var buf bytes.Buffer
	if err := ns.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ns.Step()
	}

	m2 := channelMesh(t, 4, 3, 2, 3)
	ns2, err := NewNS2D(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ns2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if ns2.StepCount() != 5 {
		t.Fatalf("restored step count %d, want 5", ns2.StepCount())
	}
	for i := 0; i < 5; i++ {
		ns2.Step()
	}
	for c := 0; c < 2; c++ {
		for i := range ns.U[c] {
			if ns.U[c][i] != ns2.U[c][i] {
				t.Fatalf("component %d dof %d: %v vs %v — trajectory not bit-identical",
					c, i, ns.U[c][i], ns2.U[c][i])
			}
		}
	}
}

func TestCheckpointRejectsMismatchedMesh(t *testing.T) {
	m := channelMesh(t, 4, 3, 2, 3)
	ns, err := NewNS2D(m, poiseuilleCfg(0.2, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	var buf bytes.Buffer
	if err := ns.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := channelMesh(t, 3, 2, 2, 2)
	ns2, err := NewNS2D(other, poiseuilleCfg(0.2, 2e-3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ns2.Restore(&buf); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}
