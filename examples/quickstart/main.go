// Quickstart: solve a Helmholtz problem with the spectral/hp element
// library and verify spectral convergence — the smallest end-to-end
// use of the mesh, assembly and direct-solver layers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"nektar/internal/mesh"
	"nektar/internal/solver"
)

func main() {
	// Manufactured solution of -Lap(u) + u = f on [0,1]^2 with
	// Dirichlet boundaries.
	uex := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Exp(y) }
	f := func(x, y, z float64) float64 {
		// -Lap(u) + u = (pi^2 - 1 + 1) u = pi^2 * u.
		return math.Pi * math.Pi * uex(x, y)
	}

	fmt.Println("order   dofs    L2 error")
	for order := 2; order <= 10; order += 2 {
		m, err := mesh.RectQuad(order, 2, 2, 0, 1, 0, 1,
			func(x, y, z float64) string { return "dirichlet" })
		if err != nil {
			log.Fatal(err)
		}
		a := mesh.NewAssembly(m, func(tag string) bool { return tag == "dirichlet" })
		helm, err := solver.NewCondensed(a, solver.NewElemMatrices(m), 1.0)
		if err != nil {
			log.Fatal(err)
		}
		rhs := solver.WeakRHSFunc(a, f)
		dir := solver.DirichletFromFunc(a, func(string) bool { return true },
			func(x, y float64) float64 { return uex(x, y) })
		u := helm.Solve(rhs, dir)
		e := solver.L2Error(a, u, func(x, y, z float64) float64 { return uex(x, y) })
		fmt.Printf("%5d  %5d    %.3e\n", order, a.NGlobal, e)
	}
	fmt.Println("\nThe error decays exponentially with order: p-refinement at work.")
}
