package bench

import (
	"flag"
	"fmt"
	"io"
	"math"

	"nektar/internal/basis"
	"nektar/internal/mesh"
)

// BasisConfig parametrizes the method illustrations of the paper's
// Figures 9 and 10, at the paper's polynomial order 4: the
// boundary-first modal ordering of the triangular and quadrilateral
// expansions and, with Sparsity, the structure of the elemental
// Laplacian.
type BasisConfig struct {
	Sparsity bool
}

func basisFlags(fs *flag.FlagSet, c *BasisConfig) {
	fs.BoolVar(&c.Sparsity, "sparsity", c.Sparsity, "print the Figure 10 Laplacian sparsity patterns")
}

func runBasis(cfg BasisConfig, w io.Writer) (any, error) {
	const order = 4
	for _, shape := range []basis.Shape{basis.Tri, basis.Quad} {
		ref := basis.NewRef(shape, order)
		fmt.Fprintf(w, "Figure 9: %s expansion ordering at order %d (%d modes, %d boundary)\n",
			shape, order, ref.NModes, ref.NBnd)
		for mi, m := range ref.Modes {
			fmt.Fprintf(w, "  mode %2d: (p,q)=(%d,%d) %-8s entity %d\n", mi, m.P, m.Q, m.Type, m.Entity)
		}
		fmt.Fprintln(w)
	}
	if !cfg.Sparsity {
		return nil, nil
	}
	for _, gen := range []struct {
		name  string
		verts [][3]float64
		shape basis.Shape
		conn  []int
	}{
		{"triangular", [][3]float64{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, basis.Tri, []int{0, 1, 2}},
		{"quadrilateral", [][3]float64{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}}, basis.Quad, []int{0, 1, 2, 3}},
	} {
		m, err := mesh.New(order, gen.verts, []mesh.ElemSpec{{Shape: gen.shape, Verts: gen.conn}})
		if err != nil {
			return nil, err
		}
		lap := m.Elems[0].Laplacian()
		n := m.Elems[0].Ref.NModes
		fmt.Fprintf(w, "Figure 10: elemental Laplacian structure, standard modal %s expansion, order %d\n", gen.name, order)
		fmt.Fprintf(w, "(boundary modes first; '#' nonzero, '.' zero)\n")
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(lap[i*n+j]) > 1e-10 {
					fmt.Fprint(w, "#")
				} else {
					fmt.Fprint(w, ".")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil, nil
}
