package mesh

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// reorderOracle is the numbering's original reverse Cuthill-McKee:
// per-row sort.Ints plus dedup for the adjacency, and a sort.Slice by
// degree on a copy of each row at every BFS visit. It is kept only to
// pin that the O(nnz) reorder yields the identical permutation.
func (a *Assembly) reorderOracle(rawL2G [][]int, dir []bool) []int {
	n := a.NGlobal
	adj := make([][]int, n)
	for _, l2g := range rawL2G {
		for _, gi := range l2g {
			if dir[gi] {
				continue
			}
			for _, gj := range l2g {
				if gj != gi && !dir[gj] {
					adj[gi] = append(adj[gi], gj)
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
			if !dir[i] && !visited[i] && deg[i] < best {
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
			sort.Slice(nbrs, func(i, j int) bool { return deg[nbrs[i]] < deg[nbrs[j]] })
			for _, w := range nbrs {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	a.NSolve = len(order)

	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
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

// TestReorderMatchesOracle demands the O(nnz) reorder's permutation be
// the original one, entry for entry, over the meshes the solvers run
// on (2D bluff-body and wing O-grids, triangles, extruded and box
// hexahedra), orders 1 to 6, and boundary conditions from none through
// mixed to all Dirichlet. Every assembled operator, and so every
// golden, rests on this numbering.
func TestReorderMatchesOracle(t *testing.T) {
	type meshCase struct {
		name  string
		build func(order int) (*Mesh, error)
		tags  map[string]func(string) bool
	}
	none := func(string) bool { return false }
	all := func(string) bool { return true }
	is := func(names ...string) func(string) bool {
		return func(tag string) bool { return slices.Contains(names, tag) }
	}
	cases := []meshCase{
		{"bluff", func(p int) (*Mesh, error) { return BluffBody(p, 8, 2) },
			map[string]func(string) bool{"nil": nil, "none": none, "all": all,
				"vel": is("inflow", "side", "wall"), "pres": is("outflow")}},
		{"wing", func(p int) (*Mesh, error) { return WingSection(p, 6, 2) },
			map[string]func(string) bool{"nil": nil, "all": all, "wall": is("wall")}},
		{"tri", func(p int) (*Mesh, error) {
			return RectTri(p, 3, 2, 0, 1, 0, 1, func(x, y, z float64) string {
				if x < 1e-12 {
					return "left"
				}
				return "rest"
			})
		}, map[string]func(string) bool{"nil": nil, "all": all, "left": is("left")}},
		{"extruded", func(p int) (*Mesh, error) {
			m2, err := WingSection(p, 6, 1)
			if err != nil {
				return nil, err
			}
			return ExtrudeQuads(m2, p, 2, 0, 1)
		}, map[string]func(string) bool{"nil": nil, "all": all,
			"farfield": is("farfield"), "wall+zlow": is("wall", "zlow")}},
		{"box", func(p int) (*Mesh, error) {
			return BoxHex(p, 2, 2, 2, 0, 1, 0, 1, 0, 1, func(x, y, z float64) string {
				if z < 1e-12 {
					return "bottom"
				}
				return "side"
			})
		}, map[string]func(string) bool{"nil": nil, "bottom": is("bottom"), "all": all}},
	}
	for _, mc := range cases {
		for order := 1; order <= 6; order++ {
			if (mc.name == "extruded" || mc.name == "box") && order > 5 && testing.Short() {
				continue
			}
			m, err := mc.build(order)
			if err != nil {
				t.Fatalf("%s order %d: %v", mc.name, order, err)
			}
			for tagName, tag := range mc.tags {
				t.Run(fmt.Sprintf("%s/p%d/%s", mc.name, order, tagName), func(t *testing.T) {
					a, rawL2G, dir := rawNumbering(m, tag)
					got := a.reorder(rawL2G, dir)
					gotSolve := a.NSolve
					want := a.reorderOracle(rawL2G, dir)
					if gotSolve != a.NSolve {
						t.Fatalf("NSolve = %d, oracle %d", gotSolve, a.NSolve)
					}
					if !slices.Equal(got, want) {
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("perm[%d] = %d, oracle %d (NGlobal %d)", i, got[i], want[i], a.NGlobal)
							}
						}
					}
				})
			}
		}
	}
}

func BenchmarkReorderWing(b *testing.B) {
	m2, err := WingSection(3, 24, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ExtrudeQuads(m2, 3, 2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	tag := func(tag string) bool { return tag == "wall" || tag == "farfield" }
	a, rawL2G, dir := rawNumbering(m, tag)
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.reorder(rawL2G, dir)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.reorderOracle(rawL2G, dir)
		}
	})
}
