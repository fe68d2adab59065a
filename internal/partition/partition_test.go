package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nektar/internal/mesh"
)

// gridGraph builds an nx-by-ny 2D grid graph with unit weights.
func gridGraph(nx, ny int) *Graph {
	b := NewBuilder(nx * ny)
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				b.AddEdge(id(i, j), id(i+1, j), 1)
			}
			if j+1 < ny {
				b.AddEdge(id(i, j), id(i, j+1), 1)
			}
		}
	}
	return b.Graph()
}

func TestBuilderCSR(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(0, 1, 1) // accumulates
	g := b.Graph()
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if got := g.Xadj[1] - g.Xadj[0]; got != 1 {
		t.Fatalf("deg(0) = %d", got)
	}
	if got := g.Xadj[2] - g.Xadj[1]; got != 2 {
		t.Fatalf("deg(1) = %d", got)
	}
	if g.Adjwgt[g.Xadj[0]] != 3 {
		t.Fatalf("edge 0-1 weight = %d, want 3", g.Adjwgt[g.Xadj[0]])
	}
}

func TestPartitionTrivial(t *testing.T) {
	g := gridGraph(4, 4)
	part, err := Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must put everything in part 0")
		}
	}
	if _, err := Partition(g, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func checkBalanceAndCut(t *testing.T, g *Graph, part []int, k int, maxImbalance float64, maxCut int) {
	t.Helper()
	w := partWeights(g, part, k)
	total := 0
	for _, x := range w {
		total += x
	}
	ideal := float64(total) / float64(k)
	for p, x := range w {
		if float64(x) > ideal*(1+maxImbalance) || float64(x) < ideal*(1-maxImbalance) {
			t.Fatalf("part %d weight %d, ideal %.1f (weights %v)", p, x, ideal, w)
		}
	}
	if cut := edgeCut(g, part); cut > maxCut {
		t.Fatalf("edge cut %d > %d", cut, maxCut)
	}
}

func TestBisectGrid(t *testing.T) {
	g := gridGraph(16, 16)
	part, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal bisection of a 16x16 grid cuts 16 edges; allow slack.
	checkBalanceAndCut(t, g, part, 2, 0.15, 40)
}

func TestKWayGrid(t *testing.T) {
	for _, k := range []int{3, 4, 8} {
		g := gridGraph(20, 20)
		part, err := Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		// All parts populated.
		seen := make([]bool, k)
		for _, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("part id %d out of range", p)
			}
			seen[p] = true
		}
		for p, ok := range seen {
			if !ok {
				t.Fatalf("k=%d: part %d empty", k, p)
			}
		}
		checkBalanceAndCut(t, g, part, k, 0.30, 150)
	}
}

func TestPartitionBeatsNaiveStriping(t *testing.T) {
	// The multilevel partitioner should produce a much smaller cut
	// than slicing vertices by index on a grid whose natural index
	// order is row-major.
	g := gridGraph(24, 24)
	part, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	striped := make([]int, n)
	for v := range striped {
		striped[v] = v * 4 / n
	}
	if edgeCut(g, part) > edgeCut(g, striped)*2 {
		t.Fatalf("multilevel cut %d much worse than striping %d", edgeCut(g, part), edgeCut(g, striped))
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two disjoint cliques: the bisection must split them apart with
	// zero cut.
	b := NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(4+i, 4+j, 1)
		}
	}
	g := b.Graph()
	part, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cut := edgeCut(g, part); cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
}

func TestWeightedVertices(t *testing.T) {
	// One heavy vertex should sit alone against many light ones.
	b := NewBuilder(5)
	b.SetVertexWeight(0, 4)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, i, 1)
	}
	g := b.Graph()
	part, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := partWeights(g, part, 2)
	if w[0] < 3 || w[0] > 5 || w[1] < 3 || w[1] > 5 {
		t.Fatalf("weights %v not balanced", w)
	}
}

func TestFromMesh2D(t *testing.T) {
	m, err := mesh.RectQuad(3, 4, 4, 0, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := FromMesh(m)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	// Interior element (1,1) = index 5 has 4 neighbors.
	if d := g.Xadj[6] - g.Xadj[5]; d != 4 {
		t.Fatalf("interior element degree %d, want 4", d)
	}
	part, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkBalanceAndCut(t, g, part, 4, 0.35, 200)
}

func TestFromMesh3D(t *testing.T) {
	m, err := mesh.BoxHex(2, 3, 3, 3, 0, 1, 0, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := FromMesh(m)
	if g.N() != 27 {
		t.Fatalf("N = %d", g.N())
	}
	// Corner elements have 3 face neighbors.
	if d := g.Xadj[1] - g.Xadj[0]; d != 3 {
		t.Fatalf("corner degree %d, want 3", d)
	}
	part, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range part {
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("parts used: %v", seen)
	}
}

func TestRandomWeightedGraphsBalanced(t *testing.T) {
	// Property: random connected weighted graphs partition into k
	// non-empty parts with bounded imbalance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 10
		b := NewBuilder(n)
		// Random spanning tree keeps it connected.
		for v := 1; v < n; v++ {
			b.AddEdge(v, rng.Intn(v), rng.Intn(3)+1)
		}
		extra := rng.Intn(2 * n)
		for e := 0; e < extra; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, rng.Intn(3)+1)
			}
		}
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, rng.Intn(4)+1)
		}
		g := b.Graph()
		k := rng.Intn(4) + 2
		part, err := Partition(g, k)
		if err != nil {
			return false
		}
		w := partWeights(g, part, k)
		total := 0
		empty := false
		for _, x := range w {
			total += x
			if x == 0 {
				empty = true
			}
		}
		if empty {
			return false
		}
		ideal := float64(total) / float64(k)
		for _, x := range w {
			// Generous bound: random small graphs with heavy vertices
			// cannot always balance tightly.
			if float64(x) > 2.2*ideal+4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// edgeCut returns the total weight of edges crossing parts.
func edgeCut(g *Graph, part []int) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if u > v && part[u] != part[v] {
				cut += g.Adjwgt[e]
			}
		}
	}
	return cut
}

// partWeights returns the total vertex weight per part.
func partWeights(g *Graph, part []int, k int) []int {
	w := make([]int, k)
	for v, p := range part {
		w[p] += g.Vwgt[v]
	}
	return w
}
