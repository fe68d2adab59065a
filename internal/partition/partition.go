// Package partition implements multilevel graph partitioning in the
// style of METIS (Karypis & Kumar 1995), which the paper uses for the
// element-based domain decomposition of Nektar-ALE: heavy-edge
// matching coarsening, greedy region-growing initial bisection, and
// Kernighan-Lin/Fiduccia-Mattheyses boundary refinement, applied
// recursively for k-way partitions.
package partition

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph in CSR form.
type Graph struct {
	Xadj   []int // length n+1
	Adjncy []int // concatenated adjacency lists
	Adjwgt []int // edge weights, parallel to Adjncy
	Vwgt   []int // vertex weights, length n
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Xadj) - 1 }

// Builder accumulates an adjacency structure for conversion to CSR.
type Builder struct {
	n     int
	vwgt  []int
	edges []map[int]int // neighbor -> weight
}

// NewBuilder creates a builder for n vertices with unit weights.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, vwgt: make([]int, n), edges: make([]map[int]int, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
		b.edges[i] = map[int]int{}
	}
	return b
}

// SetVertexWeight assigns the computational weight of vertex v.
func (b *Builder) SetVertexWeight(v, w int) { b.vwgt[v] = w }

// AddEdge adds (or accumulates onto) the undirected edge u-v.
func (b *Builder) AddEdge(u, v, w int) {
	if u == v {
		return
	}
	b.edges[u][v] += w
	b.edges[v][u] += w
}

// Graph converts the builder to CSR form.
func (b *Builder) Graph() *Graph {
	g := &Graph{Xadj: make([]int, b.n+1), Vwgt: append([]int(nil), b.vwgt...)}
	for v := 0; v < b.n; v++ {
		g.Xadj[v+1] = g.Xadj[v] + len(b.edges[v])
	}
	g.Adjncy = make([]int, g.Xadj[b.n])
	g.Adjwgt = make([]int, g.Xadj[b.n])
	for v := 0; v < b.n; v++ {
		nbrs := make([]int, 0, len(b.edges[v]))
		for u := range b.edges[v] {
			nbrs = append(nbrs, u)
		}
		sort.Ints(nbrs)
		off := g.Xadj[v]
		for i, u := range nbrs {
			g.Adjncy[off+i] = u
			g.Adjwgt[off+i] = b.edges[v][u]
		}
	}
	return g
}

// Partition splits the graph into k balanced parts, returning the part
// id of each vertex.
func Partition(g *Graph, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1")
	}
	n := g.N()
	if k > n {
		// Empty parts would leave ranks with no elements and break the
		// halo-exchange pattern downstream (observed as a deadlock, not
		// an error) — refuse up front.
		return nil, fmt.Errorf("partition: cannot split %d vertices into %d parts", n, k)
	}
	part := make([]int, n)
	if k == 1 {
		return part, nil
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	recurse(g, verts, 0, k, part)
	return part, nil
}

// recurse assigns parts [base, base+k) to the given vertex subset.
func recurse(g *Graph, verts []int, base, k int, part []int) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	kl := k / 2
	left, right := bisect(g, verts, float64(kl)/float64(k))
	recurse(g, left, base, kl, part)
	recurse(g, right, base+kl, k-kl, part)
}

// subgraph extracts the induced subgraph on verts, returning it plus
// the local-to-parent vertex mapping.
func subgraph(g *Graph, verts []int) (*Graph, []int) {
	loc := map[int]int{}
	for i, v := range verts {
		loc[v] = i
	}
	b := NewBuilder(len(verts))
	for i, v := range verts {
		b.SetVertexWeight(i, g.Vwgt[v])
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if j, ok := loc[u]; ok && j > i {
				b.AddEdge(i, j, g.Adjwgt[e])
			}
		}
	}
	return b.Graph(), verts
}

// bisect splits a vertex subset into two groups whose weight ratio
// approximates frac, via multilevel bisection of the induced subgraph.
func bisect(g *Graph, verts []int, frac float64) (left, right []int) {
	sg, back := subgraph(g, verts)
	side := multilevelBisect(sg, frac)
	for i, s := range side {
		if s == 0 {
			left = append(left, back[i])
		} else {
			right = append(right, back[i])
		}
	}
	// Guard against degenerate splits.
	if len(left) == 0 {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	} else if len(right) == 0 {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	return left, right
}

// coarse captures one coarsening level.
type coarse struct {
	g     *Graph
	cmap  []int // fine vertex -> coarse vertex
	finer *Graph
}

// multilevelBisect bisects a graph: coarsen by heavy-edge matching,
// split the coarsest graph by greedy region growing, then uncoarsen
// with FM refinement at each level.
func multilevelBisect(g *Graph, frac float64) []int {
	var levels []coarse
	cur := g
	for cur.N() > 64 {
		next, cmap := coarsen(cur)
		if next.N() >= cur.N()*9/10 {
			break // diminishing returns
		}
		levels = append(levels, coarse{g: next, cmap: cmap, finer: cur})
		cur = next
	}
	side := growBisect(cur, frac)
	refineFM(cur, side, frac, 4)
	// Project back up.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := make([]int, lv.finer.N())
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		side = fine
		refineFM(lv.finer, side, frac, 2)
	}
	return side
}

// coarsen contracts a heavy-edge matching.
func coarsen(g *Graph) (*Graph, []int) {
	n := g.N()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in random-ish but deterministic order (by degree).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := g.Xadj[order[a]+1] - g.Xadj[order[a]]
		db := g.Xadj[order[b]+1] - g.Xadj[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	cmap := make([]int, n)
	nc := 0
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		// Heaviest unmatched neighbor.
		best, bestW := -1, -1
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if match[u] < 0 && g.Adjwgt[e] > bestW {
				best, bestW = u, g.Adjwgt[e]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v], cmap[best] = nc, nc
		} else {
			match[v] = v
			cmap[v] = nc
		}
		nc++
	}
	b := NewBuilder(nc)
	cw := make([]int, nc)
	for v := 0; v < n; v++ {
		cw[cmap[v]] += g.Vwgt[v]
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if cmap[u] != cmap[v] {
				b.edges[cmap[v]][cmap[u]] += g.Adjwgt[e]
			}
		}
	}
	for c := 0; c < nc; c++ {
		b.SetVertexWeight(c, cw[c])
	}
	// Each undirected edge was accumulated from both endpoints; halve.
	for v := range b.edges {
		for u := range b.edges[v] {
			// Only adjust once per direction; weights stay symmetric.
			b.edges[v][u] = (b.edges[v][u] + 1) / 2
		}
	}
	return b.Graph(), cmap
}

// growBisect grows side 0 by BFS from a pseudo-peripheral vertex until
// it holds about frac of the total weight.
func growBisect(g *Graph, frac float64) []int {
	n := g.N()
	total := 0
	for _, w := range g.Vwgt {
		total += w
	}
	target := int(float64(total) * frac)
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	start := peripheral(g)
	visited := make([]bool, n)
	queue := []int{start}
	visited[start] = true
	grown := 0
	for len(queue) > 0 && grown < target {
		v := queue[0]
		queue = queue[1:]
		side[v] = 0
		grown += g.Vwgt[v]
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
		if len(queue) == 0 && grown < target {
			// Disconnected graph: seed the next component.
			for u := 0; u < n; u++ {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
					break
				}
			}
		}
	}
	return side
}

// peripheral finds an approximately peripheral vertex by double BFS.
func peripheral(g *Graph) int {
	far := bfsFarthest(g, 0)
	return bfsFarthest(g, far)
}

func bfsFarthest(g *Graph, start int) int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int{start}
	last := start
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		last = v
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return last
}

// refineFM runs passes of Fiduccia-Mattheyses boundary refinement: it
// repeatedly moves the boundary vertex with the best gain subject to a
// balance constraint, keeping the best configuration seen.
func refineFM(g *Graph, side []int, frac float64, passes int) {
	n := g.N()
	total := 0
	for _, w := range g.Vwgt {
		total += w
	}
	target0 := float64(total) * frac
	tol := float64(total) * 0.05
	w0 := 0
	for v, s := range side {
		if s == 0 {
			w0 += g.Vwgt[v]
		}
	}

	gain := func(v int) int {
		ext, inn := 0, 0
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if side[g.Adjncy[e]] != side[v] {
				ext += g.Adjwgt[e]
			} else {
				inn += g.Adjwgt[e]
			}
		}
		return ext - inn
	}

	for pass := 0; pass < passes; pass++ {
		moved := make([]bool, n)
		improved := false
		for iter := 0; iter < n; iter++ {
			best, bestGain := -1, 0
			for v := 0; v < n; v++ {
				if moved[v] {
					continue
				}
				// Balance check for moving v to the other side.
				nw0 := w0
				if side[v] == 0 {
					nw0 -= g.Vwgt[v]
				} else {
					nw0 += g.Vwgt[v]
				}
				if float64(nw0) < target0-tol || float64(nw0) > target0+tol {
					continue
				}
				if gv := gain(v); gv > bestGain || (best < 0 && gv == bestGain && gv > 0) {
					best, bestGain = v, gv
				}
			}
			if best < 0 || bestGain <= 0 {
				break
			}
			if side[best] == 0 {
				w0 -= g.Vwgt[best]
			} else {
				w0 += g.Vwgt[best]
			}
			side[best] = 1 - side[best]
			moved[best] = true
			improved = true
		}
		if !improved {
			break
		}
	}
}
