package gs

import (
	"math"
	"testing"

	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

func runWorld(t *testing.T, p int, body func(c *mpi.Comm)) {
	t.Helper()
	model := &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1, EagerLimit: 32 << 10},
	}
	_, _, err := simnet.Run(p, model, func(n *simnet.Node) { body(mpi.World(n)) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankIsIdentity(t *testing.T) {
	runWorld(t, 1, func(c *mpi.Comm) {
		g := New(c, []int{5, 7, 9}, 2)
		vals := []float64{1, 2, 3}
		g.Combine(vals, Sum)
		if vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
			t.Errorf("vals changed: %v", vals)
		}
		if d := g.Dot(vals, vals); d != 14 {
			t.Errorf("Dot = %v, want 14", d)
		}
	})
}

func TestPairwiseSumTwoRanks(t *testing.T) {
	// Ranks share global id 100; each contributes its rank+1.
	results := make([][]float64, 2)
	runWorld(t, 2, func(c *mpi.Comm) {
		ids := []int{c.Rank() * 10, 100} // one private, one shared
		g := New(c, ids, 2)
		vals := []float64{float64(c.Rank() + 5), float64(c.Rank() + 1)}
		g.Combine(vals, Sum)
		results[c.Rank()] = vals
	})
	for r := 0; r < 2; r++ {
		if results[r][0] != float64(r+5) {
			t.Fatalf("rank %d private value changed: %v", r, results[r])
		}
		if results[r][1] != 3 { // 1 + 2
			t.Fatalf("rank %d shared sum = %v, want 3", r, results[r][1])
		}
	}
}

func TestManySharersGoThroughTree(t *testing.T) {
	// Global id 7 is shared by all 5 ranks (> PairwiseLimit 2): the
	// tree stage must sum all contributions.
	p := 5
	results := make([]float64, p)
	runWorld(t, p, func(c *mpi.Comm) {
		g := New(c, []int{7}, 2)
		if len(g.treeIdx) != 1 {
			t.Errorf("rank %d: id not routed to tree", c.Rank())
		}
		vals := []float64{float64(c.Rank() + 1)}
		g.Combine(vals, Sum)
		results[c.Rank()] = vals[0]
	})
	for r := 0; r < p; r++ {
		if results[r] != 15 {
			t.Fatalf("rank %d: sum = %v, want 15", r, results[r])
		}
	}
}

func TestThreeSharersPairwise(t *testing.T) {
	// With PairwiseLimit 3 an id shared by 3 ranks uses pairwise
	// exchanges of *original* contributions — no double counting.
	p := 4
	results := make([]float64, p)
	runWorld(t, p, func(c *mpi.Comm) {
		var ids []int
		if c.Rank() < 3 {
			ids = []int{42}
		} else {
			ids = []int{99}
		}
		g := New(c, ids, 3)
		vals := []float64{float64(c.Rank() + 1)}
		g.Combine(vals, Sum)
		results[c.Rank()] = vals[0]
	})
	for r := 0; r < 3; r++ {
		if results[r] != 6 { // 1+2+3
			t.Fatalf("rank %d: %v, want 6", r, results[r])
		}
	}
	if results[3] != 4 {
		t.Fatalf("rank 3 private value %v", results[3])
	}
}

func TestMinMax(t *testing.T) {
	p := 4
	mins := make([]float64, p)
	maxs := make([]float64, p)
	runWorld(t, p, func(c *mpi.Comm) {
		g := New(c, []int{1}, 2)
		v := []float64{float64(c.Rank()*c.Rank()) - 3}
		g.Combine(v, Min)
		mins[c.Rank()] = v[0]
		v[0] = float64(c.Rank()*c.Rank()) - 3
		g.Combine(v, Max)
		maxs[c.Rank()] = v[0]
	})
	for r := 0; r < p; r++ {
		if mins[r] != -3 || maxs[r] != 6 {
			t.Fatalf("rank %d: min %v max %v", r, mins[r], maxs[r])
		}
	}
}

func TestMultiplicity(t *testing.T) {
	runWorld(t, 3, func(c *mpi.Comm) {
		// id 1 on all 3, id 2 on ranks 0-1, id 3*rank private.
		ids := []int{1, 30 + c.Rank()}
		if c.Rank() < 2 {
			ids = append(ids, 2)
		}
		g := New(c, ids, 2)
		if g.Mult[0] != 3 {
			t.Errorf("rank %d: mult of id 1 = %v", c.Rank(), g.Mult[0])
		}
		if g.Mult[1] != 1 {
			t.Errorf("rank %d: mult of private id = %v", c.Rank(), g.Mult[1])
		}
		if c.Rank() < 2 && g.Mult[2] != 2 {
			t.Errorf("rank %d: mult of id 2 = %v", c.Rank(), g.Mult[2])
		}
	})
}

func TestDotCountsSharedOnce(t *testing.T) {
	// Two ranks share id 5 with consistent value 2 (after Combine);
	// each also has a private dof of value 1. Global dot(x, x) must be
	// 2*1 + 2*2 = 6, not 1+4+1+4.
	var dot float64
	runWorld(t, 2, func(c *mpi.Comm) {
		g := New(c, []int{c.Rank(), 5}, 2)
		x := []float64{1, 2}
		d := g.Dot(x, x)
		if c.Rank() == 0 {
			dot = d
		}
	})
	if math.Abs(dot-6) > 1e-12 {
		t.Fatalf("Dot = %v, want 6", dot)
	}
}

func TestCombineMixedPlan(t *testing.T) {
	// A realistic mix: a corner id shared by all, edges shared by 2,
	// private interiors — both stages in one Combine call.
	p := 4
	sums := make(map[int][]float64)
	results := make([][]float64, p)
	runWorld(t, p, func(c *mpi.Comm) {
		r := c.Rank()
		prev := (r + p - 1) % p
		// Ring of "edges": edge e_r connects ranks r and r+1. ids:
		// corner 1000 (all ranks), edge with next (e_r), edge with
		// prev (e_prev), private.
		ids := []int{1000, 2000 + r, 2000 + prev, 3000 + r}
		g := New(c, ids, 2)
		vals := []float64{1, float64(r), float64(r), 10}
		g.Combine(vals, Sum)
		results[r] = vals
	})
	_ = sums
	for r := 0; r < p; r++ {
		if results[r][0] != float64(p) {
			t.Fatalf("rank %d corner = %v, want %v", r, results[r][0], p)
		}
		next := (r + 1) % p
		if results[r][1] != float64(r+next) {
			t.Fatalf("rank %d edge(next) = %v, want %v", r, results[r][1], r+next)
		}
		if results[r][3] != 10 {
			t.Fatalf("rank %d private = %v", r, results[r][3])
		}
	}
}

// mixedIDs gives rank r of p a plan with every strategy in it: a corner
// id every rank holds (the tree stage once p exceeds the pairwise limit
// of 3), ring edges shared with each neighbour, ids shared by three
// consecutive ranks (pairwise, so folded in neighbour order), and
// private ids.
func mixedIDs(r, p int) []int {
	ids := []int{1000, 2000 + r, 2000 + (r+p-1)%p, 5000 + r, 5000 + r + 1}
	for d := 0; d < 3 && d < p; d++ {
		ids = append(ids, 3000+(r-d+p)%p)
	}
	seen := map[int]bool{}
	var out []int
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// mixedVals are rounding-sensitive values for field f on rank r.
func mixedVals(r, f, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(1+7*r+3*f+11*i)) * math.Pow(10, float64((r+i+f)%5-2))
	}
	return v
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCombineFieldsMatchesCombinePerField(t *testing.T) {
	const k = 3
	for p := 2; p <= 8; p++ {
		for _, op := range []Op{Sum, Min, Max} {
			runWorld(t, p, func(c *mpi.Comm) {
				r := c.Rank()
				ids := mixedIDs(r, p)
				g := New(c, ids, 3)
				if p > 3 && len(g.treeIdx) == 0 {
					t.Errorf("p=%d rank %d: the corner id did not go through the tree", p, r)
				}
				many, one := make([][]float64, k), make([][]float64, k)
				for f := range many {
					many[f], one[f] = mixedVals(r, f, len(ids)), mixedVals(r, f, len(ids))
				}
				g.CombineFields(many, op)
				for f := range one {
					g.Combine(one[f], op)
				}
				for f := range many {
					if !sameBits(many[f], one[f]) {
						t.Errorf("p=%d op=%d rank %d field %d: CombineFields %v, Combine %v", p, op, r, f, many[f], one[f])
					}
				}
				dots := make([]float64, k)
				g.DotFields(dots, many, one)
				for f := range many {
					if d := g.Dot(many[f], one[f]); math.Float64bits(d) != math.Float64bits(dots[f]) {
						t.Errorf("p=%d rank %d field %d: DotFields %v, Dot %v", p, r, f, dots[f], d)
					}
				}
			})
		}
	}
}
