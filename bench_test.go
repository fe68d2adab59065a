package nektar

// One testing.B benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls
// out. The Figure 1-6 benches measure this repository's pure-Go BLAS
// natively — the host plays the paper's "PC" role — while the
// communication and application benches drive the simulated cluster.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"testing"

	"nektar/internal/blas"
	"nektar/internal/core"
	"nektar/internal/machine"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/netpipe"
	"nektar/internal/partition"
	"nektar/internal/simnet"
	"nektar/internal/solver"
)

// ---- Figures 1-3: Level 1 BLAS on the host, per working-set size.

func levelSizes() []int { return []int{1 << 10, 16 << 10, 256 << 10, 4 << 20} }

// BenchmarkFig1Dcopy measures dcopy MB/s (Figure 1's native role).
func BenchmarkFig1Dcopy(b *testing.B) {
	for _, bytes := range levelSizes() {
		n := bytes / 8
		x := make([]float64, n)
		y := make([]float64, n)
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				blas.Dcopy(n, x, 1, y, 1)
			}
		})
	}
}

// BenchmarkFig2Daxpy measures daxpy (Figure 2).
func BenchmarkFig2Daxpy(b *testing.B) {
	for _, bytes := range levelSizes() {
		n := bytes / 8
		x := make([]float64, n)
		y := make([]float64, n)
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			b.SetBytes(int64(24 * n))
			for i := 0; i < b.N; i++ {
				blas.Daxpy(n, 1.0000001, x, 1, y, 1)
			}
		})
	}
}

// BenchmarkFig3Ddot measures ddot (Figure 3).
func BenchmarkFig3Ddot(b *testing.B) {
	for _, bytes := range levelSizes() {
		n := bytes / 8
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = 1, 2
		}
		var sink float64
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				sink += blas.Ddot(n, x, 1, y, 1)
			}
		})
		_ = sink
	}
}

// BenchmarkFig4Dgemv measures dgemv (Figure 4).
func BenchmarkFig4Dgemv(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		a := make([]float64, n*n)
		x := make([]float64, n)
		y := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.Dgemv(blas.NoTrans, n, n, 1, a, n, x, 1, 0, y, 1)
			}
		})
	}
}

// BenchmarkFig5Dgemm measures large dgemm (Figure 5);
// BenchmarkFig6DgemmSmall the elemental sizes (Figure 6).
func BenchmarkFig5Dgemm(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		a := make([]float64, n*n)
		c := make([]float64, n*n)
		bb := make([]float64, n*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
			}
		})
	}
}

// BenchmarkFig6DgemmSmall measures small-n dgemm (Figure 6).
func BenchmarkFig6DgemmSmall(b *testing.B) {
	for _, n := range []int{4, 8, 12, 20} {
		a := make([]float64, n*n)
		c := make([]float64, n*n)
		bb := make([]float64, n*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
			}
		})
	}
}

// ---- Figure 7: ping-pong on the simulated networks.

func BenchmarkFig7PingPong(b *testing.B) {
	for _, name := range []string{"Muses", "RoadRunner-myr", "T3E"} {
		m, err := machine.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netpipe.Run(m.Net, []int{8, 64 << 10, 4 << 20}, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 8: MPI_Alltoall on the simulated networks.

func BenchmarkFig8Alltoall(b *testing.B) {
	for _, p := range []int{4, 8} {
		m, err := machine.ByName("RoadRunner-myr")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netpipe.RunAlltoall(m.Net, p, []int{64 << 10}, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 1 / Figure 12: one serial DNS step (validation scale).

func BenchmarkTable1SerialStep(b *testing.B) {
	m, err := mesh.BluffBody(6, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	ns, err := core.NewNS2D(m, core.NS2DConfig{
		Nu: 0.01, Dt: 2e-3, Order: 2,
		VelDirichlet: map[string]core.VelBC{
			"wall":   core.ConstantVel(0, 0),
			"inflow": core.ConstantVel(1, 0),
		},
		PresDirichlet: map[string]bool{"outflow": true},
	})
	if err != nil {
		b.Fatal(err)
	}
	ns.SetUniformInitial(1, 0)
	ns.Step()
	ns.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.Step()
	}
}

// ---- Table 2 / Figures 13-14: Nektar-F steps on the simulated cluster.

func BenchmarkTable2NektarFStep(b *testing.B) {
	for _, name := range []string{"RoadRunner-myr", "RoadRunner-eth"} {
		mach, err := machine.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := simnet.Run(4, mach.Net, func(n *simnet.Node) {
					comm := mpi.World(n)
					m, err := mesh.BluffBody(4, 8, 2)
					if err != nil {
						panic(err)
					}
					ns, err := core.NewNSF(m, core.NSFConfig{
						Nu: 0.01, Dt: 2e-3, Order: 2, Lz: 2 * math.Pi,
						VelDirichlet: map[string]core.VelBC{
							"wall":   core.ConstantVel(0, 0),
							"inflow": core.ConstantVel(1, 0),
						},
						PresDirichlet: map[string]bool{"outflow": true},
					}, comm, &mach.CPU)
					if err != nil {
						panic(err)
					}
					ns.SetUniformInitial(1, 0)
					ns.Step()
					ns.Step()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 3 / Figures 15-16: Nektar-ALE steps on the simulated
// cluster.

func BenchmarkTable3NektarALEStep(b *testing.B) {
	mach, err := machine.ByName("RoadRunner-myr")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, _, err := simnet.Run(4, mach.Net, func(n *simnet.Node) {
			comm := mpi.World(n)
			m2, err := mesh.WingSection(2, 12, 2)
			if err != nil {
				panic(err)
			}
			m3, err := mesh.ExtrudeQuads(m2, 2, 2, 0, 1)
			if err != nil {
				panic(err)
			}
			ns, err := core.NewNSALE(m3, core.ALEConfig{
				Nu: 0.02, Dt: 5e-3, Order: 2,
				FarfieldVel: [3]float64{1, 0, 0},
				WallVelocity: func(t float64) [3]float64 {
					return [3]float64{0, 0.2 * math.Cos(2*math.Pi*t), 0}
				},
				MoveMesh: true,
			}, comm, &mach.CPU)
			if err != nil {
				panic(err)
			}
			ns.SetUniformInitial(1, 0, 0)
			ns.Step()
			ns.Step()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations.

// BenchmarkAblationCondensedVsBanded compares the statically condensed
// solver against the full banded direct solver on the same system — the
// design choice that makes the paper-scale serial run fit in memory.
func BenchmarkAblationCondensedVsBanded(b *testing.B) {
	m, err := mesh.BluffBody(6, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	a := mesh.NewAssembly(m, func(tag string) bool { return tag != "outflow" })
	rhs := solver.WeakRHSFunc(a, func(x, y, z float64) float64 { return 1 })
	cond, err := solver.NewCondensed(a, solver.NewElemMatrices(m), 1)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := solver.NewDirect(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("condensed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cond.Solve(rhs, nil)
		}
	})
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dir.Solve(rhs, nil)
		}
	})
}

// BenchmarkAblationTensorVsMatrix compares the sum-factorized backward
// transform against the tabulated-matrix path — the optimization that
// reproduces the paper's Figure 12 stage balance.
func BenchmarkAblationTensorVsMatrix(b *testing.B) {
	m, err := mesh.RectQuad(8, 2, 2, 0, 1, 0, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	el := m.Elems[0]
	coef := make([]float64, el.Ref.NModes)
	phys := make([]float64, el.Ref.NQuad)
	for i := range coef {
		coef[i] = float64(i % 3)
	}
	b.Run("tensor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			el.Ref.BackwardTransform(coef, phys)
		}
	})
	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.Dgemv(blas.Trans, el.Ref.NModes, el.Ref.NQuad, 1, el.Ref.B, el.Ref.NQuad, coef, 1, 0, phys, 1)
		}
	})
	// Triangular collapsed-basis factorization (Karniadakis & Sherwin).
	mt, err := mesh.RectTri(8, 2, 2, 0, 1, 0, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	elt := mt.Elems[0]
	coefT := make([]float64, elt.Ref.NModes)
	for i := range coefT {
		coefT[i] = float64(i%4) + 0.5
	}
	physT := make([]float64, elt.Ref.NQuad)
	b.Run("tri-tensor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			elt.Ref.BackwardTransform(coefT, physT)
		}
	})
	b.Run("tri-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.Dgemv(blas.Trans, elt.Ref.NModes, elt.Ref.NQuad, 1, elt.Ref.B, elt.Ref.NQuad, coefT, 1, 0, physT, 1)
		}
	})
}

// BenchmarkAblationAlltoallAlgorithms compares the pairwise and Bruck
// Alltoall algorithms on the Ethernet model, the contrast behind the
// paper's MPI_Alltoall bottleneck analysis.
func BenchmarkAblationAlltoallAlgorithms(b *testing.B) {
	mach, err := machine.ByName("Muses")
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []struct {
		name string
		a    mpi.AlltoallAlg
	}{{"pairwise", mpi.AlgPairwise}, {"bruck", mpi.AlgBruck}} {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := simnet.Run(4, mach.Net, func(n *simnet.Node) {
					comm := mpi.World(n)
					send := make([][]float64, 4)
					for j := range send {
						send[j] = make([]float64, 4096)
					}
					comm.Alltoall(send, alg.a)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// edgeCut returns the total weight of graph edges crossing parts.
func edgeCut(g *partition.Graph, part []int) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if u := g.Adjncy[e]; u > v && part[u] != part[v] {
				cut += g.Adjwgt[e]
			}
		}
	}
	return cut
}

// BenchmarkAblationPartitionQuality measures the multilevel
// partitioner's runtime and reports the edge-cut improvement over
// naive striping (edge cut drives the Nektar-ALE communication
// volume).
func BenchmarkAblationPartitionQuality(b *testing.B) {
	m2, err := mesh.WingSection(2, 24, 4)
	if err != nil {
		b.Fatal(err)
	}
	m3, err := mesh.ExtrudeQuads(m2, 2, 3, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromMesh(m3)
	var cut int
	for i := 0; i < b.N; i++ {
		part, err := partition.Partition(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		cut = edgeCut(g, part)
	}
	striped := make([]int, g.N())
	for v := range striped {
		striped[v] = v * 8 / g.N()
	}
	b.ReportMetric(float64(cut), "edgecut")
	b.ReportMetric(float64(edgeCut(g, striped)), "stripedcut")
}
