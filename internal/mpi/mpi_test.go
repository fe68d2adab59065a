package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nektar/internal/simnet"
)

func testModel() *simnet.Model {
	return &simnet.Model{
		Name:  "test",
		Inter: simnet.LinkModel{LatencyUS: 20, BandwidthMBs: 50, OverheadUS: 2, EagerLimit: 64 * 1024},
	}
}

// runWorld executes body on p simulated ranks and fails the test on
// simulator errors.
func runWorld(t *testing.T, p int, body func(c *Comm)) ([]float64, []float64) {
	t.Helper()
	wall, cpu, err := simnet.Run(p, testModel(), func(n *simnet.Node) {
		body(World(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	return wall, cpu
}

func TestRankSize(t *testing.T) {
	seen := make([]bool, 5)
	runWorld(t, 5, func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
	})
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// After a barrier every rank's clock must be at least the maximum
	// pre-barrier clock (rank r computed r ms).
	after := make([]float64, 6)
	runWorld(t, 6, func(c *Comm) {
		c.Compute(float64(c.Rank()) * 1e-3)
		c.Barrier()
		after[c.Rank()] = c.Wtime()
	})
	for r, w := range after {
		if w < 5e-3 {
			t.Fatalf("rank %d passed barrier at %v, before slowest rank", r, w)
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		got := make([][]float64, p)
		runWorld(t, p, func(c *Comm) {
			var data []float64
			if c.Rank() == 0 {
				data = []float64{1, 2, 3}
			}
			got[c.Rank()] = c.Bcast(0, data)
		})
		for r := 0; r < p; r++ {
			if len(got[r]) != 3 || got[r][0] != 1 || got[r][2] != 3 {
				t.Fatalf("p=%d rank %d: bcast got %v", p, r, got[r])
			}
		}
	}
}

func TestBcastNonzeroRoot(t *testing.T) {
	p := 6
	got := make([][]float64, p)
	runWorld(t, p, func(c *Comm) {
		var data []float64
		if c.Rank() == 4 {
			data = []float64{9}
		}
		got[c.Rank()] = c.Bcast(4, data)
	})
	for r := 0; r < p; r++ {
		if len(got[r]) != 1 || got[r][0] != 9 {
			t.Fatalf("rank %d: %v", r, got[r])
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 3, 6} {
		results := make([][]float64, p)
		runWorld(t, p, func(c *Comm) {
			data := []float64{float64(c.Rank()), 1}
			results[c.Rank()] = c.Allreduce(data, Sum)
		})
		wantSum := float64(p*(p-1)) / 2
		for r := 0; r < p; r++ {
			if results[r][0] != wantSum || results[r][1] != float64(p) {
				t.Fatalf("p=%d rank %d: %v, want [%v %v]", p, r, results[r], wantSum, p)
			}
		}
	}
}

func TestAllreduceMinMax(t *testing.T) {
	p := 4
	mins := make([]float64, p)
	maxs := make([]float64, p)
	runWorld(t, p, func(c *Comm) {
		v := []float64{float64(c.Rank()*c.Rank()) - 2}
		mins[c.Rank()] = c.Allreduce(v, Min)[0]
		maxs[c.Rank()] = c.Allreduce(v, Max)[0]
	})
	for r := 0; r < p; r++ {
		if mins[r] != -2 || maxs[r] != 7 {
			t.Fatalf("rank %d: min=%v max=%v", r, mins[r], maxs[r])
		}
	}
}

// reduce combines data onto root (binomial tree); non-root ranks
// receive nil. It is the test oracle AllreduceInto is checked against.
func (c *Comm) reduce(root int, data []float64, op Op) []float64 {
	p, r := c.Size(), c.Rank()
	tag := c.nextTag()
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	vr := (r - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			dst := ((vr &^ mask) + root) % p
			c.Send(dst, tag, acc)
			return nil
		}
		if vr|mask < p {
			src := ((vr | mask) + root) % p
			got := c.Recv(src, tag)
			op.apply(acc, got)
		}
		mask <<= 1
	}
	return acc
}

func TestReduceToRoot(t *testing.T) {
	p := 7
	var rootGot []float64
	runWorld(t, p, func(c *Comm) {
		out := c.reduce(2, []float64{1}, Sum)
		if c.Rank() == 2 {
			rootGot = out
		} else if out != nil {
			t.Errorf("rank %d got non-nil reduce result", c.Rank())
		}
	})
	if rootGot[0] != 7 {
		t.Fatalf("reduce sum = %v, want 7", rootGot[0])
	}
}

func TestGather(t *testing.T) {
	p := 5
	var got [][]float64
	runWorld(t, p, func(c *Comm) {
		out := c.Gather(0, []float64{float64(10 * c.Rank())})
		if c.Rank() == 0 {
			got = out
		}
	})
	for r := 0; r < p; r++ {
		if got[r][0] != float64(10*r) {
			t.Fatalf("gather[%d] = %v", r, got[r])
		}
	}
}

func alltoallBody(t *testing.T, p int, alg AlltoallAlg) {
	results := make([][][]float64, p)
	runWorld(t, p, func(c *Comm) {
		send := make([][]float64, p)
		for i := range send {
			// rank r sends {r, i} to rank i.
			send[i] = []float64{float64(c.Rank()), float64(i)}
		}
		results[c.Rank()] = c.Alltoall(send, alg)
	})
	for r := 0; r < p; r++ {
		for src := 0; src < p; src++ {
			got := results[r][src]
			if len(got) != 2 || got[0] != float64(src) || got[1] != float64(r) {
				t.Fatalf("p=%d alg=%v: recv[%d][%d] = %v", p, alg, r, src, got)
			}
		}
	}
}

func TestAlltoallPairwisePow2(t *testing.T) { alltoallBody(t, 8, AlgPairwise) }
func TestAlltoallPairwiseOdd(t *testing.T)  { alltoallBody(t, 5, AlgPairwise) }
func TestAlltoallAuto(t *testing.T)         { alltoallBody(t, 4, AlgAuto) }
func TestAlltoallSingleRank(t *testing.T)   { alltoallBody(t, 1, AlgAuto) }
func TestAlltoallTwoRanksBig(t *testing.T)  { alltoallBody(t, 2, AlgPairwise) }

func TestAlltoallLargeRendezvousMessages(t *testing.T) {
	// 1 MB per pair exceeds the eager limit: exercises rendezvous in
	// both algorithms.
	for _, alg := range []AlltoallAlg{AlgPairwise, AlgBruck} {
		p := 4
		sums := make([]float64, p)
		runWorld(t, p, func(c *Comm) {
			send := make([][]float64, p)
			for i := range send {
				send[i] = make([]float64, 1<<17) // 1 MB
				send[i][0] = float64(c.Rank() + i)
			}
			recv := c.Alltoall(send, alg)
			var s float64
			for _, buf := range recv {
				s += buf[0]
			}
			sums[c.Rank()] = s
		})
		for r := 0; r < p; r++ {
			// sum over src of (src + r) = p*r + p(p-1)/2.
			want := float64(p*r) + float64(p*(p-1))/2
			if sums[r] != want {
				t.Fatalf("alg=%v rank %d: sum=%v want %v", alg, r, sums[r], want)
			}
		}
	}
}

func TestSendrecvSymmetricExchange(t *testing.T) {
	p := 2
	got := make([]float64, p)
	runWorld(t, p, func(c *Comm) {
		other := 1 - c.Rank()
		data := make([]float64, 1<<17) // rendezvous-sized
		data[0] = float64(c.Rank() + 1)
		out := c.Sendrecv(other, 9, data, other, 9)
		got[c.Rank()] = out[0]
	})
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("exchange results: %v", got)
	}
}

func TestWtimeAdvancesWithTraffic(t *testing.T) {
	runWorld(t, 2, func(c *Comm) {
		t0 := c.Wtime()
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 1000))
		} else {
			c.Recv(0, 0)
			if c.Wtime() <= t0 {
				t.Errorf("Wtime did not advance across a receive")
			}
		}
	})
}

func TestCollectiveCPUvsWall(t *testing.T) {
	// In an imbalanced allreduce the fast ranks idle: wall exceeds cpu
	// markedly on rank 0.
	p := 4
	var wall0, cpu0 float64
	runWorld(t, p, func(c *Comm) {
		if c.Rank() != 0 {
			c.Compute(0.05)
		}
		c.Allreduce([]float64{1}, Sum)
		if c.Rank() == 0 {
			wall0, cpu0 = c.Wtime(), c.CPUTime()
		}
	})
	if wall0 < 0.05 {
		t.Fatalf("rank 0 wall = %v, should wait for slow ranks", wall0)
	}
	if cpu0 > 0.01 {
		t.Fatalf("rank 0 cpu = %v, should be mostly idle", cpu0)
	}
	if math.Abs(wall0-cpu0) < 0.04 {
		t.Fatalf("wall-cpu gap too small: %v vs %v", wall0, cpu0)
	}
}

func TestAlltoallBruck(t *testing.T) {
	for _, p := range []int{2, 4, 5, 8, 9} {
		alltoallBody(t, p, AlgBruck)
	}
}

func TestAlltoallBruckBeatsPairwiseLatency(t *testing.T) {
	// For tiny messages on a high-latency network, Bruck's log2(P)
	// rounds must finish sooner than pairwise's P-1 rounds.
	model := &simnet.Model{
		Name:  "high-latency",
		Inter: simnet.LinkModel{LatencyUS: 200, BandwidthMBs: 100, OverheadUS: 5},
	}
	run := func(alg AlltoallAlg) float64 {
		var worst float64
		_, _, err := simnet.Run(16, model, func(n *simnet.Node) {
			c := World(n)
			send := make([][]float64, 16)
			for i := range send {
				send[i] = []float64{float64(c.Rank())}
			}
			c.Alltoall(send, alg)
			if w := c.Wtime(); w > worst {
				worst = w
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	bruck := run(AlgBruck)
	pairwise := run(AlgPairwise)
	if bruck >= pairwise {
		t.Fatalf("Bruck %v not faster than pairwise %v for tiny messages", bruck, pairwise)
	}
}

func TestAlltoallAutoSelectsBruckForTinyMessages(t *testing.T) {
	// AlgAuto on 8+ ranks with tiny blocks must behave like Bruck
	// (correctness is covered by alltoallBody; here we just exercise
	// the dispatch path).
	alltoallBody(t, 8, AlgAuto)
}

func TestRandomizedCollectiveSoak(t *testing.T) {
	// Property: random sequences of collectives on random cluster
	// sizes and models complete without deadlock and produce correct
	// reductions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(7) + 2
		model := &simnet.Model{
			Name: "soak",
			Inter: simnet.LinkModel{
				LatencyUS:    float64(rng.Intn(200) + 1),
				BandwidthMBs: float64(rng.Intn(200) + 5),
				OverheadUS:   float64(rng.Intn(20)),
				EagerLimit:   1 << (8 + rng.Intn(8)),
			},
		}
		ops := make([]int, 6)
		for i := range ops {
			ops[i] = rng.Intn(4)
		}
		sizes := make([]int, len(ops))
		for i := range sizes {
			sizes[i] = rng.Intn(2000) + 1
		}
		ok := true
		_, _, err := simnet.Run(p, model, func(n *simnet.Node) {
			c := World(n)
			for i, op := range ops {
				data := make([]float64, sizes[i])
				for j := range data {
					data[j] = float64(c.Rank() + 1)
				}
				switch op {
				case 0:
					got := c.Allreduce(data, Sum)
					want := float64(p*(p+1)) / 2
					if got[0] != want {
						ok = false
					}
				case 1:
					got := c.Bcast(i%p, data)
					if got[0] != float64(i%p+1) && c.Rank() != i%p {
						ok = false
					}
				case 2:
					send := make([][]float64, p)
					for d := range send {
						send[d] = []float64{float64(c.Rank()*100 + d)}
					}
					recv := c.Alltoall(send, AlgAuto)
					for src := range recv {
						if recv[src][0] != float64(src*100+c.Rank()) {
							ok = false
						}
					}
				case 3:
					c.Barrier()
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Collective tags stay in [collTagBase, collTagMax): the sequence
// wraps before Bruck's tag+k round offsets could spill past the bound,
// and a wrapped tag still carries traffic.
func TestNextTagStaysInCollectiveSpace(t *testing.T) {
	var sawWrap bool
	_, _, err := simnet.Run(2, testModel(), func(n *simnet.Node) {
		c := World(n)
		c.seq = collTagMax - collTagBase - 12 // a few tags under the bound
		prev := 0
		for i := 0; i < 20; i++ {
			tag := c.nextTag()
			if tag < collTagBase || tag+c.Size() >= collTagMax {
				panic(fmt.Sprintf("collective tag %d outside [%d, %d)", tag, collTagBase, collTagMax))
			}
			if i > 0 && tag <= prev {
				sawWrap = true
			}
			prev = tag
			partner := 1 - c.Rank()
			c.Sendrecv(partner, tag, []float64{float64(i)}, partner, tag)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sawWrap {
		t.Fatal("sequence never wrapped; bound guard untested")
	}
}
