package mpi

import (
	"fmt"
	"math"
	"testing"

	"nektar/internal/simnet"
)

// The caller-owned forms must be the allocating forms with the memory
// moved: same values, same messages, same virtual time, at every rank
// count the algorithms branch on (1, powers of two, odd, even non-powers).

var intoSizes = []int{1, 2, 3, 5, 6, 8, 12, 16}

// blockLen and blockVal define the payload rank src sends rank dst.
func blockLen(src, dst int, unequal bool) int {
	if unequal {
		return (src*7 + dst*3) % 5 // includes empty blocks
	}
	return 3
}

func blockVal(src, dst, k int) float64 { return float64(1000*src + 10*dst + k) }

func sendBlocks(r, p int, unequal bool) [][]float64 {
	send := make([][]float64, p)
	for dst := range send {
		send[dst] = make([]float64, blockLen(r, dst, unequal))
		for k := range send[dst] {
			send[dst][k] = blockVal(r, dst, k)
		}
	}
	return send
}

// referenceExchange is the plain all-to-all: post every send, then
// receive from every rank in turn.
func referenceExchange(c *Comm, send [][]float64) [][]float64 {
	const tag = 77
	p := c.Size()
	reqs := make([]*simnet.Request, p)
	for dst := 0; dst < p; dst++ {
		reqs[dst] = c.Isend(dst, tag, send[dst])
	}
	recv := make([][]float64, p)
	for src := 0; src < p; src++ {
		recv[src] = c.Recv(src, tag)
	}
	for _, rq := range reqs {
		c.Wait(rq)
	}
	return recv
}

func sameBlocks(a, b [][]float64) error {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("block %d: %d floats against %d", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return fmt.Errorf("block %d[%d]: %v against %v", i, k, a[i][k], b[i][k])
			}
		}
	}
	return nil
}

func TestAlltoallIntoMatchesAlltoallAndReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		alg     AlltoallAlg
		unequal bool
	}{
		{"pairwise/unequal", AlgPairwise, true},
		{"pairwise/equal", AlgPairwise, false},
		{"bruck", AlgBruck, false},
		{"auto", AlgAuto, false},
	} {
		for _, p := range intoSizes {
			label := fmt.Sprintf("%s/p=%d", tc.name, p)
			runWorld(t, p, func(c *Comm) {
				r := c.Rank()
				send := sendBlocks(r, p, tc.unequal)
				got := c.Alltoall(send, tc.alg)
				if err := sameBlocks(got, referenceExchange(c, send)); err != nil {
					t.Errorf("%s rank %d: Alltoall against the reference exchange: %v", label, r, err)
				}
			})
			runWorld(t, p, func(c *Comm) {
				r := c.Rank()
				send := sendBlocks(r, p, tc.unequal)
				// Caller-owned blocks, one float longer than needed so the
				// test sees that only the leading elements are written.
				recv := make([][]float64, p)
				for src := range recv {
					recv[src] = make([]float64, blockLen(src, r, tc.unequal)+1)
					recv[src][len(recv[src])-1] = -7
				}
				// Twice: the second call runs on recycled payloads and the
				// communicator's warm scratch space.
				for round := 0; round < 2; round++ {
					c.AlltoallInto(send, recv, tc.alg)
					for src := range recv {
						if last := len(recv[src]) - 1; recv[src][last] != -7 {
							t.Errorf("%s rank %d: block %d written past its payload", label, r, src)
						}
					}
				}
				got := make([][]float64, p)
				for src := range got {
					got[src] = recv[src][:len(recv[src])-1]
				}
				if err := sameBlocks(got, referenceExchange(c, send)); err != nil {
					t.Errorf("%s rank %d: AlltoallInto against the reference exchange: %v", label, r, err)
				}
			})
			// Same messages at the same virtual instants either way.
			a, _ := runWorld(t, p, func(c *Comm) { c.Alltoall(sendBlocks(c.Rank(), p, tc.unequal), tc.alg) })
			b, _ := runWorld(t, p, func(c *Comm) {
				recv := make([][]float64, p)
				for src := range recv {
					recv[src] = make([]float64, blockLen(src, c.Rank(), tc.unequal))
				}
				c.AlltoallInto(sendBlocks(c.Rank(), p, tc.unequal), recv, tc.alg)
			})
			for r := range a {
				if math.Float64bits(a[r]) != math.Float64bits(b[r]) {
					t.Errorf("%s rank %d: virtual time %v allocating, %v caller-owned", label, r, a[r], b[r])
				}
			}
		}
	}
}

func TestAllreduceIntoMatchesAllreduce(t *testing.T) {
	for _, p := range intoSizes {
		for _, op := range []Op{Sum, Min, Max} {
			for _, n := range []int{1, 5} {
				label := fmt.Sprintf("p=%d op=%d n=%d", p, op, n)
				data := func(r int) []float64 {
					v := make([]float64, n)
					for i := range v {
						v[i] = math.Sin(float64(1+r*n+i)) * float64(1+(r+i)%3)
					}
					return v
				}
				clocks := func(body func(c *Comm)) []float64 {
					wall, _ := runWorld(t, p, body)
					return wall
				}
				a := clocks(func(c *Comm) {
					src := data(c.Rank())
					want := c.Allreduce(src, op)
					dst := make([]float64, n)
					c.AllreduceInto(dst, src, op)
					alias := data(c.Rank())
					c.AllreduceInto(alias, alias, op)
					for i := range want {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) ||
							math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
							t.Errorf("%s rank %d [%d]: Allreduce %v, Into %v, aliased %v", label, c.Rank(), i, want[i], dst[i], alias[i])
						}
						if src[i] != data(c.Rank())[i] {
							t.Errorf("%s rank %d: AllreduceInto changed its source", label, c.Rank())
						}
					}
				})
				b := clocks(func(c *Comm) {
					for round := 0; round < 3; round++ {
						c.Allreduce(data(c.Rank()), op)
					}
				})
				for r := range a {
					if math.Float64bits(a[r]) != math.Float64bits(b[r]) {
						t.Errorf("%s rank %d: virtual time %v with the Into forms, %v allocating", label, r, a[r], b[r])
					}
				}
			}
		}
	}
}

// At a rank count that is not a power of two, AllreduceInto must be
// Reduce onto rank 0 followed by Bcast from it, run in place: the same
// values, and the same messages at the same virtual instants.
func TestAllreduceIntoIsReduceThenBcast(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 12} {
		for _, op := range []Op{Sum, Min, Max} {
			label := fmt.Sprintf("p=%d op=%d", p, op)
			data := func(r, round int) []float64 {
				v := make([]float64, 3)
				for i := range v {
					v[i] = math.Sin(float64(1+r*7+i+round)) * math.Pow(10, float64((r+i)%4-1))
				}
				return v
			}
			got := make([][]float64, p)
			into, intoCPU := runWorld(t, p, func(c *Comm) {
				v := make([]float64, 3)
				for round := 0; round < 3; round++ {
					copy(v, data(c.Rank(), round))
					c.AllreduceInto(v, v, op)
					got[c.Rank()] = append(got[c.Rank()], v...)
				}
			})
			want := make([][]float64, p)
			ref, refCPU := runWorld(t, p, func(c *Comm) {
				for round := 0; round < 3; round++ {
					want[c.Rank()] = append(want[c.Rank()], c.Bcast(0, c.reduce(0, data(c.Rank(), round), op))...)
				}
			})
			for r := 0; r < p; r++ {
				for i := range want[r] {
					if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
						t.Errorf("%s rank %d [%d]: AllreduceInto %v, Reduce+Bcast %v", label, r, i, got[r][i], want[r][i])
					}
				}
				if math.Float64bits(into[r]) != math.Float64bits(ref[r]) || math.Float64bits(intoCPU[r]) != math.Float64bits(refCPU[r]) {
					t.Errorf("%s rank %d: virtual wall/cpu %v/%v with AllreduceInto, %v/%v with Reduce+Bcast",
						label, r, into[r], intoCPU[r], ref[r], refCPU[r])
				}
			}
		}
	}
}
