package spectral

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
)

// fill gives a deterministic dense test matrix.
func fillMatrix(rows, cols int) []complex128 {
	m := make([]complex128, rows*cols)
	for i := range m {
		h := mix64(uint64(i) + 0x1234)
		m[i] = complex(phase01(h), phase01(mix64(h)))
	}
	return m
}

// TestTransposerSerial covers the tiled local transpose on shapes that
// are a multiple of the 16 x 16 tile, smaller than one tile, and ragged
// in either or both directions.
func TestTransposerSerial(t *testing.T) {
	for _, sh := range [][2]int{{8, 16}, {32, 48}, {12, 20}, {36, 24}} {
		rows, cols := sh[0], sh[1]
		tr, err := NewTransposer(rows, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewTransposer(cols, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := fillMatrix(rows, cols)
		out := make([]complex128, cols*rows)
		tr.Transpose(in, out)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if out[j*rows+i] != in[i*cols+j] {
					t.Fatalf("%dx%d: transpose mismatch at (%d,%d)", rows, cols, i, j)
				}
			}
		}
		rt := make([]complex128, rows*cols)
		back.Transpose(out, rt)
		for i := range in {
			if rt[i] != in[i] {
				t.Fatalf("%dx%d: round trip mismatch at %d", rows, cols, i)
			}
		}
	}
}

func TestTransposerRejectsBadDecomposition(t *testing.T) {
	if _, err := NewTransposer(0, 4, nil); err == nil {
		t.Fatal("want error for zero rows")
	}
	_, _, err := simnet.Run(4, machine.Muses().Net, func(n *simnet.Node) {
		if _, err := NewTransposer(6, 8, mpi.World(n)); err == nil {
			panic("want error: 6 rows do not decompose over 4 ranks")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransposerParallelMatchesSerial checks the distributed exchange
// assembles exactly the serial transpose, slab by slab.
func TestTransposerParallelMatchesSerial(t *testing.T) {
	const rows, cols, p = 8, 16, 4
	in := fillMatrix(rows, cols)
	ser, err := NewTransposer(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, cols*rows)
	ser.Transpose(in, want)

	got := make([][]complex128, p)
	_, _, err = simnet.Run(p, machine.Muses().Net, func(n *simnet.Node) {
		comm := mpi.World(n)
		tr, err := NewTransposer(rows, cols, comm)
		if err != nil {
			panic(err)
		}
		rloc, cloc := rows/p, cols/p
		slab := in[n.Rank*rloc*cols : (n.Rank+1)*rloc*cols]
		out := make([]complex128, cloc*rows)
		tr.Transpose(slab, out)
		got[n.Rank] = out
	})
	if err != nil {
		t.Fatal(err)
	}
	cloc := cols / p
	for r := 0; r < p; r++ {
		for i, v := range got[r] {
			if want[r*cloc*rows+i] != v {
				t.Fatalf("rank %d slab mismatch at %d", r, i)
			}
		}
	}
}

func hashSlab(s []complex128) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTransposerP64Models drives the transposer at P=64 under the PMS
// and Tanaka interconnect models with both the serial and the
// host-parallel conservative scheduler: a few transpose round trips
// must leave bit-identical slabs either way. This is the capacity
// configuration the spectral solvers rely on for the paper-scale
// sweeps.
func TestTransposerP64Models(t *testing.T) {
	const n, p, trips = 64, 64, 3
	full := fillMatrix(n, n)
	models := []struct {
		name string
		mach *machine.Machine
	}{
		{"pms", machine.PMS()},
		{"tanaka", machine.Tanaka()},
	}
	for _, mc := range models {
		var ref []string
		for _, sched := range []simnet.Scheduler{simnet.SchedSerial, simnet.SchedParallel} {
			model := *mc.mach.Net
			model.Scheduler = sched
			hashes := make([]string, p)
			_, _, err := simnet.Run(p, &model, func(nd *simnet.Node) {
				comm := mpi.World(nd)
				fwd, err := NewTransposer(n, n, comm)
				if err != nil {
					panic(err)
				}
				rloc := n / p
				slab := append([]complex128(nil), full[nd.Rank*rloc*n:(nd.Rank+1)*rloc*n]...)
				tmp := make([]complex128, rloc*n)
				for k := 0; k < trips; k++ {
					fwd.Transpose(slab, tmp)
					slab, tmp = tmp, slab
				}
				hashes[nd.Rank] = hashSlab(slab)
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", mc.name, sched, err)
			}
			if ref == nil {
				ref = hashes
				continue
			}
			for r := range hashes {
				if hashes[r] != ref[r] {
					t.Fatalf("%s: rank %d slab hash differs between schedulers", mc.name, r)
				}
			}
		}
	}
}

// TestTransposerRoundTripEveryDivisor: for every rank count that slab-
// decomposes the matrix — powers of two, odd counts, the pairwise and
// the Bruck side of AlgAuto — T followed by the inverse T returns each
// rank's slab bit for bit, and the forward slab is the serial
// transpose's. Each pair of transposers runs twice, the second time on
// its own recycled blocks.
func TestTransposerRoundTripEveryDivisor(t *testing.T) {
	for _, shape := range [][2]int{{24, 36}, {32, 48}} {
		rows, cols := shape[0], shape[1]
		in := fillMatrix(rows, cols)
		ser, err := NewTransposer(rows, cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, cols*rows)
		ser.Transpose(in, want)
		for p := 2; p <= rows; p++ {
			if rows%p != 0 || cols%p != 0 {
				continue
			}
			rloc, cloc := rows/p, cols/p
			_, _, err := simnet.Run(p, machine.Muses().Net, func(n *simnet.Node) {
				comm := mpi.World(n)
				fwd, err := NewTransposer(rows, cols, comm)
				if err != nil {
					panic(err)
				}
				inv, err := NewTransposer(cols, rows, comm)
				if err != nil {
					panic(err)
				}
				mine := in[n.Rank*rloc*cols : (n.Rank+1)*rloc*cols]
				out := make([]complex128, cloc*rows)
				back := make([]complex128, rloc*cols)
				for round := 0; round < 2; round++ {
					fwd.Transpose(mine, out)
					inv.Transpose(out, back)
					for i, v := range out {
						if v != want[n.Rank*cloc*rows+i] {
							panic(fmt.Sprintf("%dx%d p=%d rank %d round %d: forward slab differs from the serial transpose at %d", rows, cols, p, n.Rank, round, i))
						}
					}
					for i, v := range back {
						if v != mine[i] {
							panic(fmt.Sprintf("%dx%d p=%d rank %d round %d: round trip differs at %d", rows, cols, p, n.Rank, round, i))
						}
					}
				}
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}
