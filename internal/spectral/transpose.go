// Package spectral implements slab-parallel pseudospectral solvers for
// two-dimensional homogeneous turbulence on the simulated cluster: a
// decaying solver (PAO random-field initialization, 3/2-rule
// de-aliasing, Crank–Nicolson viscous step) and a white-noise-forced
// variant using the Basdevant 4-FFT-per-stage nonlinear term. Both
// implement engine.Solver, so checkpointing, corruption-aware recovery,
// the health watchdog, and the job farm come for free.
//
// The parallel decomposition is the classic slab transpose: each rank
// owns a contiguous band of spectral rows, one-dimensional FFTs run
// locally along the in-rank direction, and a distributed matrix
// transpose over MPI_Alltoall rotates the decomposition so the other
// direction becomes local. This gives the repository a second genuine
// Alltoall-dominated application beyond Nektar-F — the communication
// pattern the source paper's weak-scaling argument lives or dies on.
package spectral

import (
	"fmt"

	"nektar/internal/mpi"
)

// Transposer redistributes a row-decomposed Rows x Cols complex matrix
// into the row decomposition of its transpose (Cols x Rows). Each of
// the P ranks owns Rows/P contiguous rows of the input and Cols/P
// contiguous rows of the output. A nil communicator gives the serial
// fallback (P = 1): a plain local transpose, bit-identical to what the
// distributed path assembles, which is what the serial-vs-slab
// differential tests compare against.
//
// The exchange is one MPI_Alltoall of equal blocks: rank r sends rank j
// the sub-block (r's rows) x (j's output rows), packed column-major so
// the receiver scatters incoming blocks straight into its output rows.
// The transposer owns both sides of the exchange — the per-destination
// pack blocks and the per-source receive blocks it scatters from — and
// hands them to mpi.AlltoallInto, so a steady-state transpose allocates
// nothing.
type Transposer struct {
	Rows, Cols int // global matrix shape (input rows are distributed)

	comm       *mpi.Comm
	p, rank    int
	rloc, cloc int // Rows/p and Cols/p

	send, recv [][]float64 // per-destination pack and per-source receive blocks
}

// NewTransposer validates the decomposition and builds a transposer.
// Both dimensions must divide evenly over the communicator size; with a
// nil communicator the transposer is serial.
func NewTransposer(rows, cols int, comm *mpi.Comm) (*Transposer, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("spectral: transposer needs positive dimensions, got %dx%d", rows, cols)
	}
	t := &Transposer{Rows: rows, Cols: cols, comm: comm, p: 1}
	if comm != nil {
		t.p, t.rank = comm.Size(), comm.Rank()
	}
	if rows%t.p != 0 || cols%t.p != 0 {
		return nil, fmt.Errorf("spectral: %dx%d matrix does not slab-decompose over %d ranks (both dimensions must divide evenly)",
			rows, cols, t.p)
	}
	t.rloc, t.cloc = rows/t.p, cols/t.p
	if t.p > 1 {
		t.send, t.recv = make([][]float64, t.p), make([][]float64, t.p)
		for j := range t.send {
			t.send[j] = make([]float64, 2*t.rloc*t.cloc)
			t.recv[j] = make([]float64, 2*t.rloc*t.cloc)
		}
	}
	return t, nil
}

// Transpose redistributes in (this rank's rloc x Cols slab, row-major)
// into out (this rank's cloc x Rows slab of the transposed matrix).
// The two slices must not alias.
func (t *Transposer) Transpose(in, out []complex128) {
	if len(in) != t.rloc*t.Cols || len(out) != t.cloc*t.Rows {
		panic(fmt.Sprintf("spectral: transpose slab sizes %d/%d, want %d/%d",
			len(in), len(out), t.rloc*t.Cols, t.cloc*t.Rows))
	}
	if t.p == 1 {
		// Tile by tile (4 KiB read, 4 KiB written, inside any L1), with
		// the strided side on the reads: a power-of-two Rows or Cols puts
		// a tile's strided lines in one cache set, which loads ride out
		// and stores do not.
		const tile = 16
		for j0 := 0; j0 < t.Cols; j0 += tile {
			j1 := min(j0+tile, t.Cols)
			for i0 := 0; i0 < t.Rows; i0 += tile {
				i1 := min(i0+tile, t.Rows)
				for j := j0; j < j1; j++ {
					dst := out[j*t.Rows+i0 : j*t.Rows+i1]
					for i := range dst {
						dst[i] = in[(i0+i)*t.Cols+j]
					}
				}
			}
		}
		return
	}
	// Pack: block for rank j holds my rows restricted to j's output
	// rows (columns j*cloc..), column-major so the receive side scatters
	// rows contiguously.
	for j := 0; j < t.p; j++ {
		buf := t.send[j]
		for cl := 0; cl < t.cloc; cl++ {
			c := j*t.cloc + cl
			for i := 0; i < t.rloc; i++ {
				v := in[i*t.Cols+c]
				buf[2*(cl*t.rloc+i)] = real(v)
				buf[2*(cl*t.rloc+i)+1] = imag(v)
			}
		}
	}
	t.comm.AlltoallInto(t.send, t.recv, mpi.AlgAuto)
	// Scatter: the block from rank src covers output columns
	// src*rloc..(src+1)*rloc of every one of my cloc output rows.
	for src := 0; src < t.p; src++ {
		buf := t.recv[src]
		for cl := 0; cl < t.cloc; cl++ {
			dst := out[cl*t.Rows+src*t.rloc:]
			for i := 0; i < t.rloc; i++ {
				dst[i] = complex(buf[2*(cl*t.rloc+i)], buf[2*(cl*t.rloc+i)+1])
			}
		}
	}
}
