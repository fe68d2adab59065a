package spectral

import (
	"fmt"

	"nektar/internal/fft"
	"nektar/internal/mpi"
	"nektar/internal/timing"
)

// Plan2D is a slab-decomposed 2D FFT on an N x N periodic grid. The
// spectral representation holds unnormalized DFT coefficients
// what[ky][kx] distributed by contiguous bands of ky rows; the physical
// representation holds real samples w[x][y] distributed by bands of x
// rows. A round trip Forward(Inverse(spec)) reproduces spec because the
// inverse row transforms carry the 1/N normalization.
//
// Physical fields are real, and the plan does only the work real
// fields need. Going physical, two Hermitian spectra share one complex
// transform (InversePair/InversePadPair): z = a + i*b transforms to
// A + i*B with A and B both real, so the real part is one field and
// the imaginary part the other. Coming back, the first stage
// transforms real rows with a half-length real-input plan and fills
// the other half of each row by conjugate symmetry. A solver step is
// three 2-D transforms — two paired inverses and one forward for the
// convective form, one paired inverse and two forwards for Basdevant's
// — and three distributed transposes. The forward direction is not
// paired: untangling two packed fields needs row -ky beside row ky,
// and in the slab layout that row lives on another rank.
//
// The padded pipeline (InversePad/ForwardPad) implements 3/2-rule
// de-aliasing by zero-extension: spectra are padded to an M x M grid
// before going physical, so quadratic products formed there alias only
// into modes the truncation back to N discards. The grid is the exact
// bound M = 3N/2: for retained modes |k| <= N/2 - 1 a product reaches
// |k| <= N - 2, and wrapping by M sends it to k - M <= -N/2 - 2,
// outside the retained band — no resolved mode is ever polluted (a 2N
// grid would do a third more padded work for the same result; the A/B
// is recorded in EXPERIMENTS.md). Both kx = N/2 and
// ky = N/2 Nyquist lines are dropped by the pad and zeroed by the
// truncation; solvers keep them identically zero, which removes the
// +-N/2 derivative ambiguity.
type Plan2D struct {
	N int // spectral grid size (even; slab constraints below)
	M int // de-aliasing grid size (0 when the padded pipeline is off)

	// Clock, when set (the solver wires its own), prices the
	// local-computation phases of each transform. The distributed
	// transposes run outside its brackets, so communication time is
	// never charged as compute.
	Clock *timing.Clock

	comm *mpi.Comm
	p    int
	nloc int // N/p: spectral ky rows and physical x rows per rank
	mloc int // M/p: padded physical rows per rank

	planN, planM *fft.Plan
	realN, realM *fft.RealPlan // first stage of Forward/ForwardPad: real rows
	tNN          *Transposer   // N x N, both directions of the unpadded path
	tNM          *Transposer   // N ky-rows -> M padded-x rows
	tMN          *Transposer   // M padded-x rows -> N ky-rows

	// Reused pipeline slabs (see InversePair/InversePadPair for the
	// stations). The forward pipelines stage their half-complex rows in
	// the head of the slab the transpose overwrites next (sa, resp. sd).
	sa []complex128 // nloc x N
	sb []complex128 // nloc x N / nloc x M (padded)
	sc []complex128 // mloc x N
	sd []complex128 // mloc x M
}

// NewPlan2D builds the plan for an n x n grid over comm (nil = serial).
// padded adds the exact-3/2 de-aliasing pipeline on M = 3N/2. The grid
// and the rank count must pass the solvers' rule (see Config.Check).
func NewPlan2D(n int, padded bool, comm *mpi.Comm) (*Plan2D, error) {
	pl := &Plan2D{N: n, comm: comm, p: 1}
	if comm != nil {
		pl.p = comm.Size()
	}
	if p := gridProblem(n, padded, pl.p); p != "" {
		return nil, fmt.Errorf("spectral: %s", p)
	}
	pl.nloc = n / pl.p
	var err error
	if pl.planN, err = fft.NewPlan(n); err != nil {
		return nil, err
	}
	if pl.realN, err = fft.NewRealPlan(n); err != nil {
		return nil, err
	}
	if pl.tNN, err = NewTransposer(n, n, comm); err != nil {
		return nil, err
	}
	pl.sa = make([]complex128, pl.nloc*n)
	if !padded {
		pl.sb = make([]complex128, pl.nloc*n)
		return pl, nil
	}
	pl.M = 3 * n / 2
	pl.mloc = pl.M / pl.p
	if pl.planM, err = fft.NewPlan(pl.M); err != nil {
		return nil, err
	}
	if pl.realM, err = fft.NewRealPlan(pl.M); err != nil {
		return nil, err
	}
	if pl.tNM, err = NewTransposer(n, pl.M, comm); err != nil {
		return nil, err
	}
	if pl.tMN, err = NewTransposer(pl.M, n, comm); err != nil {
		return nil, err
	}
	pl.sb = make([]complex128, pl.nloc*pl.M)
	pl.sc = make([]complex128, pl.mloc*n)
	pl.sd = make([]complex128, pl.mloc*pl.M)
	return pl, nil
}

// PadRows returns the per-rank row count of the padded physical slab.
func (pl *Plan2D) PadRows() int { return pl.mloc }

// PadTransposeBytes returns the global Alltoall payload, in bytes,
// moved by one padded half-transform (InversePad, InversePadPair or
// ForwardPad): an N x M complex matrix.
func (pl *Plan2D) PadTransposeBytes() int64 { return 16 * int64(pl.N) * int64(pl.M) }

// pack writes z = a + i*b into dst: the one complex sequence whose
// inverse transform carries the field of a in its real part and the
// field of b in its imaginary part. A nil b leaves z = a.
func pack(dst, a, b []complex128) {
	if b == nil {
		copy(dst, a)
		return
	}
	b = b[:len(a)]
	for j, av := range a {
		dst[j] = complex(real(av)-imag(b[j]), imag(av)+real(b[j]))
	}
}

// unpack reads the physical fields out of a transformed slab: the real
// part times scale into physA and, for a packed pair, the imaginary
// part times scale into physB.
func unpack(z []complex128, scale float64, physA, physB []float64) {
	if physB == nil {
		for i, v := range z {
			physA[i] = real(v) * scale
		}
		return
	}
	physA, physB = physA[:len(z)], physB[:len(z)]
	for i, v := range z {
		physA[i] = real(v) * scale
		physB[i] = imag(v) * scale
	}
}

// padRow zero-extends the length-N spectral line a + i*b (nil b: a
// alone) to length M, preserving wavenumber identity: modes k in
// [0, N/2) keep their index, negative modes k in (-N/2, 0) move to the
// tail slots M+k, and the Nyquist line N/2 is dropped. The map needs
// only M >= N: out[h] through out[M-h] (the fine grid's own high modes)
// stay zero.
func padRow(a, b, out []complex128, n, m int) {
	h := n / 2
	pack(out[:h], a[:h], sub(b, 0, h))
	clear(out[h : m-h+1])
	pack(out[m-h+1:], a[h+1:], sub(b, h+1, n))
}

// sub is x[lo:hi] of an optional slab: nil stays nil.
func sub(x []complex128, lo, hi int) []complex128 {
	if x == nil {
		return nil
	}
	return x[lo:hi]
}

// truncRow inverts padRow: it keeps the modes the N grid resolves —
// in[:h] and the tail in[m-h+1:], which hold k in [0, h) and (-h, 0)
// for any M >= N — and zeroes the Nyquist line.
func truncRow(in, out []complex128, n, m int) {
	h := n / 2
	copy(out[:h], in[:h])
	out[h] = 0
	copy(out[h+1:], in[m-h+1:])
}

// hermRow expands r, the half-complex spectrum of a real row, to the
// n = len(out) lowest modes of its full spectrum: out[:h+1] = r[:h+1]
// and the negative modes by conjugate symmetry, out[j] = conj(r[n-j]).
// r may be the half spectrum of a longer row (the padded grid's), in
// which case this is also the truncation to the N-grid band.
func hermRow(r, out []complex128) {
	n := len(out)
	h := n / 2
	copy(out[:h+1], r)
	for j := h + 1; j < n; j++ {
		v := r[n-j]
		out[j] = complex(real(v), -imag(v))
	}
}

// Inverse transforms a spectral slab (nloc x N, ky rows) to physical
// samples (nloc x N, x rows). Solvers evolve Hermitian-symmetric
// spectra, so the imaginary residue is roundoff; discarding it is what
// keeps quadratic terms real.
func (pl *Plan2D) Inverse(spec []complex128, phys []float64) {
	pl.InversePair(spec, nil, phys, nil)
}

// InversePair takes two spectral slabs physical in one transform:
// pack z = a + i*b, inverse row FFTs along kx, a distributed transpose,
// inverse row FFTs along ky, then physA from the real part and physB
// from the imaginary part. Hermitian spectra only: the anti-Hermitian
// part of a transforms to an imaginary field, which Inverse discards
// and the pair form delivers into physB (and b's into physA, negated).
// With specB and physB nil it is Inverse.
func (pl *Plan2D) InversePair(specA, specB []complex128, physA, physB []float64) {
	n, nloc := pl.N, pl.nloc
	sb := pl.sb[:nloc*n]
	pl.Clock.BeginCompute()
	pack(pl.sa, specA, specB)
	if specB != nil {
		recordPointwise(nloc * n)
	}
	pl.planN.Many(pl.sa, nloc, true)
	pl.Clock.EndCompute()
	pl.tNN.Transpose(pl.sa, sb)
	pl.Clock.BeginCompute()
	pl.planN.Many(sb, nloc, true)
	unpack(sb, 1, physA, physB)
	pl.Clock.EndCompute()
}

// Forward transforms a physical slab (nloc x N, x rows) to spectral
// coefficients (nloc x N, ky rows): real-input row FFTs along y, each
// row completed by conjugate symmetry, a distributed transpose, forward
// row FFTs along x.
func (pl *Plan2D) Forward(phys []float64, spec []complex128) {
	n, nloc := pl.N, pl.nloc
	hc := n/2 + 1
	sb := pl.sb[:nloc*n]
	half := pl.sa[:nloc*hc]
	pl.Clock.BeginCompute()
	pl.realN.ManyReal(phys, half, nloc, false)
	for i := 0; i < nloc; i++ {
		hermRow(half[i*hc:(i+1)*hc], sb[i*n:(i+1)*n])
	}
	pl.Clock.EndCompute()
	pl.tNN.Transpose(sb, pl.sa)
	pl.Clock.BeginCompute()
	pl.planN.Many(pl.sa, nloc, false)
	copy(spec, pl.sa)
	pl.Clock.EndCompute()
}

// InversePad is the de-aliasing half-transform: an nloc x N spectral
// slab comes out as mloc x M physical samples of the same field on the
// fine grid.
func (pl *Plan2D) InversePad(spec []complex128, phys []float64) {
	pl.InversePadPair(spec, nil, phys, nil)
}

// InversePadPair is InversePair on the de-aliasing grid: the packed
// rows are zero-extended to M before each stage's transforms, and two
// nloc x N spectral slabs come out as mloc x M physical samples each.
// The (M/N)^2 factor converts the N-grid DFT normalization to the
// M-grid one, so the outputs hold true field values. Hermitian spectra
// only, as for InversePair; with specB and physB nil it is InversePad.
func (pl *Plan2D) InversePadPair(specA, specB []complex128, physA, physB []float64) {
	n, m, nloc, mloc := pl.N, pl.M, pl.nloc, pl.mloc
	pl.Clock.BeginCompute()
	for i := 0; i < nloc; i++ {
		padRow(specA[i*n:(i+1)*n], sub(specB, i*n, (i+1)*n), pl.sb[i*m:(i+1)*m], n, m)
	}
	if specB != nil {
		recordPointwise(nloc * n)
	}
	pl.planM.Many(pl.sb, nloc, true)
	pl.Clock.EndCompute()
	pl.tNM.Transpose(pl.sb, pl.sc)
	pl.Clock.BeginCompute()
	for i := 0; i < mloc; i++ {
		padRow(pl.sc[i*n:(i+1)*n], nil, pl.sd[i*m:(i+1)*m], n, m)
	}
	pl.planM.Many(pl.sd, mloc, true)
	unpack(pl.sd, float64(m*m)/float64(n*n), physA, physB)
	pl.Clock.EndCompute()
}

// ForwardPad closes the de-aliased product path: mloc x M physical
// samples (typically a pointwise product of InversePadPair outputs)
// come back as an nloc x N spectral slab, with everything beyond the
// N-grid band truncated away and the normalization converted back by
// (N/M)^2. The first stage is real-input: each row's half spectrum is
// truncated and completed by conjugate symmetry in one fill, so the
// slab is exactly conjugate-symmetric in ky before it is transposed.
func (pl *Plan2D) ForwardPad(phys []float64, spec []complex128) {
	n, m, nloc, mloc := pl.N, pl.M, pl.nloc, pl.mloc
	hc := m/2 + 1
	half := pl.sd[:mloc*hc]
	pl.Clock.BeginCompute()
	pl.realM.ManyReal(phys, half, mloc, false)
	for i := 0; i < mloc; i++ {
		out := pl.sc[i*n : (i+1)*n]
		hermRow(half[i*hc:(i+1)*hc], out)
		out[n/2] = 0
	}
	pl.Clock.EndCompute()
	pl.tMN.Transpose(pl.sc, pl.sb)
	scale := complex(float64(n*n)/float64(m*m), 0)
	pl.Clock.BeginCompute()
	pl.planM.Many(pl.sb, nloc, false)
	for i := 0; i < nloc; i++ {
		row := pl.sb[i*m : (i+1)*m]
		out := spec[i*n : (i+1)*n]
		truncRow(row, out, n, m)
		for j := range out {
			out[j] *= scale
		}
	}
	pl.Clock.EndCompute()
}
