package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"time"

	"nektar/internal/engine"
	"nektar/internal/machine"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// dnsShape is the problem both DNS workloads solve: the same decaying
// turbulence run, serial and slab-decomposed, so the gap between the
// two is pure layering.
type dnsShape struct {
	n, p int
}

func dnsShapeFor(p params) dnsShape {
	if p.quick {
		return dnsShape{n: 32, p: 4}
	}
	return dnsShape{n: 256, p: 16}
}

// dnsDt is the time step of both DNS workloads. At the 2e-3 the
// registered demonstration workloads use, the 256^2 run reaches an
// advective CFL number near 1 on the padded grid and turns to NaN
// between steps 80 and 120 — every later step would then time
// arithmetic on garbage. A quarter of that stays finite and decaying
// over the whole window, which the energy checks confirm on every run.
// Step cost does not depend on the value.
const dnsDt = 5e-4

func dnsConfig(n int, seed uint64) spectral.Config {
	return spectral.Config{N: n, Re: 500, Dt: dnsDt, Seed: seed}
}

// hashSlab digests the exact bits of a spectral slab.
func hashSlab(w []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf folds per-rank state hashes and the ranks' virtual clocks
// into one digest of where a cluster cycle ended.
func digestOf(hashes []string, clocks []float64) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
	}
	var b [8]byte
	for _, c := range clocks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corruptHash, set by the test suite only, flips one reference hash so
// the failure path of the correctness checks can be exercised.
var corruptHash bool

func maybeCorrupt(h string) string {
	if corruptHash {
		return "corrupted-" + h
	}
	return h
}

// slabEnergy sums kinetic energy and enstrophy over a band of ky rows
// starting at global row row0 (unnormalised DFT coefficients, so the
// per-mode energy is |w|^2 / (2 k^2 N^4)).
func slabEnergy(w []complex128, n, row0 int) (energy, enstrophy float64) {
	norm := 1 / (float64(n) * float64(n) * float64(n) * float64(n))
	kAt := func(j int) int {
		if j <= n/2 {
			return j
		}
		return j - n
	}
	for i := 0; i < len(w)/n; i++ {
		ky := kAt(row0 + i)
		for j := 0; j < n; j++ {
			kx := kAt(j)
			k2 := float64(kx*kx + ky*ky)
			if k2 == 0 {
				continue
			}
			v := w[i*n+j]
			w2 := (real(v)*real(v) + imag(v)*imag(v)) * norm
			energy += w2 / (2 * k2)
			enstrophy += w2 / 2
		}
	}
	return energy, enstrophy
}

// decayCheck verifies the physics of a decaying run from energies
// sampled at step boundaries: all finite and never increasing.
func decayCheck(label string, e []float64) check {
	for i, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return checkf(label, false, "energy sample %d is %g", i, v)
		}
		if i > 0 && v > e[i-1] {
			return checkf(label, false, "energy rose from %.12g to %.12g between samples %d and %d", e[i-1], v, i-1, i)
		}
	}
	return checkf(label, true, "energy %.9g -> %.9g over %d samples", e[0], e[len(e)-1], len(e))
}

// serialReference steps a fresh serial solver and returns its field,
// for the bit-identity check of the slab run.
func serialReference(cfg spectral.Config, steps int) ([]complex128, error) {
	s, err := spectral.NewTurb2D(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		s.Step()
	}
	return s.Field(), nil
}

// dnsSerialCycle is the plain single-threaded baseline: no
// communicator, so mpi and simnet do nothing. Its bit-identity check is
// the digest: every cycle builds a solver of its own and must end on
// the same bits.
func dnsSerialCycle(p params, c cycleSpec) (*cycleResult, error) {
	shape := dnsShapeFor(p)
	cfg := dnsConfig(shape.n, p.seed)
	t0 := time.Now()
	s, err := spectral.NewTurb2D(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	res := &cycleResult{setup: time.Since(t0)}
	if c.timed == 0 {
		return res, nil
	}
	e0, _ := slabEnergy(s.Field(), shape.n, 0)
	for i := 0; i < c.warm; i++ {
		s.Step()
	}
	e1, _ := slabEnergy(s.Field(), shape.n, 0)
	runtime.GC() // as on the cluster: every cycle's timed steps start from the same heap

	res.opMS = make([]float64, c.timed)
	for i := range res.opMS {
		c.speed.sample(1)
		t0 := time.Now()
		stepOp(s, c.tr, "dns_serial", i)
		res.opMS[i] = millis(time.Since(t0))
	}
	res.rate = serialRate(res.opMS)
	end := s.Field()
	e2, _ := slabEnergy(end, shape.n, 0)
	res.digest = hashSlab(end)
	res.checks = []check{decayCheck("dns_serial.energy_decays", []float64{e0, e1, e2})}
	return res, nil
}

// slabSolver builds one rank of the slab-decomposed DNS.
func slabSolver(cfg spectral.Config) func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
	return func(comm *mpi.Comm, cpu *machine.CPU) (engine.Solver, error) {
		return spectral.NewTurb2D(cfg, comm, cpu)
	}
}

// dnsSlabCycle runs the same problem slab-decomposed over the simulated
// cluster under the serial scheduler.
func dnsSlabCycle(p params, c cycleSpec) (*cycleResult, error) {
	shape := dnsShapeFor(p)
	cfg := dnsConfig(shape.n, p.seed)
	nloc := shape.n / shape.p
	hashes := make([]string, shape.p)
	eWarm := make([]float64, shape.p)
	eEnd := make([]float64, shape.p)
	run := clusterRun{
		label: "dns_slab", p: shape.p, sched: simnet.SchedSerial, warm: c.warm, timed: c.timed, tr: c.tr, speed: c.speed, speedReps: 1,
		mk: slabSolver(cfg),
		afterWarm: func(rank int, s engine.Solver) {
			eWarm[rank], _ = slabEnergy(s.(*spectral.Turb2D).Field(), shape.n, rank*nloc)
		},
		atEnd: func(rank int, s engine.Solver) {
			f := s.(*spectral.Turb2D).Field()
			hashes[rank] = hashSlab(f)
			eEnd[rank], _ = slabEnergy(f, shape.n, rank*nloc)
		},
	}
	cr, err := run.run()
	if err != nil {
		return nil, err
	}
	res := &cycleResult{setup: cr.setup, cluster: cr}
	if c.timed == 0 {
		return res, nil
	}
	res.opMS, res.rate = cr.opMS, serialRate(cr.opMS)
	res.digest = digestOf(hashes, cr.clocks)
	sum := func(v []float64) (t float64) {
		for _, x := range v {
			t += x
		}
		return t
	}
	res.checks = []check{decayCheck("dns_slab.energy_decays", []float64{sum(eWarm), sum(eEnd)})}
	if !c.verify {
		return res, nil
	}

	// Bit identity against the serial run of the same inputs, slab for
	// slab: the decomposition may move data, never change it.
	steps := c.warm + c.timed
	ref, err := serialReference(cfg, steps)
	if err != nil {
		return nil, err
	}
	bad := -1
	for r := shape.p - 1; r >= 0; r-- {
		if hashes[r] != maybeCorrupt(hashSlab(ref[r*nloc*shape.n:(r+1)*nloc*shape.n])) {
			bad = r
		}
	}
	res.checks = append(res.checks, checkf("dns_slab.slabs_bit_equal_serial", bad < 0,
		"per-rank slab hashes after %d steps against the serial field (first mismatching rank: %d)", steps, bad))
	return res, nil
}
