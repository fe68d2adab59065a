package engine_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"nektar/internal/core"
	"nektar/internal/engine"
	"nektar/internal/farm"
	"nektar/internal/mesh"
	"nektar/internal/mpi"
	"nektar/internal/simnet"
	"nektar/internal/spectral"
)

// Mirrors of the five solver state types. The layout fingerprint covers
// field names and kinds, not the type's name, so a real solver's stream
// decodes into its mirror exactly as long as the two agree: a state
// type that drifts fails every test below until its mirror follows.
type (
	ns2dState struct {
		Step         int
		U            [2][]float64
		P            []float64
		HistU, HistN [][2][][]float64
	}
	nsfState struct {
		Step, K      int
		U            [3][2][]float64
		P            [2][]float64
		HistU, HistN [][3][2][][]float64
	}
	aleState struct {
		Step         int
		Time         float64
		Rank, Size   int
		U            [3][]float64
		Pr           []float64
		HistU, HistN [][3][][]float64
		Verts        [][3]float64
	}
	turbState struct {
		Step, Rank, Size, N int
		Forced              bool
		W, PrevN            []complex128
	}
	spinState struct {
		Step  int
		Lanes [16]uint64
	}
)

// mirrors allocates one empty mirror per state type, keyed like
// solverStreams.
func mirrors() map[string]any {
	return map[string]any{
		"ns2d": new(ns2dState), "nsf": new(nsfState), "nsale": new(aleState),
		"turb2d": new(turbState), "spin": new(spinState),
	}
}

const streamSteps = 3

// solverStreams builds the smallest instance of each solver, steps it
// far enough to fill the multistep histories, and marshals it.
func solverStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	keep := func(name string, s engine.Solver, err error) {
		if err != nil {
			panic(err)
		}
		for i := 0; i < streamSteps; i++ {
			s.Step()
		}
		if out[name], err = engine.Marshal(s); err != nil {
			panic(err)
		}
	}
	m2, err := mesh.RectQuad(2, 2, 1, 0, 2, -1, 1, func(x, y, z float64) string {
		if x <= 1e-9 {
			return "inflow"
		}
		return "outflow"
	})
	if err != nil {
		tb.Fatal(err)
	}
	m3, err := mesh.BoxHex(2, 1, 1, 1, 0, 1, 0, 1, 0, 1, func(x, y, z float64) string { return "farfield" })
	if err != nil {
		tb.Fatal(err)
	}
	inflow := map[string]core.VelBC{"inflow": core.ConstantVel(1, 0)}
	outflow := map[string]bool{"outflow": true}
	net := &simnet.Model{Name: "test", Inter: simnet.LinkModel{LatencyUS: 10, BandwidthMBs: 100, OverheadUS: 1}}
	_, _, err = simnet.Run(1, net, func(n *simnet.Node) {
		comm := mpi.World(n)
		ns2d, err := core.NewNS2D(m2, core.NS2DConfig{Nu: 0.1, Dt: 1e-3, Order: 2,
			VelDirichlet: inflow, PresDirichlet: outflow})
		keep("ns2d", ns2d, err)
		nsf, err := core.NewNSF(m2, core.NSFConfig{Nu: 0.1, Dt: 1e-3, Order: 2, Lz: 2 * math.Pi,
			VelDirichlet: inflow, PresDirichlet: outflow}, comm, nil)
		keep("nsf", nsf, err)
		ale, err := core.NewNSALE(m3, core.ALEConfig{Nu: 0.05, Dt: 1e-2, Order: 2,
			FarfieldVel: [3]float64{1, 0, 0}}, comm, nil)
		keep("nsale", ale, err)
	})
	if err != nil {
		tb.Fatal(err)
	}
	turb, err := spectral.NewForced(spectral.Config{N: 16, Re: 100, Dt: 1e-3, Seed: 3}, nil, nil)
	keep("turb2d", turb, err)
	keep("spin", farm.NewSpinSolver(7, 8), nil)
	return out
}

func decode(b []byte, st any) error { return engine.DecodeState(bytes.NewReader(b), st) }

// Every solver's stream decodes into its state layout and encodes back
// to the same bytes.
func TestStateRoundTripAllTypes(t *testing.T) {
	streams := solverStreams(t)
	for name, st := range mirrors() {
		if err := decode(streams[name], st); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var back bytes.Buffer
		if err := engine.EncodeState(&back, st); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(back.Bytes(), streams[name]) {
			t.Errorf("%s: %d-byte stream re-encodes to %d different bytes", name, len(streams[name]), back.Len())
		}
	}
	var turb turbState
	if err := decode(streams["turb2d"], &turb); err != nil {
		t.Fatal(err)
	}
	if turb.Step != streamSteps || turb.N != 16 || !turb.Forced || len(turb.W) == 0 || turb.W[1] == 0 {
		t.Errorf("turb2d state decoded to step %d, N %d, forced %v, %d modes", turb.Step, turb.N, turb.Forced, len(turb.W))
	}
}

// The same bytes are refused by a state type whose layout differs in
// one field name, and by every other solver's state type.
func TestDecodeStateRejectsOtherLayout(t *testing.T) {
	streams := solverStreams(t)
	var renamed struct {
		Steps int
		Lanes [16]uint64
	}
	err := decode(streams["spin"], &renamed)
	if err == nil || !strings.Contains(err.Error(), "decoding checkpoint") || !strings.Contains(err.Error(), "layout") {
		t.Errorf("renamed field: got %v, want a decoding checkpoint: … layout error", err)
	}
	for from, b := range streams {
		for into, st := range mirrors() {
			if err := decode(b, st); (err == nil) != (from == into) {
				t.Errorf("%s stream into %s state: %v", from, into, err)
			}
		}
	}
}

// Damaged streams fail with the named reason and never allocate what a
// hostile length word asks for.
func TestDecodeStateRejectsDamage(t *testing.T) {
	streams := solverStreams(t)
	spin, ns2d := streams["spin"], streams["ns2d"]
	for cut := 0; cut < len(spin); cut++ {
		if err := decode(spin[:cut], new(spinState)); err == nil {
			t.Fatalf("%d of %d bytes decoded without error", cut, len(spin))
		}
	}
	edit := func(b []byte, at int, v byte) []byte {
		b = bytes.Clone(b)
		b[at] = v
		return b
	}
	// The first length word of an ns2d stream follows header and Step.
	hostile := bytes.Clone(ns2d)
	binary.LittleEndian.PutUint64(hostile[13+8:], 1<<60)
	for _, tc := range []struct {
		name, want string
		b          []byte
		st         any
	}{
		{"trailing byte", "trailing", append(bytes.Clone(spin), 0), new(spinState)},
		{"bad magic", "magic", edit(spin, 0, 'X'), new(spinState)},
		{"next version", "version 2", edit(spin, 4, 2), new(spinState)},
		{"hostile length", "bytes left", hostile, new(ns2dState)},
		{"bool word 2", "bool", edit(streams["turb2d"], 13+4*8, 2), new(turbState)},
		{"not a pointer", "pointer", spin, spinState{}},
	} {
		err := decode(tc.b, tc.st)
		if err == nil || !strings.Contains(err.Error(), "decoding checkpoint") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a decoding checkpoint: … %s error", tc.name, err, tc.want)
		}
	}
}

// Kinds the format does not carry are refused when encoding, by name.
func TestEncodeStateRejectsUnsupportedKinds(t *testing.T) {
	for _, st := range []any{
		&struct{ Name string }{}, &struct{ M map[int]int }{}, &struct{ X float32 }{},
		&struct{ hidden int }{}, &struct{ Empty []struct{} }{}, new(string),
	} {
		err := engine.EncodeState(new(bytes.Buffer), st)
		if err == nil || !strings.Contains(err.Error(), "encoding checkpoint") {
			t.Errorf("%T: got %v, want an encoding checkpoint error", st, err)
		}
	}
}

// FuzzDecodeState: for any input and any state type, DecodeState does
// not panic, allocates in proportion to the input, and either fails or
// has read a stream that encodes back to exactly the input.
func FuzzDecodeState(f *testing.F) {
	for _, b := range solverStreams(f) {
		for _, cut := range []int{len(b), len(b) - 1, len(b) / 2, 13 + 8, 13, 5} {
			f.Add(b[:cut])
		}
	}
	// The costliest stream the length bound admits: an nsf state whose
	// HistU (144-byte levels of six empty slices) claims every byte left.
	var empty bytes.Buffer
	if err := engine.EncodeState(&empty, new(nsfState)); err != nil {
		f.Fatal(err)
	}
	greedy := append(empty.Bytes(), make([]byte, 1<<12)...)
	histU := 13 + (2+6+2)*8
	binary.LittleEndian.PutUint64(greedy[histU:], uint64(len(greedy)-histU-8)/48)
	f.Add(greedy)
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, st := range mirrors() {
			// The decoder counts the bytes of every slice it makes, the
			// only allocation that grows with what a stream claims: that
			// count, for this call alone, must stay under 16x the input.
			// The process-wide TotalAlloc would stop the world per decode
			// and count whatever else the fuzz worker allocates.
			got, err := engine.DecodeStateMade(bytes.NewReader(data), st)
			if limit := uint64(16*len(data) + 1<<12); got > limit {
				t.Fatalf("%s: decoding %d bytes allocated %d", name, len(data), got)
			}
			if err != nil {
				continue
			}
			var back bytes.Buffer
			if err := engine.EncodeState(&back, st); err != nil {
				t.Fatalf("%s: decoded state does not encode: %v", name, err)
			}
			if !bytes.Equal(back.Bytes(), data) {
				t.Fatalf("%s: accepted a %d-byte stream that re-encodes differently", name, len(data))
			}
		}
	})
}
