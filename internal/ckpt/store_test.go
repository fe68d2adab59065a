package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func payload(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%31)
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	state := payload(3, 10_000)
	m := Meta{Kind: "nsf", Rank: 7, Step: 1200}
	frame, err := EncodeRecord(m, state)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(state) {
		t.Fatalf("repetitive payload did not compress: %d -> %d", len(state), len(frame))
	}
	got, back, err := DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("meta %+v != %+v", got, m)
	}
	if !bytes.Equal(back, state) {
		t.Fatal("payload did not round-trip")
	}
}

// corruptFrames is the damage matrix shared by the corruption test
// and the fuzz seeds: torn and bit-flipped copies of a valid frame,
// plus CRC-valid frames no writer produces — header fields that do not
// fit a non-negative int, and a small frame whose payload inflates far
// past the length its header declares.
func corruptFrames(t testing.TB) (valid []byte, bad map[string][]byte) {
	t.Helper()
	frame, err := EncodeRecord(Meta{Kind: "ns2d", Rank: 0, Step: 4}, payload(9, 4096))
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(magic) + 2 + len("ns2d")
	// reseal overwrites the 8-byte header field at off and recomputes
	// the trailer, so only the field itself is wrong.
	reseal := func(f []byte, off int, v uint64) []byte {
		out := append([]byte(nil), f...)
		binary.BigEndian.PutUint64(out[off:], v)
		binary.BigEndian.PutUint32(out[len(out)-trailerLen:], crc32.ChecksumIEEE(out[:len(out)-trailerLen]))
		return out
	}
	bomb, err := EncodeRecord(Meta{Kind: "ns2d", Rank: 0, Step: 4}, make([]byte, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	return frame, map[string][]byte{
		"truncated":       frame[:len(frame)/2],
		"empty":           nil,
		"flipped payload": flipBit(frame, 8*(len(frame)/2)),
		"flipped CRC":     flipBit(frame, 8*(len(frame)-2)),
		"flipped magic":   flipBit(frame, 0),
		"flipped raw len": flipBit(frame, 8*(len(magic)+2+len("ns2d")+12)),
		"doubled trailer": append(append([]byte{}, frame...), frame[len(frame)-4:]...),
		"negative step":   reseal(frame, hdr, 0x8000000000000005),
		"huge raw len":    reseal(frame, hdr+12, 1<<63),
		"inflation bomb":  reseal(bomb, hdr+12, 16),
	}
}

// The corruption matrix of the acceptance criteria: every damaged or
// forged frame must fail verification with a *CorruptError — never
// decode to wrong bytes.
func TestRecordCorruptionDetected(t *testing.T) {
	_, cases := corruptFrames(t)
	for name, bad := range cases {
		_, _, err := DecodeRecord(bad)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want *CorruptError, got %v", name, err)
		}
	}
}

func flipBit(b []byte, bit int) []byte {
	out := append([]byte(nil), b...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// stores under test share one behavior suite.
func stores(t *testing.T) map[string]Store {
	dir, err := NewDirStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "dir": dir}
}

func TestStorePutOpenListDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, step := range []int{4, 2, 6} {
				for rank := 0; rank < 3; rank++ {
					st, err := s.Put(Meta{Kind: "nsf", Rank: rank, Step: step}, payload(byte(step+rank), 2000))
					if err != nil {
						t.Fatal(err)
					}
					if st.Raw != 2000 || st.Stored <= 0 || st.Ratio() <= 1 {
						t.Fatalf("stats %+v", st)
					}
				}
			}
			steps, err := s.Steps()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(steps) != "[2 4 6]" {
				t.Fatalf("steps %v", steps)
			}
			ranks, err := s.Ranks(4)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ranks) != "[0 1 2]" {
				t.Fatalf("ranks %v", ranks)
			}
			state, m, err := s.Open(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m != (Meta{Kind: "nsf", Rank: 1, Step: 4}) || !bytes.Equal(state, payload(5, 2000)) {
				t.Fatalf("open got %+v", m)
			}
			if _, _, err := s.Open(4, 9); !errors.As(err, new(*NotFoundError)) {
				t.Fatalf("missing rank: %v", err)
			}
			if err := s.Delete(4); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Open(4, 1); !errors.As(err, new(*NotFoundError)) {
				t.Fatalf("deleted step still opens: %v", err)
			}
			if steps, _ = s.Steps(); fmt.Sprint(steps) != "[2 6]" {
				t.Fatalf("steps after delete %v", steps)
			}
		})
	}
}

// damageFrame rewrites the stored frame of (step, rank) through fn, as a
// torn write or a flipped bit on the medium would leave it.
func damageFrame(s *MemStore, step, rank int, fn func([]byte) []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames[step][rank] = fn(s.frames[step][rank])
}

// Latest must fall back past corrupt and incomplete steps to the
// newest step where every rank verifies — and report emptiness, not an
// error, for a store with nothing usable.
func TestLatestFallsBackPastCorruption(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated":       func(f []byte) []byte { return f[:len(f)*3/4] },
		"flipped payload": func(f []byte) []byte { return flipBit(f, 8*(len(f)/2)) },
		"flipped CRC":     func(f []byte) []byte { return flipBit(f, 8*(len(f)-1)) },
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			s := NewMemStore()
			const procs = 3
			put := func(step int) {
				for r := 0; r < procs; r++ {
					if _, err := s.Put(Meta{Kind: "nsf", Rank: r, Step: step}, payload(byte(step), 500)); err != nil {
						t.Fatal(err)
					}
				}
			}
			put(10)
			put(20)
			put(30) // newest, one rank damaged
			damageFrame(s, 30, 1, fn)
			for r := 0; r < procs-1; r++ { // step 40 incomplete: rank 2 missing
				if _, err := s.Put(Meta{Kind: "nsf", Rank: r, Step: 40}, payload(40, 500)); err != nil {
					t.Fatal(err)
				}
			}

			step, states, err := Latest(s, procs)
			if err != nil {
				t.Fatal(err)
			}
			if step != 20 {
				t.Fatalf("Latest fell back to step %d, want 20", step)
			}
			for r, st := range states {
				if !bytes.Equal(st, payload(20, 500)) {
					t.Fatalf("rank %d state wrong", r)
				}
			}
		})
	}
}

func TestLatestEmptyStore(t *testing.T) {
	step, states, err := Latest(NewMemStore(), 4)
	if err != nil || step != -1 || states != nil {
		t.Fatalf("empty store: step=%d states=%v err=%v", step, states, err)
	}
}

// A DirStore must detect damage applied directly to the file on disk —
// the e2e recovery scenario.
func TestDirStoreOnDiskDamage(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Meta{Kind: "ale", Rank: 0, Step: 8}, payload(1, 3000)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.Path(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(8, 0), flipBit(raw, 8*(len(raw)/3)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open(8, 0); !errors.As(err, new(*CorruptError)) {
		t.Fatalf("on-disk bit flip not detected: %v", err)
	}
	// A record renamed onto the wrong address must not be accepted.
	if _, err := s.Put(Meta{Kind: "ale", Rank: 0, Step: 9}, payload(2, 3000)); err != nil {
		t.Fatal(err)
	}
	good, _ := os.ReadFile(s.Path(9, 0))
	if err := os.WriteFile(s.Path(8, 0), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open(8, 0); !errors.As(err, new(*CorruptError)) {
		t.Fatalf("renamed record accepted: %v", err)
	}
}

func TestRetentionGC(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for step := 10; step <= 100; step += 10 {
				if _, err := s.Put(Meta{Kind: "nsf", Rank: 0, Step: step}, payload(byte(step), 100)); err != nil {
					t.Fatal(err)
				}
			}
			removed, err := GC(s, Retention{KeepLast: 2})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(removed) != "[10 20 30 40 50 60 70 80]" {
				t.Fatalf("removed %v", removed)
			}
			steps, _ := s.Steps()
			if fmt.Sprint(steps) != "[90 100]" {
				t.Fatalf("kept %v", steps)
			}
			// The zero policy is keep-everything.
			if removed, err := GC(s, Retention{}); err != nil || removed != nil {
				t.Fatalf("zero policy removed %v err %v", removed, err)
			}
		})
	}
}

// TestEncodeRecordStreamIsFreshBestSpeed: whatever was encoded before,
// the deflate stream of a record is exactly what a fresh
// flate.NewWriter(BestSpeed) produces — frames, stored sizes and every
// priced write cost derived from them depend on it. It is the pin a
// recycled compressor (ROADMAP item 4(a)) has to keep.
func TestEncodeRecordStreamIsFreshBestSpeed(t *testing.T) {
	mixed := func(n int) []byte {
		b := make([]byte, n)
		x := uint32(n)*2654435761 + 1
		for i := range b {
			x = x*1664525 + 1013904223
			b[i] = byte(x>>24) & byte(0x0f<<(uint(i/64)%5)) // runs of compressible and noisy bytes
		}
		return b
	}
	m := Meta{Kind: "turb2d", Rank: 3, Step: 40}
	// Large to small and back, so a compressor that outlived one record
	// would meet the next in the state a very different payload left it in.
	for _, n := range []int{270_000, 0, 4096, 1, 136, 270_000, 136} {
		state := mixed(n)
		frame, err := EncodeRecord(m, state)
		if err != nil {
			t.Fatal(err)
		}
		var fresh bytes.Buffer
		zw, err := flate.NewWriter(&fresh, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(state)
		zw.Close()
		hdr := len(magic) + 2 + len(m.Kind) + 20
		if got := frame[hdr : len(frame)-trailerLen]; !bytes.Equal(got, fresh.Bytes()) {
			t.Errorf("%d-byte payload: the record's stream is %d bytes, a fresh writer's %d, and they differ", n, len(got), fresh.Len())
		}
	}

	// Concurrent encoders (AsyncWriter, the farm's workers); run under
	// -race by `make race` and `race-ckpt`.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				state := mixed(1 + 997*g + 4001*i)
				want := Meta{Kind: "k", Rank: g, Step: i}
				frame, err := EncodeRecord(want, state)
				if err != nil {
					t.Error(err)
					return
				}
				got, back, err := DecodeRecord(frame)
				if err != nil || got != want || !bytes.Equal(back, state) {
					t.Errorf("goroutine %d record %d did not round-trip: meta %+v, err %v", g, i, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
