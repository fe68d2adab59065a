package ckpt

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord: the record parser reads restart files, farm
// journal entries and DirStore files — bytes from outside the program.
// Whatever it is handed, it returns a *CorruptError or a (Meta, state)
// that EncodeRecord accepts and that round-trips unchanged; it never
// panics. Plain `go test` runs the seeds only (`make fuzz-smoke` fuzzes).
func FuzzDecodeRecord(f *testing.F) {
	valid, bad := corruptFrames(f)
	f.Add(valid)
	for _, frame := range bad {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, state, err := DecodeRecord(frame)
		if err != nil {
			if !errors.As(err, new(*CorruptError)) {
				t.Fatalf("error is not a *CorruptError: %v", err)
			}
			return
		}
		again, err := EncodeRecord(m, state)
		if err != nil {
			t.Fatalf("decoded %+v, which EncodeRecord refuses: %v", m, err)
		}
		m2, state2, err := DecodeRecord(again)
		if err != nil || m2 != m || !bytes.Equal(state2, state) {
			t.Fatalf("round trip of %+v: got %+v (err %v), state equal %v", m, m2, err, bytes.Equal(state2, state))
		}
	})
}
