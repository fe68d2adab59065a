package cliutil

import (
	"os"
	"path/filepath"
	"testing"

	"nektar/internal/engine"
)

func TestTracerOffIsNil(t *testing.T) {
	tr, closeFn, err := Tracer("")
	if err != nil || tr != nil {
		t.Fatalf("tr=%v err=%v", tr, err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, closeFn, err := Tracer(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit(engine.Event{Ev: engine.EvStep, Step: 1})
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := engine.ReadEvents(f)
	if err != nil || len(evs) != 1 || evs[0].Ev != engine.EvStep {
		t.Fatalf("evs=%v err=%v", evs, err)
	}
}
