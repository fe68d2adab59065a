package cliutil

import (
	"os"
	"path/filepath"
	"strings"
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

func TestCheckpointFlags(t *testing.T) {
	if err := CheckpointFlags("", 0); err != nil {
		t.Fatalf("off: %v", err)
	}
	if err := CheckpointFlags("", 5); err == nil {
		t.Fatal("interval without a directory accepted")
	}
	if err := CheckpointFlags(filepath.Join(t.TempDir(), "ck"), 0); err == nil {
		t.Fatal("directory without an interval accepted")
	}
	dir := filepath.Join(t.TempDir(), "ck")
	if err := CheckpointFlags(dir, 5); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("store directory not created: %v", err)
	}
}

func TestCheckpointFlagsRejectsConflicts(t *testing.T) {
	// -ckptdir with -ckpt-every 0 must be one actionable error naming
	// both flags, not a silent no-checkpoint run.
	err := CheckpointFlags(filepath.Join(t.TempDir(), "ck"), 0)
	if err == nil {
		t.Fatal("-ckptdir with -ckpt-every 0 accepted")
	}
	for _, want := range []string{"-ckptdir", "-ckpt-every"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// A negative cadence is rejected whether or not a directory rides
	// along (it used to pass silently with no -ckptdir).
	for _, dir := range []string{"", filepath.Join(t.TempDir(), "neg")} {
		err := CheckpointFlags(dir, -2)
		if err == nil {
			t.Fatalf("negative cadence accepted (dir=%q)", dir)
		}
		if !strings.Contains(err.Error(), "-ckpt-every -2") {
			t.Errorf("error %q does not show the offending value", err)
		}
	}
	// The negative-cadence path must not create the directory.
	dir := filepath.Join(t.TempDir(), "notcreated")
	_ = CheckpointFlags(dir, -1)
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Fatalf("store directory created despite invalid flags: %v", serr)
	}
}
