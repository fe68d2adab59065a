package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openTestJournal(t *testing.T, path string) (*Journal, []Entry) {
	t.Helper()
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, entries
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nkj")
	j, entries := openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	spec := &JobSpec{Workload: "spin", Steps: 10, Seed: 7}
	if err := j.Append(
		&Entry{Job: "j1", Ev: EvSubmitted, Spec: spec},
		&Entry{Job: "j1", Ev: EvAdmitted},
		&Entry{Job: "j1", Ev: EvRunning, Attempt: 1, Worker: 2},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Append(&Entry{Job: "j1", Ev: EvDone, Step: 10,
		Result: &Result{Hash: "abc", Steps: 10}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, replayed := openTestJournal(t, path)
	defer j2.Close()
	if len(replayed) != 4 {
		t.Fatalf("replayed %d entries, want 4", len(replayed))
	}
	for i, e := range replayed {
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if replayed[0].Spec == nil || replayed[0].Spec.Seed != 7 {
		t.Fatalf("submitted spec did not survive: %+v", replayed[0])
	}
	if replayed[3].Result == nil || replayed[3].Result.Hash != "abc" {
		t.Fatalf("done result did not survive: %+v", replayed[3])
	}
}

// TestJournalTornTail SIGKILLs on paper: a journal whose last append
// was cut mid-record must replay every verified entry, drop the torn
// tail, and accept new appends at the restored boundary.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nkj")
	j, _ := openTestJournal(t, path)
	for i := 0; i < 5; i++ {
		if err := j.Append(&Entry{Job: "j1", Ev: EvCheckpointed, Step: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	// Tear the tail three ways: a truncated frame, garbage with a
	// plausible length prefix, and a lone partial length prefix.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tears := map[string]func([]byte) []byte{
		"truncated-frame": func(b []byte) []byte {
			extra := make([]byte, 4)
			binary.BigEndian.PutUint32(extra, 64)
			return append(append(b, extra...), []byte("only-ten-b")...)
		},
		"garbage": func(b []byte) []byte {
			extra := make([]byte, 4)
			binary.BigEndian.PutUint32(extra, 16)
			return append(append(b, extra...), make([]byte, 16)...)
		},
		"partial-prefix": func(b []byte) []byte { return append(b, 0x00, 0x00) },
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "wal.nkj")
			if err := os.WriteFile(p, tear(append([]byte{}, whole...)), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, replayed := openTestJournal(t, p)
			defer j2.Close()
			if len(replayed) != 5 {
				t.Fatalf("replayed %d entries, want 5", len(replayed))
			}
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(len(whole)) {
				t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), len(whole))
			}
			if err := j2.Append(&Entry{Job: "j1", Ev: EvDone, Step: 5}); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			j2.Close()
			_, again := openTestJournal(t, p)
			if len(again) != 6 || again[5].Ev != EvDone {
				t.Fatalf("post-truncation append did not replay: %+v", again)
			}
		})
	}
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nkj")
	j, _ := openTestJournal(t, path)
	for i := 0; i < 50; i++ {
		if err := j.Append(&Entry{Job: "j1", Ev: EvCheckpointed, Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	spec := &JobSpec{Workload: "spin", Steps: 50}
	if err := j.Compact([]Entry{
		{Job: "j1", Ev: EvSubmitted, Spec: spec},
		{Job: "j1", Ev: EvDone, Step: 50, Result: &Result{Hash: "h"}},
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if j.Count() != 2 {
		t.Fatalf("Count after compact = %d, want 2", j.Count())
	}
	// Appends continue on the compacted file with fresh sequence numbers.
	if err := j.Append(&Entry{Job: "j2", Ev: EvSubmitted, Spec: spec}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j.Close()
	_, replayed := openTestJournal(t, path)
	if len(replayed) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(replayed))
	}
	if replayed[0].Ev != EvSubmitted || replayed[1].Ev != EvDone || replayed[2].Job != "j2" {
		t.Fatalf("wrong replay after compact: %+v", replayed)
	}
	if replayed[2].Seq != 3 {
		t.Fatalf("post-compact seq = %d, want 3", replayed[2].Seq)
	}
}

// TestJournalRejectsOversizedEntry: an entry whose frame would exceed
// the replay bound must be refused before it is written. Replay treats
// any on-disk frame past maxWALRecord as a torn tail, so an appended
// oversized entry would be fsynced and acknowledged, then silently
// truncated away — with every later acknowledged record — at the next
// open.
func TestJournalRejectsOversizedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.nkj")
	j, _ := openTestJournal(t, path)
	if err := j.Append(&Entry{Job: "j1", Ev: EvSubmitted,
		Spec: &JobSpec{Workload: "spin", Steps: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Incompressible payload well past the 1 MiB frame bound even after
	// the record codec's flate layer (random hex has 4 bits of entropy
	// per byte, so 4 MiB cannot compress below ~2 MiB).
	rng := rand.New(rand.NewSource(1))
	big := make([]byte, 4<<20)
	const hexdigits = "0123456789abcdef"
	for i := range big {
		big[i] = hexdigits[rng.Intn(16)]
	}
	err := j.Append(&Entry{Job: "j2", Ev: EvSubmitted,
		Spec: &JobSpec{Workload: "spin", Steps: 1, Tenant: string(big)}})
	if !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("oversized append returned %v, want ErrEntryTooLarge", err)
	}
	// The failed append must not have consumed a sequence number or
	// poisoned the file: the next entry lands at seq 2 and both survive
	// a replay.
	good := &Entry{Job: "j3", Ev: EvSubmitted, Spec: &JobSpec{Workload: "spin", Steps: 1}}
	if err := j.Append(good); err != nil {
		t.Fatalf("Append after rejection: %v", err)
	}
	if good.Seq != 2 {
		t.Fatalf("rejected append consumed a seq: next entry got %d, want 2", good.Seq)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, replayed := openTestJournal(t, path)
	defer j2.Close()
	if len(replayed) != 2 || replayed[0].Job != "j1" || replayed[1].Job != "j3" {
		t.Fatalf("replayed %+v, want j1 and j3", replayed)
	}
}

// FuzzOpenJournal: the journal is read back from whatever a crash (or a
// damaged disk) left in the file. Whatever the bytes, OpenJournal must
// not panic or fail; it leaves the file truncated to a prefix of them
// that ends at a record boundary, a reopen replays the same entries,
// and an Append after the reopen is replayed by the next open. Plain
// `go test` runs the seeds only (`make fuzz-smoke` fuzzes).
func FuzzOpenJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.nkj")
	j, _, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(
		&Entry{Job: "j1", Ev: EvSubmitted, Spec: &JobSpec{Workload: "spin", Steps: 10, Seed: 7}},
		&Entry{Job: "j1", Ev: EvRunning, Attempt: 1, Worker: 2},
		&Entry{Job: "j1", Ev: EvDone, Step: 10, Result: &Result{Hash: "abc", Steps: 10}},
	); err != nil {
		f.Fatal(err)
	}
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	for _, cut := range []int{0, 2, 4, 9, len(whole) / 3, len(whole) / 2, len(whole) - 5, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-1] ^= 0x5a // the last record's CRC trailer
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.nkj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		j.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("journal of %d bytes rewritten, not truncated, to %d", len(data), len(kept))
		}
		off := 0
		for range entries {
			if len(kept)-off < 4 {
				t.Fatalf("%d entries replayed from %d bytes", len(entries), len(kept))
			}
			off += 4 + int(binary.BigEndian.Uint32(kept[off:]))
		}
		if off != len(kept) {
			t.Fatalf("truncated to %d bytes, but its %d records end at byte %d", len(kept), len(entries), off)
		}

		j, again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if !sameEntries(again, entries) {
			t.Fatalf("reopen replayed %+v, first open %+v", again, entries)
		}
		if err := j.Append(&Entry{Job: "fz", Ev: EvCancelled}); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
		j.Close()

		j, third, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("open after Append: %v", err)
		}
		j.Close()
		n := len(entries)
		if len(third) != n+1 || !sameEntries(third[:n], entries) || third[n].Job != "fz" || third[n].Ev != EvCancelled {
			t.Fatalf("after Append replayed %+v, want %+v then the appended entry", third, entries)
		}
		if n > 0 && third[n].Seq != entries[n-1].Seq+1 {
			t.Fatalf("appended seq %d after %d", third[n].Seq, entries[n-1].Seq)
		}
	})
}

// sameEntries compares replays, an empty one equal to a nil one.
func sameEntries(a, b []Entry) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
