package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// DirStore keeps one framed record per file under a root directory —
// the restart files of the paper's production runs. File names encode
// the address (step-%08d.rank-%04d.nkc) so the store is listable
// without an index, and writes are durable against host crash: the
// frame goes to a temp file which is fsynced, atomically renamed into
// place, and sealed by an fsync of the directory itself, so a crash at
// any instant leaves either the old record, the new record, or a stray
// .tmp — never a half-visible newest snapshot whose name exists but
// whose bytes were lost with the page cache. (A torn write INSIDE the
// payload is still caught by the CRC trailer on read.)
type DirStore struct {
	dir string

	mu sync.Mutex // serializes Put: a rewrite of one record shares its .tmp name
}

const fileExt = ".nkc"

// NewDirStore opens (creating if needed) the store rooted at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// Path returns the file holding (step, rank)'s record — for tests and
// operators that need to inspect (or damage) a record directly.
func (s *DirStore) Path(step, rank int) string {
	return filepath.Join(s.dir, fmt.Sprintf("step-%08d.rank-%04d%s", step, rank, fileExt))
}

// Put implements Store.
func (s *DirStore) Put(m Meta, state []byte) (Stats, error) {
	frame, err := EncodeRecord(m, state)
	if err != nil {
		return Stats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.Path(m.Step, m.Rank)
	if err := WriteFileAtomic(path, frame); err != nil {
		return Stats{}, err
	}
	return Stats{Raw: len(state), Stored: len(frame)}, nil
}

// WriteFileAtomic persists data at path with full crash durability:
// temp file, fsync, atomic rename, directory fsync. Without the final
// directory sync the rename itself can be lost on power failure,
// resurrecting the old record — acceptable — or, worse on some
// filesystems, leaving the new name pointing at unwritten blocks; the
// fsync ordering rules both out.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync a directory handle (returning EINVAL or
// similar) get best-effort semantics rather than a spurious failure.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("ckpt: syncing %s: %w", dir, err)
	}
	return nil
}

// Open implements Store.
func (s *DirStore) Open(step, rank int) ([]byte, Meta, error) {
	path := s.Path(step, rank)
	frame, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, Meta{}, &NotFoundError{Step: step, Rank: rank}
		}
		return nil, Meta{}, fmt.Errorf("ckpt: %w", err)
	}
	m, state, derr := DecodeRecord(frame)
	if derr != nil {
		if ce, isCorrupt := derr.(*CorruptError); isCorrupt {
			ce.Key = path
		}
		return nil, Meta{}, derr
	}
	if m.Step != step || m.Rank != rank {
		return nil, Meta{}, &CorruptError{
			Key:    path,
			Reason: fmt.Sprintf("header says step %d rank %d (renamed file?)", m.Step, m.Rank),
		}
	}
	return state, m, nil
}

// list scans the directory for record files, returning step -> ranks.
func (s *DirStore) list() (map[int][]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	out := map[int][]int{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, fileExt) {
			continue
		}
		var step, rank int
		if _, err := fmt.Sscanf(name, "step-%d.rank-%d", &step, &rank); err != nil {
			continue // foreign file; records only ever match the pattern
		}
		out[step] = append(out[step], rank)
	}
	return out, nil
}

// Steps implements Store.
func (s *DirStore) Steps() ([]int, error) {
	byStep, err := s.list()
	if err != nil {
		return nil, err
	}
	steps := make([]int, 0, len(byStep))
	for step := range byStep {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// Ranks implements Store.
func (s *DirStore) Ranks(step int) ([]int, error) {
	byStep, err := s.list()
	if err != nil {
		return nil, err
	}
	ranks := byStep[step]
	sort.Ints(ranks)
	return ranks, nil
}

// Delete implements Store.
func (s *DirStore) Delete(step int) error {
	byStep, err := s.list()
	if err != nil {
		return err
	}
	for _, rank := range byStep[step] {
		if err := os.Remove(s.Path(step, rank)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	return nil
}
