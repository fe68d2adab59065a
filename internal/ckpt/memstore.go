package ckpt

import (
	"fmt"
	"sort"
	"sync"
)

// MemStore keeps framed records in memory: the staging tier for tests
// and for simulated ranks that need durable-store semantics (validity
// checking, retention) without a filesystem. Records still round-trip
// through the full frame/CRC path, so damage to a frame is caught
// exactly as it would be on disk.
type MemStore struct {
	mu     sync.Mutex
	frames map[int]map[int][]byte // step -> rank -> frame
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{frames: map[int]map[int][]byte{}}
}

// Put implements Store.
func (s *MemStore) Put(m Meta, state []byte) (Stats, error) {
	frame, err := EncodeRecord(m, state)
	if err != nil {
		return Stats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frames[m.Step] == nil {
		s.frames[m.Step] = map[int][]byte{}
	}
	s.frames[m.Step][m.Rank] = frame
	return Stats{Raw: len(state), Stored: len(frame)}, nil
}

// Open implements Store.
func (s *MemStore) Open(step, rank int) ([]byte, Meta, error) {
	s.mu.Lock()
	frame, ok := s.frames[step][rank]
	s.mu.Unlock()
	if !ok {
		return nil, Meta{}, &NotFoundError{Step: step, Rank: rank}
	}
	m, state, err := DecodeRecord(frame)
	if err != nil {
		if ce, isCorrupt := err.(*CorruptError); isCorrupt {
			ce.Key = fmt.Sprintf("mem:step-%d.rank-%d", step, rank)
		}
		return nil, Meta{}, err
	}
	if m.Step != step || m.Rank != rank {
		return nil, Meta{}, &CorruptError{
			Key:    fmt.Sprintf("mem:step-%d.rank-%d", step, rank),
			Reason: fmt.Sprintf("header says step %d rank %d", m.Step, m.Rank),
		}
	}
	return state, m, nil
}

// Steps implements Store.
func (s *MemStore) Steps() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := make([]int, 0, len(s.frames))
	for step := range s.frames {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// Ranks implements Store.
func (s *MemStore) Ranks(step int) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ranks := make([]int, 0, len(s.frames[step]))
	for r := range s.frames[step] {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks, nil
}

// Delete implements Store.
func (s *MemStore) Delete(step int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.frames, step)
	return nil
}
