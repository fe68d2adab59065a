package supervisor_test

import (
	"math"
	"os"
	"sync"
	"testing"

	"nektar/internal/ckpt"
	"nektar/internal/fault"
	"nektar/internal/supervisor"
)

// A supervised campaign writing through a durable store must roll back
// past a damaged checkpoint: the crash and the torn record share one
// fault plan (the plan is both the simnet injector and the store's
// corrupter), and the rollback lands on the newest checkpoint that
// verifies on every rank — not the newest one staged.
func TestSupervisedCrashTornCheckpointFallsBack(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	// Checkpoints land at steps 2, 4, 6. The node dies mid-step-6, so
	// steps 2 and 4 are staged — but rank 1's step-4 record was torn
	// mid-write, leaving step 2 as the newest verifiable rollback point.
	store := ckpt.NewMemStore()
	plan := fault.NewPlan(1).
		Crash(1, 5.5/8*ref.VirtualWall).
		TornWrite(4, 1, 0.5)
	store.SetCorrupter(plan)
	cfg.Store, cfg.Kind = store, "nsf"
	cfg.Faults = plan
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 || len(got.Failures) != 1 {
		t.Fatalf("attempts=%d failures=%+v, want one crash and one retry", got.Attempts, got.Failures)
	}
	f := got.Failures[0]
	if f.Cause != supervisor.CauseCrash || f.Rank != 1 {
		t.Fatalf("failure = %+v, want rank 1 crash", f)
	}
	if f.RestartStep != 2 {
		t.Fatalf("restarted from step %d, want 2 (fallback past the torn step-4 record)", f.RestartStep)
	}
	assertBitIdentical(t, ref, got)
}

// A flipped bit must demote a checkpoint exactly like a torn write.
func TestSupervisedCrashBitFlipFallsBack(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	store := ckpt.NewMemStore()
	plan := fault.NewPlan(1).
		Crash(1, 5.5/8*ref.VirtualWall).
		FlipBit(4, 0, 777)
	store.SetCorrupter(plan)
	cfg.Store, cfg.Kind = store, "nsf"
	cfg.Faults = plan
	tuneDetector(&cfg, ref)
	got, err := supervisor.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if got.Attempts != 2 || got.Failures[0].RestartStep != 2 {
		t.Fatalf("attempts=%d failures=%+v, want a retry from step 2", got.Attempts, got.Failures)
	}
	assertBitIdentical(t, ref, got)
}

// A campaign is killed mid-flight (the process gone, only its on-disk
// store left behind), the newest checkpoint record is then damaged on
// disk, and a fresh process warm-starts from the previous valid
// checkpoint to a final state bit-identical to an uninterrupted run.
func TestSupervisedWarmStartFromDamagedStore(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	// The "killed" campaign: a crash with no spare to move onto plays
	// the role of an operator's kill -9 — the run dies, the store
	// survives.
	store, err := ckpt.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	killed := cfg
	killed.Store, killed.Kind = store, "nsf"
	killed.Spares = 0
	killed.Faults = fault.NewPlan(1).Crash(1, 0.8*ref.VirtualWall)
	tuneDetector(&killed, ref)
	if _, err := supervisor.Run(killed); err == nil {
		t.Fatal("killed campaign reported success")
	}
	steps, err := store.Steps()
	if err != nil || len(steps) < 2 {
		t.Fatalf("store after the kill holds steps %v (err %v); need at least two to corrupt one", steps, err)
	}
	newest, prev := steps[len(steps)-1], steps[len(steps)-2]

	// Damage the newest record on disk the way a dying node does — one
	// flipped bit in rank 1's file.
	path := store.Path(newest, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, lerr := ckpt.Latest(store, cfg.Procs); lerr != nil || s != prev {
		t.Fatalf("Latest = %d (err %v), want fallback to step %d past the damaged step %d", s, lerr, prev, newest)
	}

	// A fresh fault-free campaign over the same store must resume from
	// the surviving checkpoint, not recompute from scratch.
	resumed := cfg
	resumed.Store, resumed.Kind = store, "nsf"
	got, err := supervisor.Run(resumed)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if got.Attempts != 1 {
		t.Fatalf("resumed campaign took %d attempts, want 1", got.Attempts)
	}
	if want := cfg.Steps - prev; got.StepsComputed != want {
		t.Errorf("resumed campaign computed %d steps, want %d (warm start from step %d)", got.StepsComputed, want, prev)
	}
	assertBitIdentical(t, ref, got)
}

// sizeStore is a MemStore that reports report(framed size) as the size
// it keeps, and remembers, per step, the largest framed size over
// ranks.
type sizeStore struct {
	*ckpt.MemStore
	report func(stored int) int

	mu      sync.Mutex
	largest map[int]int
}

func newSizeStore(report func(stored int) int) *sizeStore {
	return &sizeStore{MemStore: ckpt.NewMemStore(), report: report, largest: map[int]int{}}
}

func (s *sizeStore) Put(m ckpt.Meta, state []byte) (ckpt.Stats, error) {
	st, err := s.MemStore.Put(m, state)
	s.mu.Lock()
	s.largest[m.Step] = max(s.largest[m.Step], st.Stored)
	s.mu.Unlock()
	st.Stored = s.report(st.Stored)
	return st, err
}

// A static campaign can price its checkpoints through the cluster's
// disk model: every checkpoint holds the campaign up by the slowest
// rank's write, the largest stored record over the disk bandwidth.
// The store allocates whole 64 KiB extents, so every rank stores the
// same size and the delay is exact (with unequal sizes the next
// collective absorbs part of the skew between ranks).
func TestStaticCampaignPricesStoredSize(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	const diskMBs, extent = 20, 1 << 16
	extents := func(stored int) int { return (stored + extent - 1) / extent * extent }
	store := newSizeStore(extents)
	priced := cfg
	priced.Store, priced.Kind = store, "nsf"
	priced.SimDiskMBs = diskMBs
	got, err := supervisor.Run(priced)
	if err != nil {
		t.Fatalf("priced static run: %v", err)
	}
	assertBitIdentical(t, ref, got)
	if len(store.largest) != 3 {
		t.Fatalf("checkpoints at steps %v, want 2, 4, 6", store.largest)
	}
	var want float64
	for _, stored := range store.largest {
		want += float64(extents(stored)) / (diskMBs * 1e6)
	}
	if extra := got.VirtualWall - ref.VirtualWall; math.Abs(extra-want) > 1e-12*want {
		t.Fatalf("priced run is %.15g s slower than the unpriced one, want %.15g s of disk time", extra, want)
	}
}

// An empty store handed in by the caller must behave exactly like the
// default one: the campaign starts from step 0 and leaves verifiable
// records behind.
func TestSupervisedEmptyStoreCleanStart(t *testing.T) {
	cfg := baseConfig(2, nsfFactory(t))
	ref := runReference(t, cfg)

	stored := cfg
	stored.Store, stored.Kind = ckpt.NewMemStore(), "nsf"
	got, err := supervisor.Run(stored)
	if err != nil {
		t.Fatalf("stored campaign: %v", err)
	}
	if got.StepsComputed != cfg.Steps {
		t.Errorf("computed %d steps, want %d (no warm start from an empty store)", got.StepsComputed, cfg.Steps)
	}
	assertBitIdentical(t, ref, got)
	s, states, err := ckpt.Latest(stored.Store, cfg.Procs)
	if err != nil || s != 6 || len(states) != cfg.Procs {
		t.Fatalf("store after the run: Latest = %d (err %v), want the last mid-run checkpoint (6)", s, err)
	}
}
