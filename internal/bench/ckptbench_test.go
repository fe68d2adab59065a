package bench

import "testing"

func quickCkptbench(t *testing.T) CkptbenchConfig {
	t.Helper()
	return CkptbenchConfig{
		Nt: 12, Nr: 3, Order: 4,
		Steps: 6, Every: 2,
		Dir: t.TempDir(),
	}
}

// The acceptance criterion of the async writer: at an equal cadence the
// double-buffered background writer exposes less write time to the step
// loop than the synchronous writer (the hidden remainder overlaps with
// stepping).
func TestCkptbenchAsyncHidesWriteTime(t *testing.T) {
	cfg := quickCkptbench(t)
	res, _, err := RunCkptbench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The probe ramps 2 steps then measures cfg.Steps; the loop stages a
	// snapshot at each cadence step before the last plus the final state
	// (steps 4, 6 and the final step 8 here).
	if want := 3; res.Snapshots != want {
		t.Fatalf("snapshots = %d, want %d", res.Snapshots, want)
	}
	if res.Ratio <= 1 {
		t.Errorf("compression ratio %.3f, want > 1 for smooth solver state", res.Ratio)
	}
	// The exposed-time comparison is a wall-clock measurement with a
	// millisecond-scale margin at this probe size; when `go test ./...`
	// runs sibling packages' fsync-heavy suites in parallel, a scheduling
	// hiccup can swallow it. Retry on fresh state before declaring the
	// writer broken — a real regression fails every attempt.
	for attempt := 1; res.AsyncExposedS >= res.SyncExposedS || res.AsyncHiddenS <= 0; attempt++ {
		if attempt >= 3 {
			t.Errorf("async exposed %.6fs vs sync exposed %.6fs (hidden %.6fs) after %d attempts: the background writer hid nothing",
				res.AsyncExposedS, res.SyncExposedS, res.AsyncHiddenS, attempt)
			break
		}
		retry := cfg
		retry.Dir = t.TempDir()
		if res, _, err = RunCkptbench(retry); err != nil {
			t.Fatal(err)
		}
	}
}
