package farm

import (
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nektar/internal/workload"
)

// TestSubmitRejectsUnrunnableSpecs: a spec the table's Check refuses,
// or one past the farm's size bound, is refused at Submit — HTTP 400
// with the menu — before anything is journaled or allocated.
func TestSubmitRejectsUnrunnableSpecs(t *testing.T) {
	f, srv := httpFarm(t, Config{Workers: 1})
	before := f.Snapshot().WALRecords
	for _, c := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Workload: "turb2d", Steps: 2, Nt: 10}, "nearest to 10: 8 and 12"},
		{JobSpec{Workload: "turb2d", Steps: 2, Nt: 1 << 20}, "size bound"},
		{JobSpec{Workload: "turbforce", Steps: 2, Nt: 8}, "shell band"}, // N/3 = 2 < the default band's 5
		{JobSpec{Workload: "ns2d", Steps: 2, Nt: 3}, "sectors >= 4"},
		{JobSpec{Workload: "ns2d", Steps: 2, Nt: 2000, Nr: 2000, Order: 9}, "size bound"},
		{JobSpec{Workload: "ns2d", Steps: 2, Nt: 1 << 62, Nr: 1 << 62, Order: 1 << 62}, "size bound"},
		{JobSpec{Workload: "nsf", Steps: 2}, "simulated cluster"},
		{JobSpec{Workload: "nsale", Steps: 2}, "simulated cluster"},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, _, err := f.Submit(c.spec)
		runtime.ReadMemStats(&ms1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%+v) = %v, want an error naming %q", c.spec, err, c.want)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<20 {
			t.Errorf("Submit(%+v) allocated %d bytes before refusing", c.spec, grew)
		}
		if resp, _ := postJob(t, srv, c.spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %+v: status %d, want 400", c.spec, resp.StatusCode)
		}
	}
	if after := f.Snapshot().WALRecords; after != before {
		t.Errorf("refused specs journaled %d records", after-before)
	}
	// The benchmark's largest job must stay inside the bound.
	if err := (JobSpec{Workload: "turb2d", Steps: 40, Nt: 256}).Validate(); err != nil {
		t.Errorf("turb2d at Nt=256 refused: %v", err)
	}
}

// TestWorkloadNamesAreTheTables: the farm knows exactly the table's
// names plus spin, and answers an unknown one with the sentence the
// table builds.
func TestWorkloadNamesAreTheTables(t *testing.T) {
	for _, name := range workload.Names(spinWorkload) {
		err := JobSpec{Workload: name, Steps: 1}.Validate()
		if err != nil && strings.Contains(err.Error(), "unknown workload") {
			t.Errorf("%s is not a farm workload: %v", name, err)
		}
	}
	_, want := workload.ByName("bogus", spinWorkload)
	err := JobSpec{Workload: "bogus", Steps: 1}.Validate()
	if err == nil || err.Error() != "farm: "+want.Error() {
		t.Errorf("unknown workload: %v, want farm: %v", err, want)
	}
	if !strings.Contains(want.Error(), "ns2d, nsale, nsf, spin, turb2d, turbforce") {
		t.Errorf("menu %q does not list the table and spin", want)
	}
}

// TestReplayFailsInvalidSpecOnce: a journal holding a job whose spec
// this daemon refuses (accepted by an older one: the Nt = 1<<20 crash
// loop) opens, reports the job failed/invalid without building it,
// journals that verdict so the next open does not revisit it, and runs
// the job behind it.
func TestReplayFailsInvalidSpecOnce(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openTestJournal(t, filepath.Join(dir, "wal.nkj"))
	bad := JobSpec{Workload: "turb2d", Steps: 2, Nt: 1 << 20, Tenant: "default"}
	good := spinSpec(5, 10)
	good.Tenant = "default"
	if err := jl.Append(
		&Entry{Job: "j00000001", Ev: EvSubmitted, Spec: &bad}, &Entry{Job: "j00000001", Ev: EvAdmitted},
		&Entry{Job: "j00000001", Ev: EvRunning, Attempt: 1},
		&Entry{Job: "j00000002", Ev: EvSubmitted, Spec: &good}, &Entry{Job: "j00000002", Ev: EvAdmitted},
	); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	for open := 0; open < 2; open++ {
		f, err := Open(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		st, ok := f.Status("j00000001")
		if !ok || st.State != StateFailed || st.Cause != "invalid" || st.Attempt != 1 ||
			!strings.Contains(st.Err, "size bound") {
			t.Errorf("open %d: bad job is %+v, want failed/invalid after its one recorded attempt", open, st)
		}
		waitState(t, f, "j00000002", StateDone)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildErrorIsTerminal: a solver the worker cannot build fails the
// job after one attempt with cause invalid — the same spec fails the
// same way every time, so no back-off retry is spent on it.
func TestBuildErrorIsTerminal(t *testing.T) {
	f, err := Open(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Validate would refuse this spec, so plant it behind Submit's back.
	j := &Job{ID: "j00000009", Spec: JobSpec{Workload: "turb2d", Steps: 2, Nt: 10}, State: StateQueued, CkptStep: -1}
	f.mu.Lock()
	f.jobs[j.ID] = j
	f.q.Push(j)
	f.cond.Broadcast()
	f.mu.Unlock()
	st := waitState(t, f, j.ID, StateFailed)
	if st.Cause != "invalid" || st.Attempt != 1 || !strings.Contains(st.Err, "N=10") {
		t.Fatalf("job ended %+v, want one attempt, cause invalid, the menu error", st)
	}
}
