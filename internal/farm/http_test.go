package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func httpFarm(t *testing.T, cfg Config) (*Farm, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(f))
	t.Cleanup(func() { srv.Close(); f.Close() })
	return f, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	_, srv := httpFarm(t, Config{Workers: 1})
	spec := spinSpec(21, 25)
	ref, _ := RunSpec(spec)

	resp, st := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == StateDone {
			if cur.Result == nil || cur.Result.Hash != ref.Hash {
				t.Fatalf("result %+v != reference %+v", cur.Result, ref)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Idempotent resubmission: 200 + cached, same ID.
	resp2, st2 := postJob(t, srv, spec)
	if resp2.StatusCode != http.StatusOK || !st2.Cached || st2.ID != st.ID {
		t.Fatalf("resubmit: %d %+v", resp2.StatusCode, st2)
	}

	r, _ := http.Get(srv.URL + "/v1/jobs/nosuch")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestHTTPBackpressure429(t *testing.T) {
	_, srv := httpFarm(t, Config{Workers: 0, QueueCap: 1})
	if resp, _ := postJob(t, srv, spinSpec(1, 10)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, srv, spinSpec(2, 10))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPBadSpecAndCancel(t *testing.T) {
	_, srv := httpFarm(t, Config{Workers: 0})
	resp, _ := postJob(t, srv, JobSpec{Workload: "nope", Steps: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload: %d", resp.StatusCode)
	}

	_, st := postJob(t, srv, spinSpec(3, 10))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	json.NewDecoder(r.Body).Decode(&got)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || got.State != StateCancelled {
		t.Fatalf("cancel: %d %+v", r.StatusCode, got)
	}
	// Cancelling again conflicts.
	r2, _ := http.DefaultClient.Do(req)
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", r2.StatusCode)
	}
	r2.Body.Close()
}

func TestHTTPStatsAndChaosGate(t *testing.T) {
	// Chaos off: the kill endpoint must not exist.
	_, srv := httpFarm(t, Config{Workers: 0})
	resp, err := http.Post(srv.URL+"/v1/chaos/killworker", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("chaos endpoint without -chaos: %d, want 404", resp.StatusCode)
	}

	_, srv2 := httpFarm(t, Config{Workers: 0, Chaos: true})
	for i := 0; i < 3; i++ {
		postJob(t, srv2, spinSpec(int64(i), 10))
	}
	r, err := http.Get(srv2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if stats.Queued != 3 {
		t.Fatalf("stats queued = %d, want 3: %+v", stats.Queued, stats)
	}
	// Nothing running: chaos kill reports no victim instead of failing.
	kr, _ := http.Post(srv2.URL+"/v1/chaos/killworker", "application/json", nil)
	var kill map[string]string
	json.NewDecoder(kr.Body).Decode(&kill)
	kr.Body.Close()
	if kr.StatusCode != http.StatusOK || kill["killed"] != "" {
		t.Fatalf("idle kill: %d %v", kr.StatusCode, kill)
	}

	hr, _ := http.Get(srv2.URL + "/v1/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hr.StatusCode)
	}
	hr.Body.Close()
}

// TestHTTPDraining503 checks the service refuses work while draining.
func TestHTTPDraining503(t *testing.T) {
	f, srv := httpFarm(t, Config{Workers: 0})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, srv, spinSpec(9, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPSubmitBodyTooLarge: submission bodies are capped far below
// the journal's record bound; an oversized one gets 413, not a journal
// entry that replay would treat as a torn tail.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	_, srv := httpFarm(t, Config{Workers: 0})
	payload := `{"workload":"spin","steps":1,"tenant":"` + strings.Repeat("a", 80<<10)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp.StatusCode)
	}
	// A full-size but bounded spec still goes through.
	resp2, st := postJob(t, srv, JobSpec{Workload: "spin", Steps: 1,
		Tenant: strings.Repeat("t", MaxTenantLen)})
	if resp2.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("bounded spec rejected: %d %+v", resp2.StatusCode, st)
	}
}

// A submission is exactly one JobSpec: an unknown field (a misspelt
// "stepz" would silently run the default step count) or a second value
// after the object is a 400 that names the problem, and nothing is
// queued.
func TestHTTPSubmitRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	f, srv := httpFarm(t, Config{Workers: 0})
	for _, tc := range []struct{ body, want string }{
		{`{"workload":"spin","stepz":500}`, `unknown field "stepz"`},
		{`{"workload":"spin","steps":5}{"workload":"spin","steps":6}`, "trailing data"},
		{`{"workload":"spin","steps":5} x`, "trailing data"},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if st := f.Snapshot(); st.Queued != 0 {
		t.Errorf("rejected bodies queued %d jobs", st.Queued)
	}
	// Trailing whitespace is not data.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"spin","steps":5}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("spec with a trailing newline got %d, want 201", resp.StatusCode)
	}
}
