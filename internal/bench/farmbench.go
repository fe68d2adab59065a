package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"nektar/internal/farm"
	"nektar/internal/report"
)

// Farmbench: is the job farm's crash-safety real? The harness runs the
// farm daemon as a genuine subprocess (the test binary re-exec'd via
// farm.MaybeDaemon), floods it with short deterministic jobs from
// concurrent clients, and while everything is in flight repeatedly
// SIGKILLs the daemon — no drain, no warning — restarting it on the
// same state directory each time, with a second chaos stream killing
// workers mid-step inside the daemon. When the dust settles it audits
// the ledger:
//
//   - zero lost acknowledged jobs: every submission the daemon ever
//     acknowledged must still exist and reach "done";
//   - zero duplicate results: resubmitting every spec must hit the
//     result cache (same job ID), never schedule a second run;
//   - bit-identical trajectories: every result hash must equal an
//     uninterrupted in-process reference run of the same spec.
//
// Alongside the audit it measures what the durability costs: completed
// jobs/s under chaos, submit-to-done latency p50/p99, and the daemon's
// recovery time (SIGKILL to serving /v1/healthz again, journal replay
// included). The numbers land in BENCH_farm.json.

// FarmbenchConfig parametrizes the chaos campaign.
type FarmbenchConfig struct {
	// Jobs is the number of distinct jobs submitted; Clients submit them
	// concurrently, spread across three tenants.
	Jobs, Clients int
	// Workers is the daemon's execution pool size.
	Workers int
	// Steps/Work/CkptEvery shape the spin jobs.
	Steps, Work, CkptEvery int
	// DaemonKills is the number of SIGKILL-and-restart cycles; KillEveryMS
	// is the pause between a recovery and the next kill.
	DaemonKills, KillEveryMS int
	// WorkerKillEveryMS is the in-daemon worker-kill cadence (0 = off).
	WorkerKillEveryMS int
	// Seed offsets every job's seed, so reference hashes are stable.
	Seed int64
	// Dir is the daemon state directory ("" = a fresh temp dir).
	Dir string
}

// PaperFarmbench is the recorded campaign: thousands of jobs, at least
// 20 daemon SIGKILLs, continuous worker kills.
var PaperFarmbench = FarmbenchConfig{
	Jobs: 2000, Clients: 8, Workers: 8,
	Steps: 60, Work: 24, CkptEvery: 10,
	DaemonKills: 20, KillEveryMS: 150,
	WorkerKillEveryMS: 40,
	Seed:              1,
}

// QuickFarmbench is the tier-1 variant: the same audit, a few hundred
// jobs, a handful of kills.
var QuickFarmbench = FarmbenchConfig{
	Jobs: 150, Clients: 4, Workers: 4,
	Steps: 40, Work: 16, CkptEvery: 8,
	DaemonKills: 4, KillEveryMS: 120,
	WorkerKillEveryMS: 30,
	Seed:              1,
}

// FarmbenchResult is the audited outcome; it is the schema of
// BENCH_farm.json.
type FarmbenchResult struct {
	Jobs, Clients, Workers int
	Steps, Work, CkptEvery int

	DaemonKills int // SIGKILL cycles actually injected
	WorkerKills int // in-daemon worker kills acknowledged
	Resubmits   int // client retries needed to get every job acked

	// The audit. All three must be zero for the crash-safety claim.
	LostAcked      int
	DupResults     int
	HashMismatches int
	FailedJobs     int

	JobsPerSec     float64
	P50MS, P99MS   float64 // submit-ack to observed-done latency
	RecoveryP50MS  float64 // SIGKILL to healthz, journal replay included
	RecoveryMaxMS  float64
	ElapsedS       float64
	FinalQueuedWAL int // journal records after the final recovery
}

// ValidateFarmbench checks a configuration.
func ValidateFarmbench(cfg FarmbenchConfig) error {
	if cfg.Jobs < 1 || cfg.Clients < 1 || cfg.Workers < 1 {
		return fmt.Errorf("bench: farmbench needs positive jobs/clients/workers, got %d/%d/%d",
			cfg.Jobs, cfg.Clients, cfg.Workers)
	}
	if cfg.Steps < 1 {
		return fmt.Errorf("bench: farmbench jobs need positive steps, got %d", cfg.Steps)
	}
	if cfg.DaemonKills < 0 || cfg.KillEveryMS < 1 {
		return fmt.Errorf("bench: bad kill schedule %d every %dms", cfg.DaemonKills, cfg.KillEveryMS)
	}
	return nil
}

// farmDaemon manages the SIGKILLable subprocess.
type farmDaemon struct {
	image string
	args  []string
	url   string

	mu  sync.Mutex
	cmd *exec.Cmd
}

func (d *farmDaemon) start() error {
	cmd := exec.Command(d.image)
	cmd.Env = append(os.Environ(), farm.DaemonArgsEnv(d.args))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("bench: starting farm daemon: %w", err)
	}
	d.mu.Lock()
	d.cmd = cmd
	d.mu.Unlock()
	return d.waitHealthy(10 * time.Second)
}

func (d *farmDaemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(d.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: farm daemon not healthy after %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon — no drain, no signal handler, the real
// thing — waits out the corpse, restarts on the same state directory,
// and returns the time from kill to healthy (replay included).
func (d *farmDaemon) kill() (time.Duration, error) {
	d.mu.Lock()
	cmd := d.cmd
	d.mu.Unlock()
	t0 := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		return 0, fmt.Errorf("bench: SIGKILL: %w", err)
	}
	cmd.Wait() // reap; the error (signal: killed) is the point
	if err := d.start(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (d *farmDaemon) stop() {
	d.mu.Lock()
	cmd := d.cmd
	d.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// farmbenchSpec is job i's spec: distinct seed per job (distinct
// trajectory), three tenants, a spread of priorities, a generous retry
// budget (worker kills consume attempts; daemon kills must not).
func farmbenchSpec(cfg FarmbenchConfig, i int) farm.JobSpec {
	return farm.JobSpec{
		Workload: "spin", Steps: cfg.Steps, Seed: cfg.Seed<<20 + int64(i),
		Work: cfg.Work, CkptEvery: cfg.CkptEvery,
		Tenant: fmt.Sprintf("tenant-%d", i%3), Priority: i % 2,
		TimeoutS: 120, Retries: 10000,
	}
}

// submitAcked retries one job's submission until the daemon
// acknowledges it (201 created, or 200 cached when an earlier attempt's
// ack was lost to a kill), riding out connection failures and 429
// backpressure. Returns the job ID and the retry count.
func submitAcked(url string, spec farm.JobSpec, deadline time.Time) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	retries := 0
	for {
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err == nil {
			var st farm.JobStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil && (resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK) {
				return st.ID, retries, nil
			}
		}
		if time.Now().After(deadline) {
			return "", retries, fmt.Errorf("bench: job never acknowledged (last err %v)", err)
		}
		retries++
		time.Sleep(5 * time.Millisecond)
	}
}

// RunFarmbench executes the campaign and the audit.
func RunFarmbench(cfg FarmbenchConfig) (*FarmbenchResult, *report.Table, error) {
	if err := ValidateFarmbench(cfg); err != nil {
		return nil, nil, err
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "farmbench")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// One port for every daemon generation: reserve it by binding and
	// releasing, then hand the same address to each restart.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &farmDaemon{
		// This binary is its own daemon image: main (or TestMain) calls
		// farm.MaybeDaemon first thing.
		image: os.Args[0],
		args: []string{"-dir", dir, "-addr", addr, "-chaos",
			"-workers", fmt.Sprint(cfg.Workers), "-queue-cap", "0", "-seed", "7"},
		url: "http://" + addr,
	}
	if err := d.start(); err != nil {
		return nil, nil, err
	}
	defer d.stop()

	res := &FarmbenchResult{
		Jobs: cfg.Jobs, Clients: cfg.Clients, Workers: cfg.Workers,
		Steps: cfg.Steps, Work: cfg.Work, CkptEvery: cfg.CkptEvery,
	}
	t0 := time.Now()
	deadline := t0.Add(10 * time.Minute)

	// Chaos stream 1: SIGKILL-and-restart the daemon on a cadence until
	// the kill budget is spent.
	var recoveries []time.Duration
	killsDone := make(chan error, 1)
	go func() {
		for i := 0; i < cfg.DaemonKills; i++ {
			time.Sleep(time.Duration(cfg.KillEveryMS) * time.Millisecond)
			rec, err := d.kill()
			if err != nil {
				killsDone <- err
				return
			}
			recoveries = append(recoveries, rec)
		}
		killsDone <- nil
	}()

	// Chaos stream 2: kill workers mid-step inside whatever daemon
	// generation is alive. Connection errors during downtime are part of
	// the weather.
	stopWorkerKills := make(chan struct{})
	var workerKillWG sync.WaitGroup
	if cfg.WorkerKillEveryMS > 0 {
		workerKillWG.Add(1)
		go func() {
			defer workerKillWG.Done()
			tick := time.NewTicker(time.Duration(cfg.WorkerKillEveryMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopWorkerKills:
					return
				case <-tick.C:
					resp, err := http.Post(d.url+"/v1/chaos/killworker", "application/json", nil)
					if err != nil {
						continue
					}
					var out map[string]string
					json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if out["killed"] != "" {
						res.WorkerKills++
					}
				}
			}
		}()
	}

	// Submission phase: Clients goroutines push the job range through
	// whatever daemon generation answers, retrying until acked.
	ackedIDs := make([]string, cfg.Jobs)
	ackTimes := make([]time.Time, cfg.Jobs)
	resubmits := make([]int, cfg.Clients)
	errs := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < cfg.Jobs; i += cfg.Clients {
				id, retries, err := submitAcked(d.url, farmbenchSpec(cfg, i), deadline)
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
				ackedIDs[i], ackTimes[i] = id, time.Now()
				resubmits[c] += retries
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, r := range resubmits {
		res.Resubmits += r
	}

	// Let the kill budget finish against the in-flight backlog, then
	// stop the chaos and poll every acknowledged job to its verdict.
	if err := <-killsDone; err != nil {
		return nil, nil, err
	}
	res.DaemonKills = cfg.DaemonKills
	close(stopWorkerKills)
	workerKillWG.Wait()

	doneTimes := make([]time.Time, cfg.Jobs)
	pending := map[int]bool{}
	for i := range ackedIDs {
		pending[i] = true
	}
	var failed []farm.JobStatus
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("bench: %d jobs still pending at deadline", len(pending))
		}
		for i := range pending {
			resp, err := http.Get(d.url + "/v1/jobs/" + ackedIDs[i])
			if err != nil {
				break // daemon between generations; try again
			}
			var st farm.JobStatus
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				// An acknowledged job the recovered daemon has never heard
				// of: the durability claim just failed.
				res.LostAcked++
				delete(pending, i)
				continue
			}
			if derr != nil {
				continue
			}
			switch st.State {
			case farm.StateDone:
				doneTimes[i] = time.Now()
				delete(pending, i)
			case farm.StateFailed, farm.StateCancelled:
				failed = append(failed, st)
				res.FailedJobs++
				delete(pending, i)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.ElapsedS = time.Since(t0).Seconds()
	if res.ElapsedS > 0 {
		res.JobsPerSec = float64(cfg.Jobs-res.FailedJobs-res.LostAcked) / res.ElapsedS
	}

	// Audit 1: duplicate detection. Resubmitting every spec must hit the
	// cache — same job ID, no second execution.
	for i := 0; i < cfg.Jobs; i++ {
		if ackedIDs[i] == "" {
			continue
		}
		body, _ := json.Marshal(farmbenchSpec(cfg, i))
		resp, err := http.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, fmt.Errorf("bench: audit resubmit: %w", err)
		}
		var st farm.JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !st.Cached || st.ID != ackedIDs[i] {
			res.DupResults++
		}
	}

	// Audit 2: bit-identity. Every daemon-computed hash must equal an
	// uninterrupted in-process run of the same spec.
	for i := 0; i < cfg.Jobs; i++ {
		if ackedIDs[i] == "" {
			continue
		}
		resp, err := http.Get(d.url + "/v1/jobs/" + ackedIDs[i])
		if err != nil {
			return nil, nil, err
		}
		var st farm.JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State != farm.StateDone || st.Result == nil {
			continue // already counted lost/failed
		}
		ref, err := farm.RunSpec(farmbenchSpec(cfg, i))
		if err != nil {
			return nil, nil, err
		}
		if st.Result.Hash != ref.Hash {
			res.HashMismatches++
		}
	}

	// Final daemon stats (journal size after every replay/compaction).
	if resp, err := http.Get(d.url + "/v1/stats"); err == nil {
		var st farm.Stats
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		res.FinalQueuedWAL = st.WALRecords
	}

	res.P50MS, res.P99MS = latencyQuantiles(ackTimes, doneTimes)
	if len(recoveries) > 0 {
		sort.Slice(recoveries, func(a, b int) bool { return recoveries[a] < recoveries[b] })
		res.RecoveryP50MS = float64(recoveries[len(recoveries)/2].Milliseconds())
		res.RecoveryMaxMS = float64(recoveries[len(recoveries)-1].Milliseconds())
	}
	for _, f := range failed {
		fmt.Fprintf(os.Stderr, "farmbench: job %s ended %s (cause=%s err=%s)\n",
			f.ID, f.State, f.Cause, f.Err)
	}

	tbl := report.NewTable(
		fmt.Sprintf("Farmbench: %d jobs / %d clients / %d workers under chaos — %d daemon SIGKILLs, %d worker kills",
			cfg.Jobs, cfg.Clients, cfg.Workers, res.DaemonKills, res.WorkerKills),
		"metric", "value")
	tbl.AddRow("lost acknowledged jobs", fmt.Sprint(res.LostAcked))
	tbl.AddRow("duplicate results", fmt.Sprint(res.DupResults))
	tbl.AddRow("hash mismatches vs reference", fmt.Sprint(res.HashMismatches))
	tbl.AddRow("failed jobs", fmt.Sprint(res.FailedJobs))
	tbl.AddRow("completed jobs/s under chaos", fmt.Sprintf("%.1f", res.JobsPerSec))
	tbl.AddRow("submit-to-done p50 / p99 (ms)", fmt.Sprintf("%.0f / %.0f", res.P50MS, res.P99MS))
	tbl.AddRow("SIGKILL-to-healthy p50 / max (ms)", fmt.Sprintf("%.0f / %.0f", res.RecoveryP50MS, res.RecoveryMaxMS))
	tbl.AddRow("client resubmits to get acked", fmt.Sprint(res.Resubmits))
	tbl.AddRow("journal records at end", fmt.Sprint(res.FinalQueuedWAL))
	return res, tbl, nil
}

// latencyQuantiles computes p50/p99 of done-ack in milliseconds over
// jobs that have both timestamps.
func latencyQuantiles(acked, done []time.Time) (p50, p99 float64) {
	var lats []float64
	for i := range acked {
		if acked[i].IsZero() || done[i].IsZero() {
			continue
		}
		lats = append(lats, float64(done[i].Sub(acked[i]).Milliseconds()))
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Float64s(lats)
	return lats[len(lats)/2], lats[(len(lats)*99)/100]
}

// runFarmbench prints the audited ledger and fails unless the
// crash-safety audit is clean.
func runFarmbench(cfg FarmbenchConfig, w io.Writer) (any, error) {
	res, tbl, err := RunFarmbench(cfg)
	if err != nil {
		return nil, err
	}
	tbl.Write(w)
	if res.LostAcked != 0 || res.DupResults != 0 || res.HashMismatches != 0 || res.FailedJobs != 0 {
		return nil, fmt.Errorf("farmbench: crash-safety audit failed: lost=%d dup=%d mismatch=%d failed=%d",
			res.LostAcked, res.DupResults, res.HashMismatches, res.FailedJobs)
	}
	return res, nil
}
