package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nektar/internal/farm"
)

// farmShape sizes the job-service workload: cheap deterministic spin
// jobs, so the journal, the fair queue, engine.Loop, the checkpoint
// store and journal compaction do nearly all the work.
type farmShape struct {
	prepared   int // finished jobs in the journal that Open replays during set-up
	clients    int // closed-loop clients, each with one job in flight
	checkEvery int // every n-th job's hash is recomputed in-process
	poll       time.Duration
	spec       farm.JobSpec
}

func farmShapeFor(p params) farmShape {
	sh := farmShape{
		prepared: 300, clients: 2, checkEvery: 50, poll: 200 * time.Microsecond,
		spec: farm.JobSpec{Workload: "spin", Steps: 40, Work: 64, CkptEvery: 10},
	}
	if p.quick {
		sh.prepared, sh.checkEvery = 20, 5
	}
	return sh
}

// jobSpec is job i of a run: distinct seeds, so the result cache never
// answers. Negative i are the prepared jobs of the replayed journal.
func (sh farmShape) jobSpec(seed uint64, i int) farm.JobSpec {
	spec := sh.spec
	spec.Seed = int64(mix64(seed)>>24) + int64(i)
	return spec
}

// preparedJournal builds the write-ahead journal a farm leaves behind
// after finishing sh.prepared jobs, and returns the file's bytes.
func preparedJournal(sh farmShape, seed uint64, dir string) ([]byte, error) {
	path := filepath.Join(dir, "prepared.nkj")
	jl, _, err := farm.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	var entries []*farm.Entry
	for k := 0; k < sh.prepared; k++ {
		spec := sh.jobSpec(seed, -1-k)
		spec.Tenant = "default"
		res, err := farm.RunSpec(spec)
		if err != nil {
			jl.Close()
			return nil, err
		}
		id := fmt.Sprintf("j%08d", k+1)
		entries = append(entries,
			&farm.Entry{Job: id, Ev: farm.EvSubmitted, Spec: &spec},
			&farm.Entry{Job: id, Ev: farm.EvAdmitted},
			&farm.Entry{Job: id, Ev: farm.EvRunning, Attempt: 1})
		for step := spec.CkptEvery; step < spec.Steps; step += spec.CkptEvery {
			entries = append(entries, &farm.Entry{Job: id, Ev: farm.EvCheckpointed, Step: step})
		}
		entries = append(entries, &farm.Entry{Job: id, Ev: farm.EvDone, Step: spec.Steps, Result: &res})
	}
	if err := jl.Append(entries...); err != nil {
		jl.Close()
		return nil, err
	}
	if err := jl.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return data, os.Remove(path)
}

// farmService is one farm behind its HTTP handler on a loopback server.
type farmService struct {
	dir    string
	f      *farm.Farm
	srv    *httptest.Server
	client *http.Client
	setup  time.Duration
}

// openFarm lays the prepared journal into a fresh directory (untimed),
// then times what a restarting daemon does before its first job can
// start: Open replaying the journal, and the HTTP server coming up.
func openFarm(root string, journal []byte, workers int) (*farmService, error) {
	dir, err := os.MkdirTemp(root, "farm-")
	if err != nil {
		return nil, err
	}
	if journal != nil {
		if err := os.WriteFile(filepath.Join(dir, "wal.nkj"), journal, 0o644); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	t0 := time.Now()
	f, err := farm.Open(farm.Config{Dir: dir, Workers: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(farm.Handler(f))
	return &farmService{
		dir: dir, f: f, srv: srv, setup: time.Since(t0),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}, nil
}

func (s *farmService) close() error {
	s.client.CloseIdleConnections()
	s.srv.Close()
	err := s.f.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRecord is what a client observed of one job.
type jobRecord struct {
	id                              string
	spec                            farm.JobSpec
	post, ack, running, done, fetch time.Time
	result                          *farm.Result
	err                             error
}

// getStatus fetches one job's status.
func (s *farmService) getStatus(id string) (farm.JobStatus, error) {
	var st farm.JobStatus
	resp, err := s.client.Get(s.srv.URL + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runJob drives one job from POST to fetched result, as a closed-loop
// client does: submit, poll the status until the job is done, then GET
// the result. Under a tracer the job is a root span whose children are
// the HTTP calls and the job states as the client observed them.
func (s *farmService) runJob(sh farmShape, op string, spec farm.JobSpec, tr *tracer) jobRecord {
	rec := jobRecord{spec: spec}
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	fail := func(err error) jobRecord { rec.err = err; return rec }

	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	rec.post = time.Now()
	span := tr.begin("http.POST /v1/jobs", root, op)
	resp, err := s.client.Post(s.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(span)
		return fail(err)
	}
	var st farm.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(span)
	rec.ack = time.Now()
	if resp.StatusCode != http.StatusCreated || derr != nil {
		return fail(fmt.Errorf("POST %s: HTTP %d (decode: %v)", op, resp.StatusCode, derr))
	}
	rec.id = st.ID

	state := tr.begin("job.queued", root, op)
	for !st.State.Terminal() {
		time.Sleep(sh.poll)
		poll := tr.begin("http.GET poll", state, op)
		st, err = s.getStatus(rec.id)
		tr.end(poll)
		if err != nil {
			tr.end(state)
			return fail(err)
		}
		if rec.running.IsZero() && st.State != farm.StateQueued {
			rec.running = time.Now()
			tr.end(state)
			state = tr.begin("job.running", root, op)
		}
	}
	tr.end(state)
	rec.done = time.Now()
	if rec.running.IsZero() {
		rec.running = rec.done
	}
	if st.State != farm.StateDone {
		return fail(fmt.Errorf("job %s ended %s: %s", rec.id, st.State, st.Err))
	}

	span = tr.begin("http.GET result", root, op)
	st, err = s.getStatus(rec.id)
	tr.end(span)
	rec.fetch = time.Now()
	if err != nil {
		return fail(err)
	}
	if st.Result == nil {
		return fail(fmt.Errorf("job %s is done but carries no result", rec.id))
	}
	rec.result = st.Result
	return rec
}

// speedEvery is how many timed farm jobs pass between two host-speed
// samples: a sample holds the one processor for 0.7 ms, a tenth of a
// job, so the clients take one every eighth job.
const speedEvery = 8

// runJobs pushes total jobs through the service from sh.clients
// closed-loop clients and returns what each observed, in job order.
// The first warm jobs are never traced; after them, under a tracer,
// about every other job is (see isTraced).
func (s *farmService) runJobs(sh farmShape, seed uint64, warm, total int, speed *hostSpeed, tr *tracer) []jobRecord {
	recs := make([]jobRecord, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sh.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				var jt *tracer
				if i >= warm {
					jt = tracedOp(tr, i-warm)
					if (i-warm)%speedEvery == 0 {
						speed.sample(1)
					}
				}
				recs[i] = s.runJob(sh, fmt.Sprintf("farm_jobs/job#%d", i), sh.jobSpec(seed, i), jt)
			}
		}()
	}
	wg.Wait()
	return recs
}

// farmTimes are the client-observed parts of the timed jobs.
type farmTimes struct {
	ackMS, queueMS, runMS, resultUS []float64
}

// auditJobs applies the farm's zero-loss audit to a finished batch:
// every job done with a result, no job ID handed out twice, and every
// checkEvery-th result hash equal to an uninterrupted in-process run of
// the same spec. It returns the indices of failed jobs.
func auditJobs(sh farmShape, recs []jobRecord) (failed map[int]bool, checks []check) {
	failed = map[int]bool{}
	ids := map[string]int{}
	lost, dup, hashed, wrong := 0, 0, 0, 0
	firstErr := ""
	for i, r := range recs {
		if r.err != nil || r.result == nil {
			lost++
			failed[i] = true
			if firstErr == "" {
				firstErr = fmt.Sprint(r.err)
			}
			continue
		}
		if j, seen := ids[r.id]; seen {
			dup++
			failed[i], failed[j] = true, true
		}
		ids[r.id] = i
		if i%sh.checkEvery != 0 {
			continue
		}
		want, err := farm.RunSpec(r.spec)
		hashed++
		if err != nil || maybeCorrupt(want.Hash) != r.result.Hash || want.Steps != r.result.Steps {
			wrong++
			failed[i] = true
		}
	}
	return failed, []check{
		checkf("farm_jobs.no_job_lost", lost == 0, "%d of %d jobs did not finish with a result (first error: %s)", lost, len(recs), firstErr),
		checkf("farm_jobs.no_duplicate_ids", dup == 0, "%d job IDs were handed out twice among %d jobs", dup, len(recs)),
		checkf("farm_jobs.hashes_match_inprocess", wrong == 0, "%d of %d sampled result hashes differ from farm.RunSpec of the same spec", wrong, hashed),
	}
}

// farmWorkloadCycle returns the farm_jobs cycle. The prepared journal
// is built once per process and laid down afresh for every cycle.
func farmWorkloadCycle() func(p params, c cycleSpec) (*cycleResult, error) {
	var journal []byte
	return func(p params, c cycleSpec) (*cycleResult, error) {
		sh := farmShapeFor(p)
		if journal == nil {
			var err error
			if journal, err = preparedJournal(sh, p.seed, p.storage); err != nil {
				return nil, fmt.Errorf("preparing the journal: %w", err)
			}
		}
		svc, err := openFarm(p.storage, journal, 1)
		if err != nil {
			return nil, err
		}
		res := &cycleResult{setup: svc.setup}
		if c.timed == 0 {
			return res, svc.close()
		}
		start := time.Now()
		recs := svc.runJobs(sh, p.seed, c.warm, c.warm+c.timed, c.speed, c.tr)
		if err := svc.close(); err != nil {
			return nil, err
		}
		failed, checks := auditJobs(sh, recs)
		res.checks = checks

		// The window opens when the last warm-up job completes and closes
		// when the last job does.
		ends := make([]time.Time, 0, len(recs))
		for _, r := range recs {
			if !r.fetch.IsZero() {
				ends = append(ends, r.fetch)
			}
		}
		if len(ends) <= c.warm {
			return nil, fmt.Errorf("farm_jobs: only %d of %d jobs returned a result, none to time (%s)", len(ends), len(recs), checks[0].detail)
		}
		sortTimes(ends)
		if c.warm > 0 {
			start = ends[c.warm-1]
		}
		res.rate = float64(len(ends)-c.warm) / ends[len(ends)-1].Sub(start).Seconds()
		res.farm = &farmTimes{}
		for i := c.warm; i < len(recs); i++ {
			r := recs[i]
			if failed[i] {
				res.failed++
			}
			if r.fetch.IsZero() {
				continue
			}
			res.opMS = append(res.opMS, millis(r.fetch.Sub(r.post)))
			res.farm.ackMS = append(res.farm.ackMS, millis(r.ack.Sub(r.post)))
			res.farm.queueMS = append(res.farm.queueMS, millis(r.running.Sub(r.ack)))
			res.farm.runMS = append(res.farm.runMS, millis(r.done.Sub(r.running)))
			res.farm.resultUS = append(res.farm.resultUS, micros(r.fetch.Sub(r.done)))
		}
		return res, nil
	}
}
