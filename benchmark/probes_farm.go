package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nektar/internal/farm"
)

// serviceJobMS pushes jobs through a fresh farm rooted at root and
// returns the service's wall time per job over the jobs after a short
// warm-up.
func serviceJobMS(sh farmShape, root string, seed uint64, warm, jobs int) (float64, error) {
	svc, err := openFarm(root, nil, 1)
	if err != nil {
		return 0, err
	}
	recs := svc.runJobs(sh, seed, warm, warm+jobs, nil, nil)
	if err := svc.close(); err != nil {
		return 0, err
	}
	ends := make([]time.Time, 0, len(recs))
	for _, r := range recs {
		if r.err != nil {
			return 0, r.err
		}
		ends = append(ends, r.fetch)
	}
	sortTimes(ends)
	return millis(ends[len(ends)-1].Sub(ends[warm-1])) / float64(jobs), nil
}

// probeFarm measures the farm's own layers next to the farm_jobs
// window: the in-process cost of a job, the journal's append and replay,
// its entries per job, one large job through the whole service split
// into its parts, and the two ungated ratios — a second processor, and
// a real disk under the farm directory.
func (l *layers) probeFarm(sh farmShape, shape dnsShape, window *cycleResult) error {
	ft := window.farm
	untracedAck, _ := splitTraced(ft.ackMS)
	untracedQueue, _ := splitTraced(ft.queueMS)
	untracedRun, _ := splitTraced(ft.runMS)
	untracedGet, _ := splitTraced(ft.resultUS)
	l.add("farm.submit_ack_ms_p50", "ms", median(untracedAck))
	l.add("farm.queue_wait_ms_p50", "ms", median(untracedQueue))
	l.add("farm.run_ms_p50", "ms", median(untracedRun))
	l.add("farm.result_get_us", "us", median(untracedGet))

	var err error
	i := 0
	inproc := l.replay("farm.runspec", "farm.RunSpec", l.reps(200), func() {
		i++
		_, err = farm.RunSpec(sh.jobSpec(l.p.seed, 1<<20+i))
	})
	if err != nil {
		return err
	}
	windowJobMS := 1000 / window.rate
	l.add("farm.inproc_job_ms", "ms", millis(inproc))
	l.add("farm.overhead_ms_per_job", "ms", windowJobMS-millis(inproc))

	jl, _, err := farm.OpenJournal(filepath.Join(l.p.storage, "probe-journal.nkj"))
	if err != nil {
		return err
	}
	appendD := l.replay("farm.journal_append", "farm.Journal.Append", l.reps(300), func() {
		err = jl.Append(&farm.Entry{Job: "j00000001", Ev: farm.EvCheckpointed, Step: 10})
	})
	if cerr := jl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.add("farm.journal_append_us", "us", micros(appendD))

	// Entries per job, from a farm too small to compact its journal.
	svc, err := openFarm(l.p.storage, nil, 1)
	if err != nil {
		return err
	}
	const countJobs = 40
	before := svc.f.Snapshot().WALRecords
	recs := svc.runJobs(sh, l.p.seed, 0, countJobs, nil, nil)
	after := svc.f.Snapshot().WALRecords
	if err := svc.close(); err != nil {
		return err
	}
	for _, r := range recs {
		if r.err != nil {
			return r.err
		}
	}
	l.add("farm.journal_entries_per_job", "count", float64(after-before)/countJobs)

	journal, err := preparedJournal(sh, l.p.seed, l.p.storage)
	if err != nil {
		return err
	}
	var opens []time.Duration
	for i := 0; i < l.reps(10); i++ {
		dir, err := os.MkdirTemp(l.p.storage, "probe-replay-")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.nkj"), journal, 0o644); err != nil {
			return err
		}
		var f *farm.Farm
		opens = append(opens, l.spanned("farm.Open", -1, fmt.Sprintf("replay/farm.open#%d", i), func() {
			f, err = farm.Open(farm.Config{Dir: dir, Workers: 1})
		}))
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.add("farm.replay_open_ms", "ms", millis(medianDuration(opens)))

	if err := l.probeBigJob(sh, shape); err != nil {
		return err
	}

	// The ungated ratios. Both sides are short fresh-farm runs of the
	// same jobs, so the ratio compares like with like.
	warm, jobs := 20, 100
	if l.p.quick {
		warm, jobs = 1, 3
	}
	base, err := serviceJobMS(sh, l.p.storage, l.p.seed+1, warm, jobs)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(2)
	two, err := serviceJobMS(sh, l.p.storage, l.p.seed+2, warm, jobs)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	l.add("farm.p2_over_p1", "ratio", two/base)

	disk := base
	if strings.HasPrefix(l.p.storage, "/dev/shm") {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		root, err := os.MkdirTemp(".bench_build", "nektar-benchmark-disk-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
		if disk, err = serviceJobMS(sh, root, l.p.seed+3, warm, jobs); err != nil {
			return err
		}
	}
	l.add("farm.disk_over_tmpfs", "ratio", disk/base)
	return nil
}

// probeBigJob is the ROADMAP's end-to-end cell as a traced item: one
// turb2d job at the DNS grid size through the whole service, its wall
// time split into the acknowledged POST, the queue wait, the run as the
// client observed it (zero when no poll ever saw the job running), and
// the result fetch.
func (l *layers) probeBigJob(sh farmShape, shape dnsShape) error {
	svc, err := openFarm(l.p.storage, nil, 1)
	if err != nil {
		return err
	}
	// Forty steps stay clear of the demonstration time step's blow-up at
	// this grid size (see dnsDt); the default cadence makes four
	// checkpoints on the way.
	spec := farm.JobSpec{Workload: "turb2d", Nt: shape.n, Steps: 40, Seed: int64(l.p.seed)}
	big := sh
	big.poll = 2 * time.Millisecond
	rec := svc.runJob(big, "replay/farm.turb2d_job#0", spec, l.tr)
	if err := svc.close(); err != nil {
		return err
	}
	if rec.err != nil {
		return rec.err
	}
	want, err := farm.RunSpec(spec)
	if err != nil {
		return err
	}
	l.checks = append(l.checks, checkf("farm.turb256_hash_matches_inprocess", maybeCorrupt(want.Hash) == rec.result.Hash,
		"the farm's result hash %.12s against farm.RunSpec's %.12s", rec.result.Hash, want.Hash))
	// The four parts are consecutive differences of the five instants
	// the client stamped, so they add up to the whole by construction.
	l.add("farm.turb256_job_ms", "ms", millis(rec.fetch.Sub(rec.post)))
	l.add("farm.turb256_ack_ms", "ms", millis(rec.ack.Sub(rec.post)))
	l.add("farm.turb256_queue_ms", "ms", millis(rec.running.Sub(rec.ack)))
	l.add("farm.turb256_run_ms", "ms", millis(rec.done.Sub(rec.running)))
	l.add("farm.turb256_result_ms", "ms", millis(rec.fetch.Sub(rec.done)))
	return nil
}
