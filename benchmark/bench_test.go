package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nektar/internal/simnet"
)

// raceDetector is set by race_test.go in builds with -race.
var raceDetector bool

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// printed parses the "metric <name> <value> <unit>" lines of a run into
// name -> (value, unit) and fails on a name printed twice.
func printed(t *testing.T, out string) map[string][2]string {
	t.Helper()
	got := map[string][2]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "metric" {
			continue
		}
		if _, dup := got[f[1]]; dup {
			t.Errorf("metric %s printed twice", f[1])
		}
		got[f[1]] = [2]string{f[2], f[3]}
	}
	return got
}

// lastLine decodes the result object a run ends with and checks it has
// exactly the four keys of the contract.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want 4", len(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func quickRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv(simnet.SchedulerEnv, "")
	var o, e bytes.Buffer
	code = run(append([]string{"-quick"}, args...), &o, &e)
	return code, o.String(), e.String()
}

// TestQuickRunPrintsEveryMetric drives the whole command at smoke sizes:
// the gated run of all four workloads, then the traced run twice.
func TestQuickRunPrintsEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}

	code, out, errOut := quickRun(t)
	if code != 0 {
		t.Fatalf("gated quick run exited %d: %s", code, errOut)
	}
	got := printed(t, out)
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			p, ok := got[w.Name+"/"+m.Name]
			if !ok {
				t.Errorf("gated run did not print %s/%s", w.Name, m.Name)
			} else if p[1] != m.Unit {
				t.Errorf("%s/%s printed with unit %q, BENCHMARK.json says %q", w.Name, m.Name, p[1], m.Unit)
			}
		}
	}
	if want := len(bf.Workloads) * len(bf.EndToEnd); len(got) != want {
		t.Errorf("gated run printed %d metrics, want %d", len(got), want)
	}
	if res := lastLine(t, out); !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("gated result line: %+v", res)
	}
	for _, stamp := range []string{"numcpu=", "gomaxprocs=1", "go=go", "commit=", "storage=", "seed=14", "ops_attempted="} {
		if !strings.Contains(out, stamp) {
			t.Errorf("gated output lacks the envelope stamp %q", stamp)
		}
	}

	var runs [2]map[string][2]string
	var results [2]result
	for i := range runs {
		path := filepath.Join(t.TempDir(), "spans.json")
		code, out, errOut := quickRun(t, "-trace", path)
		if code != 0 {
			t.Fatalf("traced quick run exited %d: %s", code, errOut)
		}
		runs[i] = printed(t, out)
		res := lastLine(t, out)
		results[i] = res
		for _, m := range bf.PerLayer {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("BENCHMARK.json: bad name or unit: %q %q", m.Name, m.Unit)
			}
			p, ok := runs[i][m.Name]
			if !ok {
				t.Errorf("traced run did not print %s", m.Name)
			} else if p[1] != m.Unit {
				t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", m.Name, p[1], m.Unit)
			}
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("traced result line lacks %s", m.Name)
			}
		}
		if len(runs[i]) != len(bf.PerLayer) || len(res.Metrics) != len(bf.PerLayer) {
			t.Errorf("traced run printed %d metrics (%d in the result line), BENCHMARK.json lists %d",
				len(runs[i]), len(res.Metrics), len(bf.PerLayer))
		}

		var doc traceFile
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("span file: %v", err)
		}
		if len(doc.Spans) == 0 || doc.Env.GoVersion == "" {
			t.Fatalf("span file holds %d spans, envelope %+v", len(doc.Spans), doc.Env)
		}
		totals, err := analyse(doc.Spans)
		if err != nil {
			t.Errorf("spans do not form a tree: %v", err)
		}
		names := map[string]bool{}
		for _, tot := range totals {
			names[tot.Name] = true
			if tot.SelfUS < 0 || tot.SelfUS > tot.TotalUS+1 {
				t.Errorf("span %s: self time %.1fus of %.1fus", tot.Name, tot.SelfUS, tot.TotalUS)
			}
		}
		for _, want := range []string{"op", "solver.Step", "solver.Checkpoint", "ckpt.Store.Put", "ckpt.Store.Open",
			"http.POST /v1/jobs", "job.queued", "fft.Plan.Many", "spectral.Plan2D.InversePad",
			"spectral.Transposer.Transpose", "mpi.Comm.Alltoall", "mpi.Comm.Allreduce", "gs.GS.Combine", "gs.GS.Dot"} {
			if !names[want] {
				t.Errorf("no span named %q in the trace", want)
			}
		}
	}
	for name := range exactMetrics {
		if raceDetector && strings.Contains(name, "alloc") {
			continue
		}
		if a, b := results[0].Metrics[name].Value, results[1].Metrics[name].Value; a != b {
			t.Errorf("exact metric %s read %v, then %v", name, a, b)
		}
		if _, ok := runs[0][name]; !ok {
			t.Errorf("exact metric %s was never printed", name)
		}
	}
}

// TestAnalyseRejectsBrokenTrees feeds the span checker the three ways a
// trace can be malformed.
func TestAnalyseRejectsBrokenTrees(t *testing.T) {
	good := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1, Op: "a"},
		{ID: 1, Name: "child", Start: 10, End: 40, Parent: 0, Op: "a"},
		{ID: 2, Name: "child", Start: 30, End: 60, Parent: 0, Op: "a"},
	}
	totals, err := analyse(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tot := range totals {
		// The two children overlap on [30, 40]: they cover 50us of the op.
		if tot.Name == "op" && tot.SelfUS != 50 {
			t.Errorf("op self time %.1f, want 50", tot.SelfUS)
		}
	}
	for label, mutate := range map[string]func(s []span){
		"missing parent":       func(s []span) { s[1].Parent = 7 },
		"child outside parent": func(s []span) { s[2].End = 150 },
		"never closed":         func(s []span) { s[1].End = -1 },
	} {
		bad := append([]span(nil), good...)
		mutate(bad)
		if _, err := analyse(bad); err == nil {
			t.Errorf("%s: analyse accepted the trace", label)
		}
	}
}

// TestCorruptedHashFailsTheRun flips the reference hashes and expects a
// non-zero exit that names the failed check and counts every op failed.
func TestCorruptedHashFailsTheRun(t *testing.T) {
	corruptHash = true
	defer func() { corruptHash = false }()
	for workload, check := range map[string]string{
		"dns_slab":  "dns_slab.slabs_bit_equal_serial",
		"farm_jobs": "farm_jobs.hashes_match_inprocess",
	} {
		code, out, errOut := quickRun(t, "-workload", workload)
		if code == 0 {
			t.Errorf("%s: corrupted hashes, yet the run exited 0", workload)
		}
		if !strings.Contains(errOut, check) {
			t.Errorf("%s: stderr does not name %s: %s", workload, check, errOut)
		}
		if res := lastLine(t, out); res.Correct || res.Failed == 0 {
			t.Errorf("%s: result line claims success: %+v", workload, res)
		}
	}
}

// TestSchedulerEnvIsRefused checks the environment guard.
func TestSchedulerEnvIsRefused(t *testing.T) {
	t.Setenv(simnet.SchedulerEnv, "parallel")
	var o, e bytes.Buffer
	if code := run([]string{"-quick", "-workload", "dns_slab"}, &o, &e); code == 0 {
		t.Error("the run went ahead with the scheduler override set")
	}
	if !strings.Contains(e.String(), simnet.SchedulerEnv) {
		t.Errorf("the refusal does not name the variable: %s", e.String())
	}
}

// TestBenchmarkFile pins the parts of BENCHMARK.json the issue fixes.
func TestBenchmarkFile(t *testing.T) {
	var bf struct {
		Command []string `json:"command"`
		Paths   []string `json:"paths"`
		Seconds int      `json:"run_seconds"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want exactly [benchmark]", bf.Paths)
	}
	if bf.Seconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the command's default is %d", bf.Seconds, defaultSeconds)
	}
	names := map[string]bool{}
	for _, w := range workloads() {
		names[w.name] = true
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	full, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range full.Workloads {
		if !names[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, the command has none", w.Name)
		}
	}
	if len(full.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(full.Workloads), len(names))
	}
	// The issue fixes the three gated metrics and caps their bounds.
	caps := map[string]float64{"setup_s": 0.25, "op_ms_p50": 0.10, "ops_per_s": 0.10}
	for _, m := range full.EndToEnd {
		limit, known := caps[m.Name]
		if !known {
			t.Errorf("BENCHMARK.json gates %q, the issue names setup_s, op_ms_p50 and ops_per_s", m.Name)
		} else if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
		delete(caps, m.Name)
	}
	for name := range caps {
		t.Errorf("BENCHMARK.json does not gate %s", name)
	}
}

// TestJudgeAA feeds the A/A verdict synthetic sets: a gap beyond the
// bound is an excess whichever set is the better one, and so is a
// spread beyond it.
func TestJudgeAA(t *testing.T) {
	flat := func(centre float64) []float64 {
		return []float64{0.99 * centre, centre, centre, centre, 1.01 * centre}
	}
	wide := []float64{70, 85, 100, 115, 130}
	for _, tc := range []struct {
		label string
		a, b  []float64
		ok    bool
	}{
		{"same", flat(100), flat(100), true},
		{"within the bound", flat(100), flat(108), true},
		{"B slower", flat(100), flat(130), false},
		{"B faster", flat(100), flat(70), false},
		{"A too wide", wide, flat(100), false},
		{"B too wide", flat(100), wide, false},
	} {
		if c := judgeAA(tc.a, tc.b, 0.10); (c.verdict == "ok") != tc.ok {
			t.Errorf("%s: verdict %q (gap %+.2f, spreads %.2f and %.2f)", tc.label, c.verdict, c.gap, c.spreadA, c.spreadB)
		}
	}
}

// TestCyclesMustAgree gives runGated a workload whose cycles end in
// different states from the same inputs: every op must count as failed.
func TestCyclesMustAgree(t *testing.T) {
	n := 0
	w := &workload{name: "fake", quickOps: 3, cycle: func(p params, c cycleSpec) (*cycleResult, error) {
		n++
		c.speed.sample(1)
		return &cycleResult{opMS: []float64{1, 1, 1}, rate: 1000, digest: fmt.Sprint(n > 2)}, nil
	}}
	r, err := runGated(w, params{quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != r.attempted || r.attempted != 6 {
		t.Errorf("%d of %d ops failed, want 6 of 6", r.failed, r.attempted)
	}
	named := false
	for _, ck := range r.checks {
		named = named || (!ck.ok && ck.name == "fake.cycles_bit_identical")
	}
	if !named {
		t.Errorf("no failed check names the disagreement: %+v", r.checks)
	}
}
