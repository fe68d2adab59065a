package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nektar/internal/simnet"
)

// raceDetector is set by race_test.go under -race.
var raceDetector bool

// TestRegistry: every entry is well-formed, and its flag hook is a
// pure binding — parsing no flags leaves the selected configuration
// exactly the declared one.
func TestRegistry(t *testing.T) {
	names, baselines := map[string]bool{}, map[string]bool{}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "" || e.Desc == "" {
				t.Fatalf("entry %+v lacks a name or description", e)
			}
			if names[e.Name] {
				t.Fatalf("name %q registered twice", e.Name)
			}
			names[e.Name] = true
			if e.Baseline != "" && baselines[e.Baseline] {
				t.Fatalf("two experiments record BENCH_%s.json", e.Baseline)
			}
			baselines[e.Baseline] = true
			if reflect.TypeOf(e.Paper) != reflect.TypeOf(e.Quick) {
				t.Fatalf("paper config %T and quick config %T differ in type", e.Paper, e.Quick)
			}
			for quick, want := range map[bool]any{false: e.Paper, true: e.Quick} {
				fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
				cfg, run := e.Bind(fs, quick)
				if err := fs.Parse(nil); err != nil {
					t.Fatal(err)
				}
				if run == nil {
					t.Fatal("no run")
				}
				if got := reflect.ValueOf(cfg).Elem().Interface(); !reflect.DeepEqual(got, want) {
					t.Errorf("quick=%v: flag hook changed the config with no flag set:\n got %+v\nwant %+v", quick, got, want)
				}
			}
		})
	}

	if e, err := ExperimentByName("trace"); err != nil || e.Name != "trace" {
		t.Fatalf("ExperimentByName(trace) = %v, %v", e, err)
	}
	_, err := ExperimentByName("nosuch")
	if err == nil {
		t.Fatal("unknown experiment name accepted")
	}
	for name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error does not list %q: %v", name, err)
		}
	}
}

// TestRecordEnvelope: the one baseline writer stamps the host, wraps
// the result unchanged, and records exactly the experiments that have
// a baseline — from any host, one core included.
func TestRecordEnvelope(t *testing.T) {
	host := ThisHost()
	if host.Commit == "" || host.Date == "" || host.GoVersion == "" || host.NumCPU < 1 || host.GOMAXPROCS < 1 {
		t.Fatalf("host stamps missing: %+v", host)
	}
	host.NumCPU, host.GOMAXPROCS = 1, 1
	want := &ScalebenchResult{Steps: 2,
		Cells: []ScaleCellResult{{Machine: "PMS", Workload: "skeleton", Procs: 8, Mode: "weak", StepVirtualS: 1.5e-3, Efficiency: 1}}}

	for _, e := range Experiments() {
		dir := t.TempDir()
		path, err := Record(dir, &e, host, true, want)
		if e.Baseline == "" {
			if err == nil {
				t.Errorf("%s: recorded without a baseline", e.Name)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("%s: the refused write still left %v behind", e.Name, left)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: has a baseline, yet a 1-core host was refused: %v", e.Name, err)
			continue
		}
		if _, err := Record(t.TempDir(), &e, host, true, nil); err == nil {
			t.Errorf("%s: a run without a payload (spectral -procs) was recorded", e.Name)
		}
		if path != filepath.Join(dir, "BENCH_"+e.Baseline+".json") {
			t.Errorf("%s recorded to %s", e.Name, path)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env Envelope
		if err := json.Unmarshal(buf, &env); err != nil {
			t.Fatalf("%s: %v\n%s", e.Name, err, buf)
		}
		if env.Experiment != e.Name || env.Config != "quick" || env.Commit != host.Commit ||
			env.Date != host.Date || env.GoVersion != host.GoVersion || env.NumCPU != 1 || env.GOMAXPROCS != 1 {
			t.Errorf("%s: envelope stamps wrong: %+v", e.Name, env)
		}
		var back ScalebenchResult
		if err := json.Unmarshal(env.Result, &back); err != nil || !reflect.DeepEqual(&back, want) {
			t.Errorf("%s: result did not round-trip: %+v (%v)", e.Name, back, err)
		}
	}
}

// TestExperimentsRegenerate: the committed experiments/*.txt are
// byte-for-byte what the registry produces, one subtest per file (so
// `-run 'TestExperimentsRegenerate/scalebench'` re-checks one table and
// -v attributes the time). The three application
// tables and the capacity sweep run at paper scale (minutes), so
// -short, the race detector and a forced scheduler (all virtual-time,
// so the bytes would not differ — only the wait) check the figures
// alone.
func TestExperimentsRegenerate(t *testing.T) {
	files := []string{"fig1-6_kernels", "fig7_pingpong", "fig8_alltoall", "fig9-10_basis"}
	if !testing.Short() && !raceDetector && os.Getenv(simnet.SchedulerEnv) == "" {
		files = append(files, "table1_fig12_serial", "table2_fig13-14_nektarf", "table3_fig15-16_nektarale", "scalebench")
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			e, err := ExperimentByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "experiments", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			_, run := e.Bind(flag.NewFlagSet(name, flag.ContinueOnError), false)
			if _, err := run(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("experiments/%s.txt is stale: regenerate with `go run ./cmd/repro -outdir experiments %s`", name, name)
			}
		})
	}
}
