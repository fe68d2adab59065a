package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check and the
// tests need: the gated metrics with the bound fixed for each, and the
// names the two kinds of run must print.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the acceptance check computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runOnce executes one gated run of one workload in a fresh process of
// this same binary, as the acceptance check does, and returns its
// metrics.
func runOnce(exe, workload string, seed uint64, seconds float64, quick bool) (map[string]float64, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if quick {
		args = append(args, "-quick")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", exe, strings.Join(args, " "), err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line of %s is not a result: %w", workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: %d of %d ops failed", workload, res.Failed, res.Attempted)
	}
	out := map[string]float64{}
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}

// aaCell is one workload x metric cell of an A/A check.
type aaCell struct {
	medianA, medianB float64
	spreadA, spreadB float64 // interquartile range over median
	spanAll          float64 // (max - min) / median over both sets together
	gap              float64 // (medianB - medianA) / medianA
	verdict          string  // "ok", or what exceeded the bound
}

// judgeAA compares two sets of values one build produced. Whatever
// separates them is noise, so a gap between the medians beyond the
// bound in either direction, or a spread of either set beyond it, means
// the bound cannot tell a regression from the weather.
func judgeAA(a, b []float64, bound float64) aaCell {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	all := sorted(append(append([]float64(nil), a...), b...))
	c := aaCell{medianA: a2, medianB: b2, spreadA: (a3 - a1) / a2, spreadB: (b3 - b1) / b2, gap: (b2 - a2) / a2, verdict: "ok",
		spanAll: (all[len(all)-1] - all[0]) / quantile(all, 0.5)}
	if math.Abs(c.gap) > bound {
		c.verdict = "EXCESS: medians differ by more than the bound"
	} else if max(c.spreadA, c.spreadB) > bound {
		c.verdict = "EXCESS: spread wider than the bound"
	}
	return c
}

// runAA is the A/A check: k interleaved pairs of full sets of this one
// build, judged cell by cell (see judgeAA). It exits 1 on any excess.
// The span column — highest minus lowest of all 2k runs over their
// median — is printed for the reader and judged by nobody.
func runAA(k int, all []*workload, seed uint64, seconds float64, quick bool, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "A/A check: %d interleaved pairs of full sets, one build\n", k)
	fmt.Fprintf(stdout, "env numcpu=%d go=%s commit=%s seed=%d quick=%v seconds=%g\n",
		runtime.NumCPU(), runtime.Version(), commit, seed, quick, seconds)

	// values[set][workload][metric] collects one value per pair.
	values := [2]map[string]map[string][]float64{{}, {}}
	for pair := 0; pair < k; pair++ {
		for turn := 0; turn < 2; turn++ {
			set := (pair + turn) % 2 // alternate which set goes first
			for _, w := range all {
				ms, err := runOnce(exe, w.name, seed, seconds, quick)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: -aa: %v\n", err)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, v := range ms {
					values[set][w.name][name] = append(values[set][w.name][name], v)
				}
			}
			fmt.Fprintf(stdout, "pair %d set %c done\n", pair+1, 'A'+rune(set))
		}
	}

	fmt.Fprintf(stdout, "\n%-11s %-10s %12s %12s %8s %8s %8s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "span A+B", "B vs A", "bound", "verdict")
	excess := 0
	for _, w := range all {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stderr, "benchmark: -aa: %s never reported %s\n", w.name, m.Name)
				return 1
			}
			c := judgeAA(a, b, m.Bound)
			if c.verdict != "ok" {
				excess++
			}
			fmt.Fprintf(stdout, "%-11s %-10s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %+8.2f%% %5.0f%%  %s\n",
				w.name, m.Name, c.medianA, c.medianB, 100*c.spreadA, 100*c.spreadB, 100*c.spanAll, 100*c.gap, 100*m.Bound, c.verdict)
		}
	}
	if excess > 0 {
		fmt.Fprintf(stdout, "\n%d workload x metric cells exceed their bound\n", excess)
		return 1
	}
	fmt.Fprintf(stdout, "\nevery workload x metric agrees within its bound\n")
	return 0
}
