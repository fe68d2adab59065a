package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Host stamps a recorded baseline with what produced it: every number
// in a BENCH file only means something relative to these.
type Host struct {
	Commit     string `json:"commit"` // git describe --always --dirty
	Date       string `json:"date"`   // UTC, RFC 3339
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ThisHost describes the running process and the checkout it runs in.
func ThisHost() Host {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Host{
		Commit:     commit,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Envelope is the one schema of every BENCH_*.json: what was run, on
// what, and the experiment's own result under "result".
type Envelope struct {
	Experiment string `json:"experiment"`
	Host
	Config string          `json:"config"` // "paper" or "quick"
	Result json.RawMessage `json:"result"`
}

// Recordable reports whether e's result may be recorded: the
// experiment must have a baseline.
func (e *Experiment) Recordable() error {
	if e.Baseline == "" {
		return fmt.Errorf("bench: experiment %s records no baseline: its committed artifact is its table", e.Name)
	}
	return nil
}

// Record writes result, as returned by e's run, to BENCH_<e.Baseline>.json
// in dir, wrapped in the envelope. It is the only writer of those files.
func Record(dir string, e *Experiment, h Host, quick bool, result any) (string, error) {
	if err := e.Recordable(); err != nil {
		return "", err
	}
	if result == nil {
		return "", fmt.Errorf("bench: this run of %s returned no baseline payload (its flags selected a mode that records nothing)", e.Name)
	}
	env := Envelope{Experiment: e.Name, Host: h, Config: "paper"}
	if quick {
		env.Config = "quick"
	}
	var err error
	if env.Result, err = json.Marshal(result); err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+e.Baseline+".json")
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}
