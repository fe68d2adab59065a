package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Trace-event schema. One JSON object per line (JSONL); every event
// carries ev, rank, and step. Seconds fields are deltas for the event's
// step, not accumulators:
//
//	step        one solver step finished; host_s/priced_s/wall_s are
//	            the step's totals across all stages
//	stage       per-stage share of one step (only stages that did work)
//	checkpoint  a checkpoint of bytes size was staged at step (final
//	            marks the run's end-state snapshot)
//	ckpt_begin  the marshalled state was handed to the checkpoint sink
//	            (exposed durable-write lifecycle starts)
//	ckpt_done   the sink made the record durable: stored/ratio are the
//	            framed size and compression ratio, hidden_s the write
//	            time overlapped with stepping, exposed_s the time the
//	            step loop actually blocked (backpressure)
//	trip        the watchdog ended the run: max_abs/finite explain why
//	halt        a Poll-ordered halt ended the run at step
//	done        the run reached its target step count
//
// The adaptive-cadence controller (internal/policy) adds one event:
//
//	policy_switch  the live cadence changed: policy names the controller
//	               ("cadence"), from/to the old and new intervals, and
//	               the evidence rides along (mtbf_s, delta_s, interval)
//
// The spectral solvers (internal/spectral) add two online-diagnostic
// events, emitted by rank 0 at the solver's DiagEvery cadence:
//
//	spectrum     the shell-summed energy spectrum at step: bins[i] is
//	             the kinetic energy in integer shell round(|k|) = i,
//	             energy the total over all modes
//	dissipation  the scalar budget at step: energy, enstrophy, and the
//	             dissipation rate 2*nu*enstrophy
const (
	EvStep         = "step"
	EvStage        = "stage"
	EvCheckpoint   = "checkpoint"
	EvCkptBegin    = "ckpt_begin"
	EvCkptDone     = "ckpt_done"
	EvTrip         = "trip"
	EvHalt         = "halt"
	EvDone         = "done"
	EvPolicySwitch = "policy_switch"
	EvSpectrum     = "spectrum"
	EvDissipation  = "dissipation"
)

// Event is one trace record.
type Event struct {
	Ev   string `json:"ev"`
	Rank int    `json:"rank"`
	Step int    `json:"step"`

	Stage   string  `json:"stage,omitempty"`
	HostS   float64 `json:"host_s,omitempty"`
	PricedS float64 `json:"priced_s,omitempty"`
	WallS   float64 `json:"wall_s,omitempty"`

	Bytes  int     `json:"bytes,omitempty"`
	MaxAbs float64 `json:"max_abs,omitempty"`
	Finite *bool   `json:"finite,omitempty"`

	// Durable-write fields (ckpt_begin/ckpt_done, see internal/ckpt).
	Stored   int     `json:"stored,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	HiddenS  float64 `json:"hidden_s,omitempty"`
	ExposedS float64 `json:"exposed_s,omitempty"`
	// Final marks the run's end-state snapshot (checkpoint events).
	Final bool `json:"final,omitempty"`

	// Adaptive-policy fields (policy_switch, internal/policy).
	Policy   string  `json:"policy,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
	MTBFS    float64 `json:"mtbf_s,omitempty"`
	DeltaS   float64 `json:"delta_s,omitempty"`
	Interval int     `json:"interval,omitempty"`

	// Spectral-diagnostic fields (spectrum/dissipation,
	// internal/spectral). Bins is the shell-summed energy spectrum.
	Bins        []float64 `json:"bins,omitempty"`
	Energy      float64   `json:"energy,omitempty"`
	Enstrophy   float64   `json:"enstrophy,omitempty"`
	Dissipation float64   `json:"dissipation,omitempty"`
}

// Tracer serializes events from concurrently stepping ranks onto one
// JSONL stream. The simulated cluster runs ranks as goroutines, so the
// writer is mutex-guarded.
type Tracer struct {
	mu      sync.Mutex
	enc     *json.Encoder
	scratch Event // reused encode target, guarded by mu
}

// NewTracer wraps w in a tracer. The caller owns closing w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{enc: json.NewEncoder(w)}
}

// Emit writes one event as a JSON line.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Copying into the tracer-owned scratch keeps the argument from
	// escaping; the step loop emits several events per step.
	t.scratch = e
	// Encoding can only fail on the writer; a trace is advisory
	// instrumentation, so a broken sink must not kill the run.
	_ = t.enc.Encode(&t.scratch)
}

// ReadEvents parses a JSONL trace stream back into events, for report
// generation over a recorded run.
func ReadEvents(r io.Reader) ([]Event, error) {
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("engine: trace line %d: %w", line, err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading trace: %w", err)
	}
	return evs, nil
}
