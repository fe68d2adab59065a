package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Trace-event schema. One JSON object per line (JSONL); every event
// carries ev, rank, and step. JSON has no NaN or infinity, so a float
// field holding one is written as 0 and spelled out, by JSON name, in a
// "nonfinite" object ({"max_abs":"NaN"}, {"bins.3":"+Inf"}); ReadEvents
// puts it back. Seconds fields are deltas for the event's step, not
// accumulators:
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
	if !t.scratch.finite() {
		// JSON has no NaN or Inf: such values travel as strings in a
		// "nonfinite" object, their own fields left zero.
		_ = t.enc.Encode(t.scratch.wire())
		return
	}
	// Encoding can only fail on the writer; a trace is advisory
	// instrumentation, so a broken sink must not kill the run.
	_ = t.enc.Encode(&t.scratch)
}

// wireEvent is an event with non-finite floats on the wire: NonFinite
// maps each such field's JSON name ("bins.i" for element i of Bins) to
// strconv's spelling of the value ("NaN", "+Inf", "-Inf").
type wireEvent struct {
	Event
	NonFinite map[string]string `json:"nonfinite,omitempty"`
}

// floatFields names the event's scalar float fields by JSON name.
var floatFields = [...]string{"host_s", "priced_s", "wall_s", "max_abs", "ratio", "hidden_s",
	"exposed_s", "mtbf_s", "delta_s", "energy", "enstrophy", "dissipation"}

// floatField returns the scalar float field with the given JSON name,
// nil for none.
func (e *Event) floatField(name string) *float64 {
	switch name {
	case "host_s":
		return &e.HostS
	case "priced_s":
		return &e.PricedS
	case "wall_s":
		return &e.WallS
	case "max_abs":
		return &e.MaxAbs
	case "ratio":
		return &e.Ratio
	case "hidden_s":
		return &e.HiddenS
	case "exposed_s":
		return &e.ExposedS
	case "mtbf_s":
		return &e.MTBFS
	case "delta_s":
		return &e.DeltaS
	case "energy":
		return &e.Energy
	case "enstrophy":
		return &e.Enstrophy
	case "dissipation":
		return &e.Dissipation
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finite reports whether every float in the event is finite, the only
// case plain JSON encodes.
func (e *Event) finite() bool {
	for _, name := range floatFields {
		if !isFinite(*e.floatField(name)) {
			return false
		}
	}
	for _, v := range e.Bins {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// wire moves the event's non-finite floats into NonFinite. The event's
// Bins slice belongs to the caller, so a copy carries the zeroes.
func (e Event) wire() *wireEvent {
	w := &wireEvent{Event: e, NonFinite: map[string]string{}}
	for _, name := range floatFields {
		if f := w.floatField(name); !isFinite(*f) {
			w.NonFinite[name] = strconv.FormatFloat(*f, 'g', -1, 64)
			*f = 0
		}
	}
	if len(e.Bins) > 0 {
		w.Bins = append([]float64(nil), e.Bins...)
		for i, v := range w.Bins {
			if !isFinite(v) {
				w.NonFinite["bins."+strconv.Itoa(i)] = strconv.FormatFloat(v, 'g', -1, 64)
				w.Bins[i] = 0
			}
		}
	}
	return w
}

// restore puts the values of w.NonFinite back into their fields.
func (w *wireEvent) restore() error {
	for name, text := range w.NonFinite {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil || isFinite(v) {
			return fmt.Errorf("non-finite field %s = %q is not NaN or an infinity", name, text)
		}
		if f := w.floatField(name); f != nil {
			*f = v
			continue
		}
		i, err := strconv.Atoi(strings.TrimPrefix(name, "bins."))
		if !strings.HasPrefix(name, "bins.") || err != nil || i < 0 || i >= len(w.Bins) {
			return fmt.Errorf("non-finite field %q names no float of the event", name)
		}
		w.Bins[i] = v
	}
	return nil
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
		var w wireEvent
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, fmt.Errorf("engine: trace line %d: %w", line, err)
		}
		if err := w.restore(); err != nil {
			return nil, fmt.Errorf("engine: trace line %d: %w", line, err)
		}
		evs = append(evs, w.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading trace: %w", err)
	}
	return evs, nil
}
