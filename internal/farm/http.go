package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Handler mounts the farm's HTTP/JSON API:
//
//	POST   /v1/jobs            submit a JobSpec -> JobStatus (201; 200 on
//	                           cache/idempotency hit; 429 + Retry-After on
//	                           backpressure; 503 while draining)
//	GET    /v1/jobs/{id}       job status/result
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/stats           service statistics
//	GET    /v1/healthz         liveness
//	POST   /v1/chaos/killworker  abort a random running attempt (only
//	                           when Config.Chaos is set; 404 otherwise)
//
// Every response body is JSON; errors arrive as {"error": "..."}.
func Handler(f *Farm) http.Handler {
	// maxJobBody caps a submission body (413 beyond it), the first of
	// the bounds keeping client input out of the journal's record limit.
	const maxJobBody = 64 << 10
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A JobSpec is a few hundred bytes; an unbounded body could
		// otherwise grow a journal entry toward the WAL's record limit.
		r.Body = http.MaxBytesReader(w, r.Body, maxJobBody)
		var spec JobSpec
		if err := decodeSpec(r.Body, &spec); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, code, fmt.Errorf("farm: bad job spec: %w", err))
			return
		}
		st, cached, err := f.Submit(spec)
		var busy *BusyError
		switch {
		case errors.As(err, &busy):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(busy.RetryAfter/time.Second)))
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrEntryTooLarge):
			writeErr(w, http.StatusRequestEntityTooLarge, err)
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
		case cached:
			st.Cached = true
			writeJSON(w, http.StatusOK, st)
		default:
			writeJSON(w, http.StatusCreated, st)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := f.Status(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("farm: no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := f.Cancel(r.PathValue("id"))
		if st.ID == "" {
			writeErr(w, http.StatusNotFound, fmt.Errorf("farm: no job %q", r.PathValue("id")))
			return
		}
		if !ok {
			// Already terminal: cancellation is a no-op, report the state.
			writeJSON(w, http.StatusConflict, st)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Snapshot())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if f.cfg.Chaos {
		mux.HandleFunc("POST /v1/chaos/killworker", func(w http.ResponseWriter, r *http.Request) {
			victim := f.KillWorker()
			writeJSON(w, http.StatusOK, map[string]string{"killed": victim})
		})
	}
	return mux
}

// decodeSpec reads exactly one JobSpec from body: a field JobSpec does
// not have (a misspelt "stepz" would otherwise run the default step
// count) or anything after the object is an error naming it.
func decodeSpec(body io.Reader, spec *JobSpec) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	switch err := dec.Decode(new(json.RawMessage)); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("trailing data after the job spec")
	default:
		return fmt.Errorf("trailing data after the job spec: %w", err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
