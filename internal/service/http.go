package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"wpinq/internal/budget"
	"wpinq/internal/graph"
	"wpinq/internal/obs"
	"wpinq/internal/synth"
)

// Handler returns the HTTP JSON API over the service:
//
//	GET    /v1/healthz                    health probe (build, uptime, load)
//	GET    /metrics                       Prometheus-text metrics
//	POST   /v1/datasets?name=&budget=     upload an edge list (text body)
//	GET    /v1/datasets                   list dataset ledgers
//	GET    /v1/datasets/{id}              one dataset's ledger
//	POST   /v1/datasets/{id}/measure      take DP measurements (JSON MeasureRequest)
//	GET    /v1/datasets/{id}/provenance   hash-chained release ledger + budget snapshot
//	GET    /v1/measurements               list stored releases
//	GET    /v1/measurements/{id}          fetch one release's stored bytes
//	POST   /v1/jobs                       submit a synthesis job (JSON JobRequest)
//	GET    /v1/jobs                       list jobs
//	GET    /v1/jobs/{id}                  poll one job's progress
//	DELETE /v1/jobs/{id}                  cancel a job
//	POST   /v1/jobs/{id}/resume           re-queue a durable job from its checkpoint
//	GET    /v1/jobs/{id}/result           download the synthetic edge list
//
// Errors are JSON APIError bodies; budget overdraw maps to
// 402 Payment Required with code "insufficient_budget". Every response
// carries an X-Request-ID (echoed from the request, or generated), and
// every request is counted and timed under wpinq_http_* metrics labeled
// by route pattern.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.Handle("GET /metrics", obs.Default.Handler())
	mux.HandleFunc("POST /v1/datasets", s.handleUpload)
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.registry.List())
	})
	mux.HandleFunc("GET /v1/datasets/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.registry.Info(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/datasets/{id}/measure", s.handleMeasure)
	mux.HandleFunc("GET /v1/datasets/{id}/provenance", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Provenance(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/measurements", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.store.List())
	})
	mux.HandleFunc("GET /v1/measurements/{id}", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.store.Bytes(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write(data); err != nil {
			httpWriteErrors.Inc()
		}
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.jobs.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.jobs.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.jobs.Cancel(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.ResumeJob(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		g, _, err := s.jobs.Result(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := graph.WriteEdgeList(w, g); err != nil {
			httpWriteErrors.Inc()
		}
	})
	return instrument(mux, s.opts.Logger)
}

func (s *Service) handleUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	total, err := strconv.ParseFloat(q.Get("budget"), 64)
	if err != nil {
		writeErr(w, &APIError{
			Status:  http.StatusBadRequest,
			Code:    CodeBadRequest,
			Message: "budget query parameter (total epsilon) is required and must be a number",
		})
		return
	}
	info, err := s.registry.Upload(q.Get("name"), total, r.Body)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// maxJSONBody bounds a JSON request body. A measure or job request is a
// few hundred bytes; uploads are not JSON and stay streaming (the edge-list
// scanner bounds a line at 4 MiB).
const maxJSONBody = 1 << 20

// decodeJSON reads r's body, at most maxJSONBody of it, as exactly one
// JSON value into v: bytes after the value, and a field v does not have,
// are an error, not ignored — a client naming a setting the server does
// not read is told so rather than served something else.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var tooLarge *http.MaxBytesError
	if _, err := dec.Token(); errors.As(err, &tooLarge) {
		return err
	} else if err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

func (s *Service) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("decoding measure request: %w", err))
		return
	}
	res, err := s.Measure(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, fmt.Errorf("decoding job request: %w", err))
		return
	}
	st, err := s.SubmitJob(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		httpWriteErrors.Inc()
	}
}

// badRequest wraps a validation error so writeErr maps it to 400.
func badRequest(err error) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: err.Error()}
}

// writeErr maps domain errors onto structured JSON responses.
func writeErr(w http.ResponseWriter, err error) {
	var api *APIError
	var overdraw *budget.InsufficientBudgetError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &api):
	case errors.As(err, &tooLarge):
		api = &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodeRequestTooLarge, Message: err.Error()}
	case errors.As(err, &overdraw):
		api = &APIError{
			Status:    http.StatusPaymentRequired,
			Code:      CodeInsufficientBudget,
			Message:   overdraw.Error(),
			Requested: overdraw.Requested,
			Remaining: overdraw.Remaining,
		}
	case errors.Is(err, ErrNotFound):
		api = &APIError{Status: http.StatusNotFound, Code: CodeNotFound, Message: err.Error()}
	case errors.Is(err, ErrDiscarded):
		api = &APIError{Status: http.StatusGone, Code: CodeDatasetDiscarded, Message: err.Error()}
	case errors.Is(err, ErrQueueFull):
		api = &APIError{Status: http.StatusServiceUnavailable, Code: CodeQueueFull, Message: err.Error()}
	case errors.Is(err, ErrJobNotDone):
		api = &APIError{Status: http.StatusConflict, Code: CodeJobNotDone, Message: err.Error()}
	case errors.Is(err, ErrJobFinished):
		api = &APIError{Status: http.StatusConflict, Code: CodeJobFinished, Message: err.Error()}
	case errors.Is(err, ErrManagerClosed):
		api = &APIError{Status: http.StatusServiceUnavailable, Code: CodeShuttingDown, Message: err.Error()}
	case errors.Is(err, synth.ErrCheckpointStale):
		api = &APIError{Status: http.StatusConflict, Code: CodeCheckpointStale, Message: err.Error()}
	case errors.Is(err, ErrInternal):
		api = &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
	default:
		// Validation failures surface from synth/graph parsing as plain
		// errors (synth.ErrMeasurementFormat among them); anything
		// unrecognized is the caller's input, not server state, so 400 is
		// the safe default.
		api = badRequest(err)
	}
	writeJSON(w, api.Status, api)
}
