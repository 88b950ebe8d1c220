package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", handleSubmit("job", s.Submit))
	// Search jobs share the queue, status and stream endpoints of sweep
	// jobs: searched instead of enumerated.
	mux.HandleFunc("POST /v1/search", handleSubmit("search", s.SubmitSearch))
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	mux.HandleFunc("POST /v1/store/compact", s.handleStoreCompact)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.coord != nil {
		s.coord.Mount(mux) // /v1/workers fleet protocol (coordinator mode)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// decodeSpec strict-decodes one spec of type S: an unknown field, or
// anything but whitespace after the spec, is an error, so a concatenated
// second spec cannot be dropped without notice.
func decodeSpec[S any](body io.Reader) (S, error) {
	var spec S
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("trailing data after the spec")
	}
	return spec, nil
}

// handleSubmit returns a job-submission handler: it strict-decodes a spec
// of type S (decodeSpec; a refusal is 400), submits it and answers 202 with
// the accepted job's status. An invalid spec — unknown mode, platform,
// objective, infeasible ladder, ... — is 400, queue backpressure 503 and
// anything else 500.
func handleSubmit[S any](kind string, submit func(S) (JobStatus, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec[S](r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad " + kind + " spec: " + err.Error()})
			return
		}
		st, err := submit(spec)
		if err != nil {
			code := http.StatusInternalServerError
			var bad *BadSpecError
			var full *QueueFullError
			switch {
			case errors.As(err, &bad):
				code = http.StatusBadRequest
			case errors.As(err, &full):
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream replays the job's event log as NDJSON and follows it until
// the terminal DoneEvent, flushing after every batch so a watching client
// sees cells as they settle.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	offset := 0
	for {
		events, done, wait := j.follow(offset)
		for _, e := range events {
			if _, err := w.Write(e); err != nil {
				return
			}
		}
		offset += len(events)
		if len(events) > 0 {
			rc.Flush()
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StoreStatus())
}

// handleStoreCompact is the admin endpoint behind `scalefold store compact
// -server`: rewrite the persistent store down to its live records.
func (s *Server) handleStoreCompact(w http.ResponseWriter, r *http.Request) {
	st, ok, err := s.CompactStore()
	if !ok {
		writeJSON(w, http.StatusConflict, apiError{Error: "store is memory-only; nothing to compact"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleMetrics serves the registry in Prometheus text exposition format —
// service, store and (coordinator mode) fabric series in one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleTrace serves the job's cell-lifecycle spans as Chrome trace-event
// JSON — loadable as-is in chrome://tracing or Perfetto, same format the
// simulator's own Timeline export uses. Valid at any point in the job's life;
// a still-running job yields the spans settled so far.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.id+`-trace.json"`)
	j.trace.WriteChromeTrace(w)
}
