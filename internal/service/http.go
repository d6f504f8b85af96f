package service

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flashwalker/internal/errs"
)

// v1 API errors that don't originate in the manager itself.
var (
	// ErrNoCorpus reports a corpus request against a job that has none
	// (not a finished "deepwalk" job).
	ErrNoCorpus = errors.New("job has no corpus")
	// ErrBadRequest reports a malformed request (undecodable body, bad
	// query parameter).
	ErrBadRequest = errors.New("bad request")
	// ErrBodyTooLarge reports a request body over the configured cap
	// (Config.MaxBodyBytes).
	ErrBodyTooLarge = errors.New("request body too large")
)

// The v1 error contract: every handler answers failures with one JSON
// envelope,
//
//	{"error": {"code": "...", "message": "...", "job_id": "..."}}
//
// where code is a stable machine-readable identifier and job_id is set
// when the failure concerns a specific job. errorTable is the single
// mapping from the service error taxonomy to HTTP status and code; it is
// ordered, and the first errors.Is match wins. Anything unmapped is a 500
// "internal".
var errorTable = []struct {
	target error
	status int
	code   string
}{
	{ErrQueueFull, http.StatusTooManyRequests, "queue_full"},
	{ErrRateLimited, http.StatusTooManyRequests, "rate_limited"},
	{ErrTenantQuota, http.StatusTooManyRequests, "tenant_quota"},
	{ErrUnknownJob, http.StatusNotFound, "unknown_job"},
	{errs.ErrUnknownDataset, http.StatusNotFound, "unknown_graph"},
	{ErrNoCorpus, http.StatusNotFound, "no_corpus"},
	{ErrNoStream, http.StatusConflict, "stream_unsupported"},
	{ErrStreamEvicted, http.StatusGone, "stream_evicted"},
	// Before bad_request: an oversized body is a decode failure too, and
	// the specific code must win.
	{ErrBodyTooLarge, http.StatusRequestEntityTooLarge, "body_too_large"},
	{errs.ErrInvalidConfig, http.StatusBadRequest, "invalid_config"},
	{ErrBadRequest, http.StatusBadRequest, "bad_request"},
}

// apiError is the body of the v1 error envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// httpError resolves err against the error table.
func httpError(err error) (status int, code string) {
	for _, e := range errorTable {
		if errors.Is(err, e.target) {
			return e.status, e.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// writeError emits the v1 error envelope for err; jobID may be empty.
func writeError(w http.ResponseWriter, err error, jobID string) {
	status, code := httpError(err)
	writeJSON(w, status, errorEnvelope{Error: apiError{
		Code: code, Message: err.Error(), JobID: jobID,
	}})
}

// jobsPage is the GET /v1/jobs response.
type jobsPage struct {
	Jobs []JobStatus `json:"jobs"`
	// NextCursor is non-empty exactly when more matching jobs exist; pass
	// it back as ?cursor= to continue.
	NextCursor string `json:"next_cursor,omitempty"`
}

// NewHandler wires the HTTP/JSON v1 API around a Manager:
//
//	POST   /v1/jobs             submit a job (202; 429 on admission rejection)
//	GET    /v1/jobs             page of jobs: ?status= ?tenant= ?limit= ?cursor=
//	GET    /v1/jobs/{id}        one job's status, live progress included
//	POST   /v1/jobs/{id}/cancel request cancellation (202)
//	GET    /v1/jobs/{id}/stream NDJSON of completed walks, live; ?from=seq resumes
//	GET    /v1/jobs/{id}/corpus a finished "deepwalk" job's corpus text
//	GET    /v1/graphs           list registered graphs
//	POST   /v1/graphs           load a graph file into the registry
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus text metrics
//
// Every failure is the JSON error envelope; see errorTable for the
// status/code contract.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	// decodeBody decodes a JSON request body under the configured size
	// cap. Oversized bodies map to the stable body_too_large code rather
	// than a generic decode failure.
	decodeBody := func(w http.ResponseWriter, r *http.Request, what string, v any) error {
		body := http.MaxBytesReader(w, r.Body, m.maxBodyBytes)
		if err := json.NewDecoder(body).Decode(v); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return fmt.Errorf("service: %s exceeds the %d-byte request cap: %w",
					what, tooBig.Limit, ErrBodyTooLarge)
			}
			return fmt.Errorf("service: decoding %s: %v: %w", what, err, ErrBadRequest)
		}
		return nil
	}

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := decodeBody(w, r, "job spec", &spec); err != nil {
			writeError(w, err, "")
			return
		}
		j, err := m.Submit(spec)
		if err != nil {
			writeError(w, err, "")
			return
		}
		writeJSON(w, http.StatusAccepted, j.Status())
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := ListFilter{
			Status: q.Get("status"),
			Tenant: q.Get("tenant"),
			Cursor: q.Get("cursor"),
		}
		switch f.Status {
		case "", StateQueued, StateRunning, StateDone, StateCanceled, StateFailed:
		default:
			writeError(w, fmt.Errorf("service: unknown status %q: %w", f.Status, ErrBadRequest), "")
			return
		}
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				writeError(w, fmt.Errorf("service: bad limit %q: %w", s, ErrBadRequest), "")
				return
			}
			f.Limit = n
		}
		jobs, next := m.ListPage(f)
		writeJSON(w, http.StatusOK, jobsPage{Jobs: jobs, NextCursor: next})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, err := m.Get(id)
		if err != nil {
			writeError(w, err, id)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			writeError(w, err, id)
			return
		}
		j, err := m.Get(id)
		if err != nil {
			writeError(w, err, id)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Status())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, err := m.Get(id)
		if err != nil {
			writeError(w, err, id)
			return
		}
		if j.stream == nil {
			writeError(w, fmt.Errorf("service: %q job %s: %w", j.Spec.Kind, id, ErrNoStream), id)
			return
		}
		var from uint64
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeError(w, fmt.Errorf("service: bad from offset %q: %w", s, ErrBadRequest), id)
				return
			}
			from = v
		}
		rd, err := j.stream.attach(from)
		if err != nil {
			writeError(w, err, id)
			return
		}
		defer rd.detach()

		// The stream is long-lived: clear the per-request read deadline the
		// server armed from ReadTimeout, or it would sever a healthy stream
		// once the deadline lapses.
		_ = http.NewResponseController(w).SetReadDeadline(time.Time{})

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		var buf []byte
		for {
			batch, end, err := rd.next(r.Context())
			if err != nil {
				return // client went away
			}
			if end != nil {
				_ = json.NewEncoder(w).Encode(end)
				if fl != nil {
					fl.Flush()
				}
				return
			}
			buf = buf[:0]
			for i := range batch {
				buf = AppendWalkRecord(buf, &batch[i])
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/corpus", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, err := m.Get(id)
		if err != nil {
			writeError(w, err, id)
			return
		}
		c := j.Corpus()
		if c == nil {
			writeError(w, fmt.Errorf("service: %w (not a finished deepwalk job)", ErrNoCorpus), id)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Corpus-SHA256", hex.EncodeToString(c.SHA[:]))
		_, _ = w.Write(c.Data)
	})

	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Registry().List())
	})

	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
			Path string `json:"path"`
		}
		if err := decodeBody(w, r, "graph request", &req); err != nil {
			writeError(w, err, "")
			return
		}
		gi, err := m.Registry().Load(req.Name, req.Path)
		if err != nil {
			if _, code := httpError(err); code == "internal" {
				// Load failures (unreadable path, parse error) are the
				// caller's fault, not the service's.
				err = fmt.Errorf("service: loading graph: %v: %w", err, ErrBadRequest)
			}
			writeError(w, err, "")
			return
		}
		writeJSON(w, http.StatusCreated, gi)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(m.Metrics()))
	})

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
