// Package client is the typed Go client for the flashwalkerd v1 HTTP API.
// It covers every /v1 route: job submission, status, listing, cancellation,
// the live completed-walk stream, DeepWalk corpora, and the graph registry.
//
// Errors returned by the server are decoded from the v1 error envelope
// into *APIError, so callers can switch on the stable machine-readable
// code (or the HTTP status) instead of parsing messages:
//
//	j, err := c.Submit(ctx, client.JobSpec{Graph: "TT-S"})
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == "queue_full" { ... retry ... }
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"flashwalker/internal/service"
)

// Re-exported API types: the wire shapes are defined next to the handlers
// they serve.
type (
	JobSpec    = service.JobSpec
	JobStatus  = service.JobStatus
	JobResult  = service.JobResult
	Progress   = service.Progress
	WalkRecord = service.WalkRecord
	StreamEnd  = service.StreamEnd
	GraphInfo  = service.GraphInfo
)

// Job states and kinds, mirrored for callers that don't import the
// service package.
const (
	StateQueued   = service.StateQueued
	StateRunning  = service.StateRunning
	StateDone     = service.StateDone
	StateCanceled = service.StateCanceled
	StateFailed   = service.StateFailed

	KindFlashWalker = service.KindFlashWalker
	KindGraphWalker = service.KindGraphWalker
	KindDeepWalk    = service.KindDeepWalk
)

// APIError is a decoded v1 error envelope plus the HTTP status it rode on.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable code ("queue_full", ...)
	Message string
	JobID   string
}

func (e *APIError) Error() string {
	if e.JobID != "" {
		return fmt.Sprintf("flashwalker api: %s (%d, job %s): %s", e.Code, e.Status, e.JobID, e.Message)
	}
	return fmt.Sprintf("flashwalker api: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Client talks to one flashwalkerd server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). The optional http.Client configures transport
// and timeouts; nil uses http.DefaultClient. Note a client-level Timeout
// applies to the whole response body and will cut long-lived Stream calls
// short — prefer a context deadline, or a dedicated client for streaming.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// do issues one request and decodes the response into out (ignored when
// nil). Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeAPIError turns a non-2xx response into *APIError, degrading
// gracefully when the body is not a well-formed envelope.
func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode, Code: "internal"}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			JobID   string `json:"job_id"`
		} `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.JobID = env.Error.JobID
	} else {
		apiErr.Message = strings.TrimSpace(string(data))
	}
	return apiErr
}

// Submit posts a job for execution.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Get returns one job's status, live progress included.
func (c *Client) Get(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Cancel requests cancellation and returns the job's status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, &st)
	return st, err
}

// ListQuery filters and pages List.
type ListQuery struct {
	Status string // keep only jobs in this state
	Tenant string // keep only this tenant's jobs
	Limit  int    // page size; 0 uses the server default (100)
	Cursor string // next-cursor from the previous page
}

// JobsPage is one page of the job listing, oldest first.
type JobsPage struct {
	Jobs []JobStatus `json:"jobs"`
	// NextCursor is non-empty exactly when more matching jobs exist.
	NextCursor string `json:"next_cursor"`
}

// List returns one page of jobs.
func (c *Client) List(ctx context.Context, q ListQuery) (JobsPage, error) {
	v := url.Values{}
	if q.Status != "" {
		v.Set("status", q.Status)
	}
	if q.Tenant != "" {
		v.Set("tenant", q.Tenant)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	path := "/v1/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var page JobsPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// ListAll walks every page of the filtered listing (ignoring q.Cursor).
func (c *Client) ListAll(ctx context.Context, q ListQuery) ([]JobStatus, error) {
	var all []JobStatus
	q.Cursor = ""
	for {
		page, err := c.List(ctx, q)
		if err != nil {
			return all, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		q.Cursor = page.NextCursor
	}
}

// Wait polls until the job reaches a terminal state (or ctx is done) and
// returns its final status.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone, StateCanceled, StateFailed:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Stream is a live NDJSON walk stream being consumed.
type Stream struct {
	resp *http.Response
	sc   *bufio.Scanner
	end  *StreamEnd
	next uint64
	err  error
}

// Stream opens the job's completed-walk stream at offset from (walks with
// seq >= from). The stream delivers records while the job runs; close it
// (or cancel ctx) to detach early. On server-side completion, End reports
// the job's terminal state and Next the offset to resume from.
func (c *Client) Stream(ctx context.Context, id string, from uint64) (*Stream, error) {
	path := c.base + "/v1/jobs/" + url.PathEscape(id) + "/stream"
	if from > 0 {
		path += "?from=" + strconv.FormatUint(from, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return &Stream{resp: resp, sc: sc, next: from}, nil
}

// Next returns the next walk record, or ok=false when the stream is over
// (trailer received, connection lost, or context canceled) — check Err
// and End then.
func (s *Stream) Next() (WalkRecord, bool) {
	for s.end == nil && s.err == nil && s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// The trailer is the only frame without a "src" field; records are
		// the only frames with one. Distinguish on the state field.
		if bytes.Contains(line, []byte(`"state"`)) {
			var end StreamEnd
			if json.Unmarshal(line, &end) == nil && end.State != "" {
				s.end = &end
				return WalkRecord{}, false
			}
		}
		rec, err := service.ParseWalkRecord(line)
		if err != nil {
			s.err = fmt.Errorf("client: bad stream frame %q: %w", line, err)
			return WalkRecord{}, false
		}
		s.next = rec.Seq + 1
		return rec, true
	}
	if s.end == nil && s.err == nil {
		s.err = s.sc.Err() // nil on clean EOF without trailer (server gone)
	}
	return WalkRecord{}, false
}

// End returns the server's trailer frame, nil if the stream ended without
// one (connection cut — resume from Next()).
func (s *Stream) End() *StreamEnd { return s.end }

// NextSeq returns the offset to resume from: one past the last record
// received.
func (s *Stream) NextSeq() uint64 { return s.next }

// Err reports a mid-stream failure (bad frame, broken connection).
func (s *Stream) Err() error { return s.err }

// Close detaches from the stream.
func (s *Stream) Close() error { return s.resp.Body.Close() }

// Corpus fetches a finished "deepwalk" job's corpus text and its
// server-reported SHA-256 (hex).
func (c *Client) Corpus(ctx context.Context, id string) (data []byte, sha string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/corpus", nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", decodeAPIError(resp)
	}
	data, err = io.ReadAll(resp.Body)
	return data, resp.Header.Get("X-Corpus-SHA256"), err
}

// Graphs lists the registered graphs.
func (c *Client) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var out []GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, &out)
	return out, err
}

// LoadGraph registers a graph file on the server under name.
func (c *Client) LoadGraph(ctx context.Context, name, path string) (GraphInfo, error) {
	var gi GraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/graphs",
		map[string]string{"name": name, "path": path}, &gi)
	return gi, err
}

// Health checks the liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
