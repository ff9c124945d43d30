// Package client is the Go client for a running thermflowd server
// (cmd/thermflowd) or thermflowgate pool: the asynchronous job
// lifecycle (submit, poll, long-poll wait), ID-keyed batch streams,
// status and cache counters, kernel listing and cache reset, speaking
// the wire types of thermflow/api.
//
// Typical use:
//
//	cl := client.New("http://localhost:8080", nil, client.WithToken(token))
//	st, err := cl.RunJob(ctx, api.JobRequest{Kernel: "matmul"}) // until terminal
//	fmt.Println(st.State, st.Result.PeakTemp, st.Cached)
//
// Requests that fail with 429 or a retryable 5xx are retried with
// exponential backoff, honouring the server's Retry-After header and
// the caller's context between sleeps. Submitting a job is idempotent
// by construction — the job ID is the content hash — so retried
// submissions converge on the same job.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"thermflow/api"
)

// Default retry policy (override with WithRetries / WithBackoff).
const (
	// DefaultAttempts is the total tries per request.
	DefaultAttempts = 3
	// DefaultBackoff is the first retry delay; it doubles per retry.
	DefaultBackoff = 100 * time.Millisecond
)

// Client talks to one thermflowd server. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	token    string
	attempts int
	backoff  time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithToken sends the bearer token on every request (thermflowd
// -auth-token-file).
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithRetries sets the total attempts per request (minimum 1, i.e. no
// retries).
func WithRetries(attempts int) Option {
	return func(c *Client) {
		if attempts < 1 {
			attempts = 1
		}
		c.attempts = attempts
	}
}

// WithBackoff sets the first retry delay (doubled per retry; the
// server's Retry-After wins when present and longer).
func WithBackoff(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). httpClient nil selects a default client
// with no overall timeout — batch streams are long-lived; bound them
// with the request context instead.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"), hc: httpClient,
		attempts: DefaultAttempts, backoff: DefaultBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx server response.
type APIError struct {
	// StatusCode is the HTTP status; Message the server's error body.
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent) —
	// set on 429 quota and 503 busy responses.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("thermflowd: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying the identical request may
// succeed: a tenant quota, registry pressure, or a transient upstream
// fault.
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// do issues a request and decodes a 2xx JSON body into out (when
// non-nil), converting error responses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues a request, retrying temporary failures with backoff, and
// returns the response with a verified 2xx status; the caller owns the
// body. Between attempts it sleeps the server's Retry-After when given
// (else exponential backoff), aborting promptly when ctx is done.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	var last error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, retryDelay(last, c.backoff, attempt)); err != nil {
				return nil, err
			}
		}
		resp, err := c.attempt(ctx, method, path, body, in != nil)
		if err == nil {
			return resp, nil
		}
		last = err
		if ctx.Err() != nil {
			return nil, err
		}
		apiErr, ok := err.(*APIError)
		if ok && !apiErr.Temporary() {
			return nil, err
		}
		// Transport errors (connection refused, reset) are retried
		// alongside Temporary API errors.
	}
	return nil, last
}

// sleep waits d or until ctx is done, whichever first — a cancelled
// context must not be held hostage by a long Retry-After.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryDelay picks the wait before the attempt-th retry: the server's
// Retry-After when it gave one, else base << (attempt-1).
func retryDelay(last error, base time.Duration, attempt int) time.Duration {
	if apiErr, ok := last.(*APIError); ok && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter
	}
	return base << (attempt - 1)
}

// attempt issues one request.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, hasBody bool) (*http.Response, error) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := c.newRequest(ctx, method, path, rd, hasBody)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, apiErrorFrom(resp)
	}
	return resp, nil
}

// newRequest builds a request with the standard headers.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader, hasBody bool) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// apiErrorFrom drains a non-2xx response into an *APIError, surfacing
// the Retry-After header when the server sent one.
func apiErrorFrom(resp *http.Response) *APIError {
	msg := resp.Status
	var e api.ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		} else if when, err := http.ParseTime(ra); err == nil {
			if d := time.Until(when); d > 0 {
				apiErr.RetryAfter = d
			}
		}
	}
	return apiErr
}

// SubmitJob registers a v2 job (POST /v2/jobs) and returns its handle
// without waiting. Submission is idempotent: the ID is the content
// hash, so re-submitting (including automatic retries) converges on
// the same job.
func (c *Client) SubmitJob(ctx context.Context, req api.JobRequest) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job reads a job's current status (GET /v2/jobs/{id}). An expired job
// is a valid status (State "expired"), not an error.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	return c.jobStatus(ctx, "/v2/jobs/"+id)
}

// JobTrace fetches a job's recorded timeline
// (GET /v2/jobs/{id}/trace): the phase spans — server requests, queue
// wait, run, solve — under one trace ID. Timelines are
// bounded in-memory server state; a known job whose trace aged out (or
// that was submitted untraced) answers 404.
func (c *Client) JobTrace(ctx context.Context, id string) (*api.TraceResponse, error) {
	var out api.TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob long-polls a job (GET /v2/jobs/{id}/wait) for up to timeout
// (<= 0 selects the server default window) and returns the then-
// current status — terminal or not; callers loop on State. An expired
// job is returned as a status, not an error.
func (c *Client) WaitJob(ctx context.Context, id string, timeout time.Duration) (*api.JobStatus, error) {
	path := "/v2/jobs/" + id + "/wait"
	if timeout > 0 {
		path += fmt.Sprintf("?timeout_ms=%d", timeout.Milliseconds())
	}
	return c.jobStatus(ctx, path)
}

// RunJob submits a job and long-polls until it reaches a terminal
// state or ctx is done — the convenient synchronous face of the
// asynchronous API, with the job surviving client disconnects.
func (c *Client) RunJob(ctx context.Context, req api.JobRequest) (*api.JobStatus, error) {
	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		return nil, err
	}
	for !terminalState(st.State) {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if st, err = c.WaitJob(ctx, st.ID, 0); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "expired"
}

// jobStatus fetches a JobStatus, accepting the 504 that carries an
// expired job's body. HTTP answers are never retried — polling loops
// are their own retry policy — but transport errors (connection
// refused or reset while a backend restarts, or while a gateway fails
// the ID over to another backend) are, with the same backoff as send:
// job reads are idempotent, and a sweep in progress should converge
// across a restart instead of erroring.
func (c *Client) jobStatus(ctx context.Context, path string) (*api.JobStatus, error) {
	var last error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, retryDelay(last, c.backoff, attempt)); err != nil {
				return nil, err
			}
		}
		st, err := c.jobStatusOnce(ctx, path)
		if err == nil {
			return st, nil
		}
		last = err
		if ctx.Err() != nil {
			return nil, err
		}
		if apiErr, ok := err.(*APIError); ok {
			// 502/503 are the gateway's failover window — the owner
			// died and the ring has not re-routed the ID yet. Anything
			// else is a server answer about the job, and the polling
			// loop is its own retry policy.
			if apiErr.StatusCode != http.StatusBadGateway &&
				apiErr.StatusCode != http.StatusServiceUnavailable {
				return nil, err
			}
		}
	}
	return nil, last
}

// jobStatusOnce issues one status fetch.
func (c *Client) jobStatusOnce(ctx context.Context, path string) (*api.JobStatus, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil, false)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusGatewayTimeout {
		var out api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("client: job status: %w", err)
		}
		if out.ID != "" {
			out.Replica = resp.Header.Get(api.ReplicaHeader) != ""
			return &out, nil
		}
		// A 504 without a job body is a gateway's, not thermflowd's.
	}
	return nil, apiErrorFrom(resp)
}

// CompileBatchJobs submits jobs in one request (POST /v2/batch) and
// calls onItem per result as the server streams it back, in completion
// order. Items carry both the submission index and the job ID — the
// latter stable across servers, duplicates sharing one ID. Each item
// is a registered job: a refused one (tenant quota, shed, busy)
// carries the refusal in its Error, and cancelling ctx ends the stream
// but not the jobs, which stay readable with Job and WaitJob.
func (c *Client) CompileBatchJobs(ctx context.Context, jobs []api.JobRequest, onItem func(api.JobItem)) error {
	resp, err := c.send(ctx, http.MethodPost, "/v2/batch", api.JobsBatchRequest{Jobs: jobs})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return scanNDJSON(resp.Body, func(line []byte) error {
		var item api.JobItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("client: malformed batch stream line: %w", err)
		}
		if onItem != nil {
			onItem(item)
		}
		return nil
	})
}

// scanNDJSON feeds each non-empty stream line to fn.
func scanNDJSON(r io.Reader, fn func([]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Kernels lists the server's built-in benchmark kernels
// (GET /v2/kernels).
func (c *Client) Kernels(ctx context.Context) ([]api.KernelInfo, error) {
	var out api.KernelsResponse
	if err := c.do(ctx, http.MethodGet, "/v2/kernels", nil, &out); err != nil {
		return nil, err
	}
	return out.Kernels, nil
}

// ResetCache drops the server's result cache and zeroes its counters
// (DELETE /v2/cache), returning the zeroed stats. Through a gateway the
// reset covers every configured backend; see api.CacheResetResponse.
func (c *Client) ResetCache(ctx context.Context) (api.CacheStats, error) {
	var out api.CacheStats
	err := c.do(ctx, http.MethodDelete, "/v2/cache", nil, &out)
	return out, err
}

// Stats reads the server's status snapshot — job-registry counters
// plus cache counters (GET /v2/stats).
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v2/stats", nil, &out)
	return out, err
}
