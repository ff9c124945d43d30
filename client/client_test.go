package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"thermflow/api"
	"thermflow/internal/batch"
	"thermflow/internal/server"
)

// flakyHandler answers with the scripted statuses, then 200 with body.
func flakyHandler(statuses []int, retryAfter string, calls *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n < len(statuses) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(statuses[n])
			_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "try later"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.StatsResponse{Cache: api.CacheStats{Workers: 7}})
	})
}

// Temporary failures are retried until success.
func TestRetriesTemporaryFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(flakyHandler([]int{429, 503}, "", &calls))
	defer ts.Close()

	cl := New(ts.URL, nil, WithRetries(3), WithBackoff(time.Millisecond))
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Workers != 7 {
		t.Errorf("stats = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// Permanent (4xx) failures are not retried.
func TestNoRetryOnPermanentFailure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(flakyHandler([]int{422, 422, 422}, "", &calls))
	defer ts.Close()

	cl := New(ts.URL, nil, WithRetries(3), WithBackoff(time.Millisecond))
	_, err := cl.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 422)", got)
	}
}

// Retries exhausted: the last error surfaces.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(flakyHandler([]int{429, 429, 429, 429}, "", &calls))
	defer ts.Close()

	cl := New(ts.URL, nil, WithRetries(2), WithBackoff(time.Millisecond))
	_, err := cl.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
}

// The satellite pair: Retry-After surfaces on APIError, and a
// cancelled context interrupts the backoff sleep instead of waiting it
// out.
func TestRetryAfterSurfacesAndCtxInterruptsBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(flakyHandler([]int{429}, "5", &calls))
	defer ts.Close()

	// No retries: the APIError itself carries the server's hint.
	cl := New(ts.URL, nil, WithRetries(1))
	_, err := cl.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if apiErr.StatusCode != 429 || apiErr.RetryAfter != 5*time.Second {
		t.Errorf("APIError = %+v, want 429 with RetryAfter 5s", apiErr)
	}
	if !apiErr.Temporary() {
		t.Error("429 not Temporary")
	}

	// With retries, the 5s Retry-After would stall the next attempt —
	// the context must cut the sleep short.
	calls.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cl = New(ts.URL, nil, WithRetries(3))
	start := time.Now()
	_, err = cl.Stats(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("backoff ignored the context: slept %v", elapsed)
	}
}

// Transport-level failures (no server) retry and then surface.
func TestTransportErrorRetries(t *testing.T) {
	cl := New("http://127.0.0.1:1", nil, WithRetries(2), WithBackoff(time.Millisecond))
	_, err := cl.Stats(context.Background())
	if err == nil {
		t.Fatal("no error from unreachable server")
	}
}

// The v2 job surface end to end against a scripted server: submit
// handle, poll to done, expired-as-status on 504.
func TestJobLifecycleMethods(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req api.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(400)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.JobStatus{ID: "job-1", State: "queued"})
	})
	mux.HandleFunc("GET /v2/jobs/job-1/wait", func(w http.ResponseWriter, r *http.Request) {
		st := api.JobStatus{ID: "job-1", State: "running"}
		if polls.Add(1) >= 2 {
			st.State = "done"
			st.Result = &api.CompileResponse{PeakTemp: 301.5}
		}
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /v2/jobs/job-expired", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		_ = json.NewEncoder(w).Encode(api.JobStatus{ID: "job-expired", State: "expired", Error: "deadline passed"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := New(ts.URL, nil)
	st, err := cl.RunJob(context.Background(), api.JobRequest{Kernel: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil || st.Result.PeakTemp != 301.5 {
		t.Errorf("RunJob: %+v", st)
	}
	if polls.Load() < 2 {
		t.Errorf("RunJob polled %d times, want >= 2", polls.Load())
	}

	exp, err := cl.Job(context.Background(), "job-expired")
	if err != nil {
		t.Fatalf("expired job as error: %v", err)
	}
	if exp.State != "expired" || exp.Error == "" {
		t.Errorf("expired status: %+v", exp)
	}
}

// The bearer token rides every request kind.
func TestTokenHeader(t *testing.T) {
	var sawAuth atomic.Int64
	mux := http.NewServeMux()
	check := func(r *http.Request) {
		if r.Header.Get("Authorization") == "Bearer sesame" {
			sawAuth.Add(1)
		}
	}
	mux.HandleFunc("GET /v2/stats", func(w http.ResponseWriter, r *http.Request) {
		check(r)
		_ = json.NewEncoder(w).Encode(api.StatsResponse{})
	})
	mux.HandleFunc("GET /v2/jobs/x", func(w http.ResponseWriter, r *http.Request) {
		check(r)
		_ = json.NewEncoder(w).Encode(api.JobStatus{ID: "x", State: "done"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := New(ts.URL, nil, WithToken("sesame"))
	if _, err := cl.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Job(context.Background(), "x"); err != nil {
		t.Fatal(err)
	}
	if sawAuth.Load() != 2 {
		t.Errorf("token sent on %d of 2 requests", sawAuth.Load())
	}
}

// A backend restart in the middle of a job sweep must converge, not
// error: submissions and status reads alike see connection-refused
// while the port is dark and retry with backoff until the restarted
// backend answers — the client-side half of gateway failover windows.
func TestBackendRestartMidSweepConverges(t *testing.T) {
	b := batch.NewRunner(2)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv1 := server.New(b)
	hs1 := &http.Server{Handler: srv1}
	go func() { _ = hs1.Serve(lis) }()

	cl := New("http://"+addr, nil, WithRetries(12), WithBackoff(25*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := cl.RunJob(ctx, api.JobRequest{Kernel: "dot"})
	if err != nil || first.State != "done" {
		t.Fatalf("warm-up job: state=%v err=%v", first, err)
	}

	// Kill the backend, then bring a fresh one up on the same port
	// shortly after — the failover window.
	_ = hs1.Close()
	srv1.Close()
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		lis2, err := net.Listen("tcp", addr)
		if err != nil {
			restarted <- err
			return
		}
		restarted <- nil
		hs2 := &http.Server{Handler: server.New(batch.NewRunner(2))}
		go func() { _ = hs2.Serve(lis2) }()
	}()

	// Mid-sweep traffic into the dark window: a status read of the
	// earlier job and a fresh submission. Both must retry through the
	// refused connections and land on the restarted backend.
	st, err := cl.Job(ctx, first.ID)
	if err != nil {
		// The restarted process has an empty registry; 404 is a valid
		// server answer (not a transport error) once it is up.
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("status read across restart: %v", err)
		}
	} else if st.ID != first.ID {
		t.Fatalf("status read returned job %s, want %s", st.ID, first.ID)
	}

	again, err := cl.RunJob(ctx, api.JobRequest{Kernel: "fir"})
	if err != nil {
		t.Fatalf("submission across restart did not converge: %v", err)
	}
	if again.State != "done" {
		t.Fatalf("post-restart job state %s, want done", again.State)
	}
	if err := <-restarted; err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
}
