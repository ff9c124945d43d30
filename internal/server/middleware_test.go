package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"thermflow/internal/batch"
	"thermflow/internal/tenant"
)

// authedServer wraps a full server in the production middleware order.
func authedServer(t *testing.T, mw ...Middleware) *httptest.Server {
	t.Helper()
	srv := New(batch.NewRunner(1))
	ts := httptest.NewServer(Chain(srv, mw...))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

func doReq(t *testing.T, method, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// Requests without a valid bearer token are 401 on every route;
// valid tokens pass through to real handlers.
func TestAuthMiddleware(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tokens")
	if err := os.WriteFile(path,
		[]byte("# ops tokens\nsecret-a\n\nsecret-b\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	tokens, err := LoadTokenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := authedServer(t, WithAuth(tokens))

	for _, token := range []string{"", "wrong", "secret-a-longer"} {
		resp := doReq(t, http.MethodGet, ts.URL+"/v2/kernels", token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("token %q: status = %d, want 401", token, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("token %q: missing WWW-Authenticate challenge", token)
		}
	}
	for _, token := range []string{"secret-a", "secret-b"} {
		resp := doReq(t, http.MethodGet, ts.URL+"/v2/kernels", token)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("token %q: status = %d, want 200", token, resp.StatusCode)
		}
	}
}

func TestLoadTokenFileRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte("\n# only comments\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTokenFile(path); err == nil {
		t.Error("empty token file accepted")
	}
	if _, err := LoadTokenFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing token file accepted")
	}
}

// defaultQuota is a quota table holding only a default profile — the
// global per-client limit, as the quota file
// {"default": {"rate": rate, "burst": burst}} declares it.
func defaultQuota(t *testing.T, rate float64, burst int) *tenant.Quotas {
	t.Helper()
	q, err := tenant.Parse([]byte(fmt.Sprintf(`{"default": {"rate": %g, "burst": %d}}`, rate, burst)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// The token bucket: a burst is admitted, the next request is 429 with
// Retry-After, and refill readmits — deterministic under a fake clock.
func TestRateLimitBurstAndRefill(t *testing.T) {
	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1_700_000_000, 0)}
	clock := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.now
	}
	advance := func(d time.Duration) {
		clk.mu.Lock()
		clk.now = clk.now.Add(d)
		clk.mu.Unlock()
	}

	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 1, 2), Clock: clock}))
	get := func() *http.Response { return doReq(t, http.MethodGet, ts.URL+"/v2/stats", "") }

	for i := 0; i < 2; i++ {
		if resp := get(); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status = %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("rate limit")) {
		t.Errorf("429 body %q does not explain itself", body)
	}

	// One second refills one token: exactly one more request passes.
	advance(time.Second)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Errorf("post-refill status = %d, want 200", resp.StatusCode)
	}
	if resp := get(); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second post-refill status = %d, want 429 (only one token refilled)", resp.StatusCode)
	}
}

// With ByToken (behind auth), default-profile clients are keyed
// independently: one client's burst does not charge another's bucket.
func TestRateLimitPerClient(t *testing.T) {
	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 0.001, 1), ByToken: true}))
	if resp := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tenant-a"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-a first request: %d", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tenant-a"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-a second request: %d, want 429", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tenant-b"); resp.StatusCode != http.StatusOK {
		t.Errorf("tenant-b charged for tenant-a's burst: %d", resp.StatusCode)
	}
}

// Without auth (ByToken false), an unvalidated Authorization header
// must NOT mint a fresh bucket — regression for the limiter bypass
// where each request carried a new random token.
func TestRateLimitIgnoresUnvalidatedTokens(t *testing.T) {
	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 0.001, 2)}))
	statuses := make(map[int]int)
	for i := 0; i < 4; i++ {
		resp := doReq(t, http.MethodGet, ts.URL+"/v2/stats", fmt.Sprintf("fresh-token-%d", i))
		statuses[resp.StatusCode]++
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Errorf("rotating unvalidated tokens bypassed the rate limit: %v", statuses)
	}
	if statuses[http.StatusOK] != 2 {
		t.Errorf("burst admitted %d, want 2: %v", statuses[http.StatusOK], statuses)
	}
}

// Request IDs: generated when absent, echoed when supplied, sanitized
// when hostile; the access log carries them.
func TestRequestIDAndAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	ts := authedServer(t, WithRequestID(), WithAccessLog(logger))

	resp := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "")
	generated := resp.Header.Get(RequestIDHeader)
	if generated == "" {
		t.Error("no request ID generated")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/stats", nil)
	req.Header.Set(RequestIDHeader, "trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(RequestIDHeader); got != "trace-42" {
		t.Errorf("supplied request ID not echoed: %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v2/stats", nil)
	req.Header.Set(RequestIDHeader, "evil\tid")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(RequestIDHeader); strings.Contains(got, "evil") {
		t.Errorf("hostile request ID echoed: %q", got)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	if !strings.Contains(logs, `"req_id":"trace-42"`) || !strings.Contains(logs, `"status":200`) {
		t.Errorf("access log missing fields:\n%s", logs)
	}
	if !strings.Contains(logs, `"path":"/v2/stats"`) {
		t.Errorf("access log missing path:\n%s", logs)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// The full production chain composes: an authed, rate-limited,
// logged request still compiles, and the NDJSON batch stream flushes
// through the logging wrapper.
func TestMiddlewareChainEndToEnd(t *testing.T) {
	tokens := NewTokenSet("tok")
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	ts := authedServer(t,
		WithRequestID(),
		WithAccessLog(logger),
		WithBodyLimit(MaxBodyBytes),
		WithAuth(tokens),
		WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 1000, 1000), ByToken: true}),
	)

	body := strings.NewReader(`{"jobs":[{"kernel":"dot"},{"kernel":"fir"}]}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/batch", body)
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through the chain: status = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(bytes.TrimSpace(data), []byte("\n")) + 1; lines != 2 {
		t.Errorf("streamed %d lines, want 2:\n%s", lines, data)
	}
	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	if !strings.Contains(logs, `"path":"/v2/batch"`) {
		t.Errorf("batch request not logged:\n%s", logs)
	}
}

// An unauthenticated probe must not reach the handlers even when quotas
// sit behind auth in the chain.
func TestAuthBeforeHandlers(t *testing.T) {
	ts := authedServer(t, WithAuth(NewTokenSet("tok")),
		WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 100, 100), ByToken: true}))
	resp := doReq(t, http.MethodDelete, ts.URL+"/v2/cache", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated DELETE /v2/cache: %d, want 401", resp.StatusCode)
	}
}

// Token rotation: Reload swaps the accepted set atomically — the old
// token stops authenticating, the new one starts — and a request in
// flight when the rotation happens completes under the credentials it
// entered with.
func TestTokenSourceRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte("old-token\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTokenSource(path)
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			once.Do(func() { close(entered) })
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(Chain(slow, WithAuth(src)))
	defer ts.Close()

	if got := doReq(t, http.MethodGet, ts.URL+"/", "old-token").StatusCode; got != http.StatusOK {
		t.Fatalf("old token before rotation: %d, want 200", got)
	}

	// Park a request mid-handler, authorized under the old token.
	inflight := make(chan int, 1)
	go func() {
		inflight <- doReq(t, http.MethodGet, ts.URL+"/slow", "old-token").StatusCode
	}()
	<-entered

	// Rotate while it is in flight.
	if err := os.WriteFile(path, []byte("new-token\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := src.Reload(); err != nil {
		t.Fatal(err)
	}

	if got := doReq(t, http.MethodGet, ts.URL+"/", "old-token").StatusCode; got != http.StatusUnauthorized {
		t.Fatalf("old token after rotation: %d, want 401", got)
	}
	if got := doReq(t, http.MethodGet, ts.URL+"/", "new-token").StatusCode; got != http.StatusOK {
		t.Fatalf("new token after rotation: %d, want 200", got)
	}

	// The in-flight request was not dropped by the rotation.
	close(release)
	select {
	case got := <-inflight:
		if got != http.StatusOK {
			t.Fatalf("in-flight request finished %d, want 200", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
}

// A reload that fails — here: a file that authorizes nobody — must
// keep the previous set in force.
func TestTokenSourceReloadFailureKeepsOldSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte("keep-token\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTokenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("# only comments\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := src.Reload(); err == nil {
		t.Fatal("reload of an empty token file did not fail")
	}
	if !src.Allow("keep-token") {
		t.Fatal("failed reload dropped the previous token set")
	}
}
