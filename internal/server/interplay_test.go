package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thermflow/api"
	"thermflow/internal/batch"
)

// These tests pin down how the middleware compose — the interactions
// the per-middleware tests cannot see: the request deadline against a
// flushing NDJSON stream, and the quota rate limiter's bucket map
// against an open-ended client population.

// slowBatchBody builds a /v2/batch request whose first job is a plain
// fast compile (so one item flushes almost immediately) and whose
// remaining jobs converge slowly — no warm start, κ=1, a δ below
// floating-point progress, a six-figure sweep cap: several hundred
// milliseconds each — so the NDJSON stream is still open when a
// WithTimeout deadline lands.
func slowBatchBody(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"jobs":[{"kernel":"dot"}`)
	for i := 1; i < n; i++ {
		// max_iter varies per job to keep the content identities
		// distinct without leaving the valid num_regs range.
		fmt.Fprintf(&sb, `,{"kernel":"matmul","options":{"num_regs":%d,"no_warm_start":true,"kappa":1,"max_iter":%d,"delta":1e-12}}`,
			40+i%24, 200000+i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// A batch that finishes inside the deadline streams to completion
// under WithTimeout: the deadline must not 503 or truncate a live,
// flushing stream that is making progress.
func TestTimeoutDoesNotCutCompletingStream(t *testing.T) {
	s := New(batch.NewRunner(2))
	t.Cleanup(s.Close)
	ts := httptest.NewServer(Chain(s, WithTimeout(time.Minute)))
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v2/batch", "application/json", strings.NewReader(slowBatchBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under timeout: %s", resp.Status)
	}
	items := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item api.JobItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %d not an item: %v: %s", items, err, sc.Text())
		}
		if item.Error != "" {
			t.Fatalf("item %d failed under a generous timeout: %s", item.Index, item.Error)
		}
		items++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if items != 4 {
		t.Fatalf("got %d items, want 4", items)
	}
}

// A deadline expiring mid-stream must not manufacture a late 503: the
// headers and early items are already on the wire, so the client sees
// a 200 whose stream simply ends (items flushed before the deadline
// intact), and the connection closes promptly instead of hanging.
func TestTimeoutMidStreamEndsWithoutLate503(t *testing.T) {
	s := New(batch.NewRunner(1))
	t.Cleanup(s.Close)
	// One worker serializes the slow jobs; the deadline lands while
	// later jobs are still queued.
	ts := httptest.NewServer(Chain(s, WithTimeout(250*time.Millisecond)))
	t.Cleanup(ts.Close)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v2/batch", "application/json", strings.NewReader(slowBatchBody(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s — the deadline must not preempt the stream's 200", resp.Status)
	}

	// Every line that arrives must be a well-formed item — no error
	// page, no 503 body spliced into the NDJSON.
	succeeded := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var item api.JobItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("mid-stream line is not a batch item: %q", line)
		}
		if item.Error == "" {
			succeeded++
		}
	}
	elapsed := time.Since(start)
	if succeeded == 0 {
		t.Fatal("no item flushed before the deadline — the fast lead job never made it out")
	}
	if succeeded >= 8 {
		t.Fatalf("all %d items completed — stream never crossed the deadline, test proves nothing", succeeded)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("stream hung %s past a 250ms deadline", elapsed)
	}
}

// Filling the limiter with one bucket per client up to its bound, then
// letting them refill: the next new client sweeps the idle buckets
// instead of growing the map.
func TestRateLimiterSweepsIdleBucketsAtBound(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	rl := newRateLimiter(clock)
	allow := func(key string) (bool, time.Duration) { return rl.allowRate(key, 10, 5) }

	for i := 0; i < maxRateClients; i++ {
		if ok, _ := allow(fmt.Sprintf("client-%d", i)); !ok {
			t.Fatalf("fresh client %d rejected", i)
		}
	}
	if n := len(rl.buckets); n != maxRateClients {
		t.Fatalf("bucket map holds %d clients, want %d", n, maxRateClients)
	}

	// Everyone idles long enough to refill to full burst; the next new
	// client must sweep them all.
	now = now.Add(time.Minute)
	if ok, _ := allow("the-straw"); !ok {
		t.Fatal("new client rejected at the bound")
	}
	if n := len(rl.buckets); n != 1 {
		t.Fatalf("after sweep the map holds %d buckets, want 1 (the new client)", n)
	}

	// The surviving bucket is live: burst-1 more requests pass, then 429.
	for i := 0; i < 4; i++ {
		if ok, _ := allow("the-straw"); !ok {
			t.Fatalf("request %d within burst rejected after sweep", i+2)
		}
	}
	if ok, wait := allow("the-straw"); ok || wait <= 0 {
		t.Fatalf("burst exhausted yet allowed (ok=%v wait=%s)", ok, wait)
	}
}

// When every client at the bound is still active (nothing refilled),
// the sweep's fallback resets the whole map rather than letting it
// grow without bound.
func TestRateLimiterFullResetWhenAllActive(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	rl := newRateLimiter(clock)

	for i := 0; i < maxRateClients; i++ {
		rl.allowRate(fmt.Sprintf("client-%d", i), 10, 5)
	}
	// No time passes: every bucket sits below full burst.
	if ok, _ := rl.allowRate("overload-straw", 10, 5); !ok {
		t.Fatal("new client rejected during full reset")
	}
	if n := len(rl.buckets); n != 1 {
		t.Fatalf("after full reset the map holds %d buckets, want 1", n)
	}
}

// The middleware end of the same property: a client population three
// times the bucket bound, one request each, all served — the sweeps
// that keep the map bounded must be invisible to well-behaved clients
// — while a single client hammering past its burst still gets its 429
// with Retry-After amid the churn.
func TestRateLimitManyDistinctClients(t *testing.T) {
	now := time.Unix(3000, 0)
	h := WithQuotas(QuotaConfig{Quotas: defaultQuota(t, 1, 2), Clock: func() time.Time { return now }})(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))

	hit := func(host string) int {
		r := httptest.NewRequest("GET", "/v2/kernels", nil)
		r.RemoteAddr = host + ":1234"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code
	}

	for i := 0; i < 3*maxRateClients; i++ {
		host := fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
		if code := hit(host); code != http.StatusOK {
			t.Fatalf("distinct client %d got %d, want 200", i, code)
		}
	}

	// One client past its burst is still limited despite the churn of
	// 196k other buckets coming and going around it.
	if code := hit("192.168.1.1"); code != http.StatusOK {
		t.Fatalf("hammering client's first request: %d", code)
	}
	if code := hit("192.168.1.1"); code != http.StatusOK {
		t.Fatalf("hammering client's second request (burst 2): %d", code)
	}
	if code := hit("192.168.1.1"); code != http.StatusTooManyRequests {
		t.Fatalf("hammering client's third request: %d, want 429", code)
	}
}
