package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thermflow/internal/tenant"
)

func writeQuotaFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "quotas.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func rewriteFile(t *testing.T, path, doc string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Distinct tenants get distinct envelopes: a starved tenant's 429s do
// not charge a generous tenant's bucket, and all of one tenant's
// tokens share one bucket.
func TestQuotasPerTenantRates(t *testing.T) {
	src, err := tenant.Parse([]byte(`{
	  "default": {"rate": 0.001, "burst": 1},
	  "tenants": [
	    {"name": "fast", "class": "high", "tokens": ["tok-fast"], "rate": 1000, "burst": 1000},
	    {"name": "slow", "class": "batch", "tokens": ["tok-slow", "tok-slow2"], "rate": 0.001, "burst": 1}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: src, ByToken: true}))
	get := func(token string) int {
		return doReq(t, http.MethodGet, ts.URL+"/v2/stats", token).StatusCode
	}

	if got := get("tok-slow"); got != http.StatusOK {
		t.Fatalf("slow tenant first request: %d", got)
	}
	// The second token of the SAME tenant shares the drained bucket.
	if got := get("tok-slow2"); got != http.StatusTooManyRequests {
		t.Fatalf("slow tenant second token: %d, want 429 (one bucket per tenant)", got)
	}
	for i := 0; i < 5; i++ {
		if got := get("tok-fast"); got != http.StatusOK {
			t.Fatalf("fast tenant request %d: %d (charged for the slow tenant?)", i, got)
		}
	}
	// Unknown tokens fall to the (tiny) default profile.
	if got := get("tok-unknown"); got != http.StatusOK {
		t.Fatalf("default-profile first request: %d", got)
	}
	if got := get("tok-unknown"); got != http.StatusTooManyRequests {
		t.Fatalf("default-profile second request: %d, want 429", got)
	}
}

// Quota hot-reload, mirroring TestTokenSourceRotation: a SIGHUP-style
// Reload with a changed file takes effect on the very next request
// without dropping the request in flight when it happens.
func TestQuotaSourceHotReloadMidFlight(t *testing.T) {
	path := writeQuotaFile(t,
		`{"tenants": [{"name": "acme", "tokens": ["tok"], "rate": 0.001, "burst": 1}]}`)
	src, err := tenant.Open(path)
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
	ts := httptest.NewServer(Chain(slow, WithQuotas(QuotaConfig{Quotas: src, ByToken: true})))
	defer ts.Close()

	// Park a request mid-handler; it entered under the old quotas and
	// has already spent the tenant's only token.
	inflight := make(chan int, 1)
	go func() {
		inflight <- doReq(t, http.MethodGet, ts.URL+"/slow", "tok").StatusCode
	}()
	<-entered

	if got := doReq(t, http.MethodGet, ts.URL+"/", "tok").StatusCode; got != http.StatusTooManyRequests {
		t.Fatalf("pre-reload second request: %d, want 429", got)
	}

	// Reload with a generous envelope while the first request is parked.
	rewriteFile(t, path,
		`{"tenants": [{"name": "acme", "tokens": ["tok"], "rate": 1000, "burst": 1000}]}`)
	if err := src.Reload(); err != nil {
		t.Fatal(err)
	}

	// The new envelope applies to the next request...
	if got := doReq(t, http.MethodGet, ts.URL+"/", "tok").StatusCode; got != http.StatusOK {
		t.Fatalf("post-reload request: %d, want 200 under the new envelope", got)
	}
	// ...and the in-flight request was not dropped by the swap.
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

// A malformed quota rewrite keeps the old quotas in force, mirroring
// TestTokenSourceReloadFailureKeepsOldSet.
func TestQuotaSourceReloadFailureKeepsOldQuotas(t *testing.T) {
	path := writeQuotaFile(t,
		`{"tenants": [{"name": "acme", "tokens": ["tok"], "rate": 0.001, "burst": 1}]}`)
	src, err := tenant.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: src, ByToken: true}))

	if got := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tok").StatusCode; got != http.StatusOK {
		t.Fatalf("first request: %d", got)
	}
	rewriteFile(t, path, `{"tenants": [{"name": "acme", "class": "no-such-class"`)
	if err := src.Reload(); err == nil {
		t.Fatal("reload of a malformed quota file did not fail")
	}
	if got := doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tok").StatusCode; got != http.StatusTooManyRequests {
		t.Fatalf("post-failed-reload request: %d, want 429 under the OLD quotas", got)
	}
}

// The satellite fix: rotating a token out of the TokenSet evicts its
// rate bucket, so the bucket map cannot accumulate dead tokens and a
// re-added token starts from a fresh burst.
func TestRateBucketEvictionOnTokenRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte("tok-a\ntok-b\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	tokens, err := OpenTokenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	rl := newRateLimiter(nil)
	allow := func(key string) (bool, time.Duration) { return rl.allowRate(key, 0.001, 1) }
	tokens.OnReload(func(ts *TokenSet) {
		rl.evict(func(key string) bool { return !ts.Allow(key[len("t:"):]) })
	})

	// Drain both tokens' buckets.
	for _, tok := range []string{"tok-a", "tok-b"} {
		if ok, _ := allow("t:" + tok); !ok {
			t.Fatalf("%s first request should pass", tok)
		}
		if ok, _ := allow("t:" + tok); ok {
			t.Fatalf("%s second request should be limited", tok)
		}
	}

	// Rotate tok-b out: its bucket must go, tok-a's must stay.
	if err := os.WriteFile(path, []byte("tok-a\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := tokens.Reload(); err != nil {
		t.Fatal(err)
	}
	rl.mu.Lock()
	_, aLives := rl.buckets["t:tok-a"]
	_, bLives := rl.buckets["t:tok-b"]
	rl.mu.Unlock()
	if !aLives || bLives {
		t.Fatalf("buckets after rotation: tok-a=%v tok-b=%v, want tok-a kept, tok-b evicted", aLives, bLives)
	}
	// tok-a keeps its drained state; a hypothetically re-added tok-b
	// would start fresh (the bucket is gone).
	if ok, _ := allow("t:tok-a"); ok {
		t.Fatal("surviving token's bucket was reset by the rotation")
	}
}

// A quota reload that removes a tenant evicts the tenant's bucket
// through the same hook plumbing, end to end through the middleware.
func TestTenantBucketEvictionOnQuotaReload(t *testing.T) {
	path := writeQuotaFile(t,
		`{"default": {"rate": 1000, "burst": 1000},
		  "tenants": [{"name": "gone", "tokens": ["tok-g"], "rate": 0.001, "burst": 1}]}`)
	src, err := tenant.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := authedServer(t, WithQuotas(QuotaConfig{Quotas: src, ByToken: true}))
	get := func() int { return doReq(t, http.MethodGet, ts.URL+"/v2/stats", "tok-g").StatusCode }

	if got := get(); got != http.StatusOK {
		t.Fatalf("first request: %d", got)
	}
	if got := get(); got != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", got)
	}
	// Remove the tenant; its token now resolves to the generous default
	// and its old bucket must not shadow that.
	rewriteFile(t, path, `{"default": {"rate": 1000, "burst": 1000}}`)
	if err := src.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("post-removal request: %d, want 200 under the default profile", got)
	}
}

// The gateway-stamped tenant header is honored only when trusted, and
// only for tokens that do not already resolve to a named tenant.
func TestTrustTenantHeader(t *testing.T) {
	src, err := tenant.Parse([]byte(
		`{"default": {"rate": 1000, "burst": 1000},
		  "tenants": [{"name": "edge", "class": "high", "rate": 0.001, "burst": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var seen *tenant.Profile
	var mu sync.Mutex
	probe := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = TenantProfile(r)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})

	do := func(url string, trust bool) (int, *tenant.Profile) {
		ts := httptest.NewServer(Chain(probe,
			WithQuotas(QuotaConfig{Quotas: src, TrustHeader: trust})))
		defer ts.Close()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
		req.Header.Set(TenantHeader, "edge")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		return resp.StatusCode, seen
	}

	if _, p := do("/", true); p == nil || p.Name != "edge" {
		t.Fatalf("trusted header resolved to %+v, want tenant edge", p)
	}
	if _, p := do("/", false); p == nil || p.Name != "default" {
		t.Fatalf("untrusted header resolved to %+v, want the default profile", p)
	}
}
