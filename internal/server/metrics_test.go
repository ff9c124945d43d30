package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thermflow/internal/batch"
)

// newMetricsServer builds a full middleware-wrapped server with
// metrics wired exactly as cmd/thermflowd wires them, over cfg.
func newMetricsServer(t *testing.T, cfg Config) (*httptest.Server, *Metrics) {
	t.Helper()
	m := NewMetrics()
	cfg.Metrics = m
	s := NewConfig(batch.NewRunner(1), cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(Chain(s,
		WithRequestID(),
		WithMetrics(m),
		WithBodyLimit(MaxBodyBytes),
	))
	t.Cleanup(ts.Close)
	return ts, m
}

func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading exposition: %v", err)
	}
	return string(body)
}

func TestMetricsEndpointServesRequestSeries(t *testing.T) {
	ts, _ := newMetricsServer(t, Config{})

	// Drive one batch compile, one unknown route, and the scrape itself.
	status, _ := post(t, ts.URL+"/v2/batch", `{"jobs":[{"kernel":"dot"}]}`)
	if status != http.StatusOK {
		t.Fatalf("compile status = %d", status)
	}
	if resp, err := http.Get(ts.URL + "/no/such/route"); err == nil {
		resp.Body.Close()
	}

	out := scrape(t, ts.URL)
	for _, want := range []string{
		`thermflow_http_requests_total{route="/v2/batch",method="POST",code="200"} 1`,
		`thermflow_http_requests_total{route="other",method="GET",code="404"} 1`,
		`thermflow_http_request_seconds_count{route="/v2/batch"} 1`,
		"# TYPE thermflow_http_request_seconds histogram",
		"thermflow_http_inflight_requests",
		"thermflow_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsEngineAndSolverSeries(t *testing.T) {
	ts, _ := newMetricsServer(t, noRetention)

	// Same kernel twice: one miss (compiled, one solver run), one hit.
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts.URL+"/v2/batch", `{"jobs":[{"kernel":"dot"}]}`); status != http.StatusOK {
			t.Fatalf("compile %d: status %d: %s", i, status, body)
		}
	}

	out := scrape(t, ts.URL)
	for _, want := range []string{
		`thermflow_cache_requests_total{outcome="hit"} 1`,
		`thermflow_cache_requests_total{outcome="miss"} 1`,
		`thermflow_solver_runs_total{solver="dense",converged="true"} 1`,
		`thermflow_solver_seconds_count{solver="dense"} 1`,
		`thermflow_cache_tier_events_total{tier="memory",event="put"} 1`,
		`thermflow_jobs{state="terminal"}`,
		"thermflow_jobs_capacity",
		"thermflow_batch_inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRouteOfBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/v2/jobs":              "/v2/jobs",
		"/v2/kernels":           "/v2/kernels",
		"/v2/cache":             "/v2/cache",
		"/v2/jobs/abc123":       "/v2/jobs/{id}",
		"/v2/jobs/abc123/wait":  "/v2/jobs/{id}/wait",
		"/v2/jobs/x/replica":    "/v2/jobs/{id}/replica",
		"/v2/jobs/abc123/trace": "/v2/jobs/{id}/trace",
		"/v2/regions/solve":     "other",
		"/v2/regions/collect":   "other",
		"/metrics":              "/metrics",
		"/gateway/backends":     "/gateway/backends",
		"/random/client/path":   "other",
		"/v2/jobsx":             "other",
		"/":                     "other",
		"/v2/cache/extra/bit":   "other",
	}
	// The retired v1 surface has no label of its own.
	for _, name := range []string{"compile", "batch", "kernels", "cache"} {
		cases["/v1"+"/"+name] = "other"
	}
	for path, want := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := routeOf(r); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestWithMetricsNilIsIdentity(t *testing.T) {
	called := false
	h := WithMetrics(nil)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !called {
		t.Fatal("inner handler not reached through nil metrics middleware")
	}
}
