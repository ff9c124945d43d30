package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/batch"
	"thermflow/internal/jobs"
)

func newTestServer(t *testing.T, workers int) (*httptest.Server, *batch.Runner) {
	t.Helper()
	b := batch.NewRunner(workers)
	ts := httptest.NewServer(New(b))
	t.Cleanup(ts.Close)
	return ts, b
}

// noRetention is a registry config that keeps no finished job, so a
// repeated request is a new job that reaches the engine's result
// store rather than converging on the retained one — for tests that
// count the store's hits.
var noRetention = Config{Jobs: jobs.Config{TTL: time.Nanosecond}}

// post sends raw JSON and returns the status code and body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// compileOne runs req through POST /v2/batch as a one-job stream — the
// request-scoped synchronous path — and returns its result.
func compileOne(t *testing.T, cl *client.Client, req api.JobRequest) *api.CompileResponse {
	t.Helper()
	var got *api.JobItem
	err := cl.CompileBatchJobs(context.Background(), []api.JobRequest{req}, func(item api.JobItem) {
		got = &item
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Error != "" || got.Result == nil {
		t.Fatalf("compile of %+v: %+v", req, got)
	}
	return got.Result
}

func TestMalformedJSONIs400(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	for _, path := range []string{"/v2/jobs", "/v2/batch"} {
		for _, body := range []string{"{not json", "", "[1,2,3", `{"kernel": }`} {
			status, _ := post(t, ts.URL+path, body)
			if status != http.StatusBadRequest {
				t.Errorf("%s body %q: status = %d, want 400", path, body, status)
			}
		}
	}
}

func TestUnknownNamesAre422(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	cases := []struct{ name, body string }{
		{"policy", `{"kernel":"matmul","options":{"policy":"hottest-first"}}`},
		{"solver", `{"kernel":"matmul","options":{"solver":"quantum"}}`},
		{"layout", `{"kernel":"matmul","options":{"layout":"spiral"}}`},
		{"join", `{"kernel":"matmul","options":{"join":"min"}}`},
		{"kernel", `{"kernel":"no-such-kernel"}`},
		{"no program", `{}`},
		{"both", `{"kernel":"matmul","program":"func f() {\nentry:\n  ret\n}"}`},
		{"bad IR", `{"program":"this is not IR"}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v2/jobs", tc.body)
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422 (body %s)", tc.name, status, body)
		}
		var e api.ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", tc.name, body)
		}
	}

	// The same validation guards the batch endpoint, before the stream
	// starts.
	status, _ := post(t, ts.URL+"/v2/batch",
		`{"jobs":[{"kernel":"matmul"},{"kernel":"matmul","options":{"policy":"nope"}}]}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("batch with bad job: status = %d, want 422", status)
	}
}

// Spill-budget exhaustion is a property of the job, not of the
// request: the submit is accepted and the job fails with the budget
// error, promptly, in both the async and the batch shape.
func TestSpillBudgetFailsJob(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	req := api.JobRequest{Kernel: "matmul", Options: thermflow.Options{NumRegs: 1}}
	start := time.Now()
	st, err := cl.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "budget") {
		t.Fatalf("NumRegs 1: job %s with error %q, want failed mentioning the budget", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("NumRegs 1 took %v; the budget should bound it", elapsed)
	}
	var item api.JobItem
	if err := cl.CompileBatchJobs(ctx, []api.JobRequest{req}, func(it api.JobItem) { item = it }); err != nil {
		t.Fatal(err)
	}
	if item.Result != nil || !strings.Contains(item.Error, "budget") {
		t.Errorf("batch item %+v, want the budget error", item)
	}
}

func TestSecondIdenticalRequestIsCached(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	cl := client.New(ts.URL, nil)
	req := api.JobRequest{Kernel: "dot", Options: thermflow.Options{Policy: thermflow.Chessboard}}

	first := compileOne(t, cl, req)
	if first.Cached {
		t.Error("first compile reported Cached")
	}
	second := compileOne(t, cl, req)
	if !second.Cached {
		t.Error("second identical compile not Cached")
	}
	if first.PeakTemp != second.PeakTemp || !second.Converged {
		t.Errorf("cached result diverges: %v vs %v", first.PeakTemp, second.PeakTemp)
	}
	// A registered job of the same content is served from the store too.
	st, err := cl.RunJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || !st.Cached || st.Result.PeakTemp != first.PeakTemp {
		t.Errorf("submitted repeat: %+v", st)
	}
	// A different program with the same options must not share.
	if other := compileOne(t, cl, api.JobRequest{Kernel: "fib", Options: req.Options}); other.Cached {
		t.Error("different kernel reported Cached")
	}
}

func TestCacheResetZeroesStats(t *testing.T) {
	ts, _ := newJobsServer(t, 2, noRetention)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	req := api.JobRequest{Kernel: "dot"}
	for i := 0; i < 3; i++ {
		compileOne(t, cl, req)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := stats.Cache; st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats before reset = %+v, want 1 miss / 2 hits", st)
	}
	st, err := cl.ResetCache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Panics != 0 {
		t.Errorf("stats after reset = %+v, want all zero", st)
	}
	// The next identical request recompiles: the cache is really gone.
	if resp := compileOne(t, cl, req); resp.Cached {
		t.Error("compile after reset reported Cached")
	}
}

func TestBatchStreamsOneItemPerJob(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	cl := client.New(ts.URL, nil)
	jobs := []api.JobRequest{
		{Kernel: "dot"},
		{Kernel: "fib"},
		{Kernel: "dot"}, // duplicate of job 0: shares its result
		{Kernel: "dot", Options: thermflow.Options{Policy: thermflow.Chessboard}},
	}
	var mu sync.Mutex
	got := make(map[int]api.JobItem)
	err := cl.CompileBatchJobs(context.Background(), jobs, func(item api.JobItem) {
		mu.Lock()
		got[item.Index] = item
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("received %d items, want %d", len(got), len(jobs))
	}
	for i := range jobs {
		item, ok := got[i]
		if !ok {
			t.Fatalf("no item for job %d", i)
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("job %d failed: %s", i, item.Error)
		}
	}
	if !got[2].Result.Cached {
		t.Error("duplicate job not served from cache")
	}
	if got[2].Result.PeakTemp != got[0].Result.PeakTemp {
		t.Error("duplicate job's result diverges from its representative")
	}
	if got[3].Result.Cached {
		t.Error("distinct options wrongly shared a cache entry")
	}
}

// slowJobs builds n distinct jobs that each take tens of milliseconds:
// cold-start analysis at a tight δ, with a per-job δ perturbation so no
// two share a cache key.
func slowJobs(n int) []api.JobRequest {
	jobs := make([]api.JobRequest, n)
	for i := range jobs {
		jobs[i] = api.JobRequest{
			Kernel: "matmul",
			Options: thermflow.Options{
				NoWarmStart: true,
				Delta:       0.0002 + float64(i)*1e-6,
				MaxIter:     32768,
				Kappa:       1,
			},
		}
	}
	return jobs
}

// A client that disconnects mid-batch ends its stream, not its jobs:
// every item is a registry job that runs on, can be fetched by ID and
// reaches a terminal state.
func TestClientDisconnectEndsStreamNotJobs(t *testing.T) {
	// One worker runs the batch one job at a time, so most of it is
	// still queued when the client disconnects after the first result.
	ts, _ := newTestServer(t, 1)
	cl := client.New(ts.URL, nil)
	reqs := slowJobs(8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := cl.CompileBatchJobs(ctx, reqs, func(api.JobItem) {
		cancel() // disconnect after the first streamed result
	})
	if err == nil {
		t.Fatal("cancelled batch stream returned nil error")
	}

	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	for i, req := range reqs {
		spec, err := ResolveSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Job(wctx, id)
		if err != nil {
			t.Fatalf("item %d after disconnect: %v", i, err)
		}
		for st.State != "done" && st.State != "failed" && st.State != "expired" {
			if st, err = cl.WaitJob(wctx, id, 0); err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
		}
		if st.State != "done" {
			t.Errorf("item %d after disconnect: %s (%s), want done", i, st.State, st.Error)
		}
	}
}

func TestKernelsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	cl := client.New(ts.URL, nil)
	kernels, err := cl.Kernels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) == 0 {
		t.Fatal("no kernels listed")
	}
	seen := make(map[string]bool)
	for _, k := range kernels {
		if k.Name == "" || k.Instrs <= 0 || k.Blocks <= 0 {
			t.Errorf("malformed kernel entry %+v", k)
		}
		seen[k.Name] = true
	}
	if !seen["matmul"] {
		t.Error("matmul missing from kernel list")
	}
}

func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	// Many clients asking for the same configuration at once must
	// produce exactly one compilation (single-flight), with everyone
	// else sharing it.
	ts, b := newTestServer(t, 4)
	cl := client.New(ts.URL, nil)
	req := api.JobRequest{Kernel: "matmul", Options: thermflow.Options{
		NoWarmStart: true, Delta: 0.0005, MaxIter: 32768, Kappa: 1,
	}}
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cl.CompileBatchJobs(context.Background(), []api.JobRequest{req}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := b.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight)", st.Misses)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v2/batch"},
		{http.MethodGet, "/v2/cache"}, // cache counters live in /v2/stats
		{http.MethodPost, "/v2/kernels"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}
