package e2etest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
)

// sweep99 is the 99-job experiment matrix: every kernel at
// register-file sizes 56..64, each a distinct content identity.
func sweep99() []api.JobRequest {
	kernels := []string{"dot", "saxpy", "fir", "matmul", "bubblesort", "histogram",
		"checksum", "scaledsum", "transpose", "prefixsum", "fib"}
	var reqs []api.JobRequest
	for _, k := range kernels {
		for regs := 56; regs <= 64; regs++ {
			reqs = append(reqs, api.JobRequest{Kernel: k,
				Options: thermflow.Options{NumRegs: regs}})
		}
	}
	return reqs
}

// slowJobs builds n jobs whose analysis converges slowly (raw
// iteration, tight δ, low time acceleration) so batches stay in
// flight long enough to kill a backend mid-stream.
func slowJobs(n int) []api.JobRequest {
	kernels := []string{"matmul", "fir", "bubblesort", "histogram"}
	reqs := make([]api.JobRequest, n)
	for i := range reqs {
		reqs[i] = api.JobRequest{Kernel: kernels[i%len(kernels)],
			Options: thermflow.Options{
				NumRegs:     40 + i,
				NoWarmStart: true,
				Kappa:       5,
				MaxIter:     3000,
				Delta:       0.0005,
			}}
	}
	return reqs
}

// metricValue reads an unlabeled series' value from an exposition
// body, or -1 when absent.
func metricValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// The 99-job sweep: 99 jobs through the gateway's batch fan-out
// answer exactly once each with 99 distinct IDs and no errors, each ID
// then answers GET /v2/jobs/{id} through the gateway as done, both
// backends compile a share, and the observability plane has series
// for all of it.
func TestClusterSweep99(t *testing.T) {
	c := NewCluster(t, Options{})
	c.WaitRing(t, 2)
	cl := c.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	reqs := sweep99()
	counts := make(map[int]int)
	ids := make(map[string]bool)
	errs := 0
	err := cl.CompileBatchJobs(ctx, reqs, func(item api.JobItem) {
		counts[item.Index]++
		ids[item.ID] = true
		if item.Error != "" {
			errs++
			t.Errorf("job %d (%s) failed: %s", item.Index, reqs[item.Index].Kernel, item.Error)
		}
	})
	if err != nil {
		t.Fatalf("99-job sweep: %v", err)
	}
	for i := range reqs {
		if counts[i] != 1 {
			t.Fatalf("index %d answered %d times, want exactly once", i, counts[i])
		}
	}
	if len(ids) != 99 || errs != 0 {
		t.Fatalf("sweep: %d distinct ids, %d errors; want 99 and 0", len(ids), errs)
	}
	// Every item is a registered job, readable by ID through the gateway.
	for id := range ids {
		st, err := cl.Job(ctx, id)
		if err != nil || st.State != "done" {
			t.Fatalf("GET job %s after the sweep: %v (%+v), want done", id[:12], err, st)
		}
	}

	// Both backends actually compiled a share of the sweep.
	stats, err := c.Pool().CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.Misses == 0 {
			t.Errorf("backend %d compiled nothing — fan-out did not spread", i)
		}
	}

	// The gateway's exposition saw the traffic and the pool.
	gw := Scrape(t, c.GatewayURL)
	for _, want := range []string{
		"thermflow_gateway_ring_backends 2",
		`thermflow_http_requests_total{route="/v2/batch",method="POST",code="200"}`,
		`thermflow_gateway_backend_up{backend="` + c.Backends[0].URL + `"} 1`,
		`thermflow_gateway_backend_up{backend="` + c.Backends[1].URL + `"} 1`,
	} {
		if !strings.Contains(gw, want) {
			t.Errorf("gateway exposition missing %q", want)
		}
	}

	// Each backend's exposition shows its own compiles and solver runs.
	for i, b := range c.Backends {
		out := Scrape(t, b.URL)
		for _, want := range []string{
			`thermflow_cache_requests_total{outcome="miss"}`,
			`thermflow_solver_runs_total{solver="dense",converged="true"}`,
			`thermflow_http_requests_total{route="/v2/batch",method="POST",code="200"}`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("backend %d exposition missing %q", i, want)
			}
		}
	}
}

// Kill mid-batch: a backend dies while its shard is streaming; the
// gateway re-dispatches the unanswered jobs to the survivor and every
// index is still answered exactly once. The gateway's /metrics stays scrapeable throughout and
// records the ejection and failover.
func TestClusterKillOwnerMidBatchFailover(t *testing.T) {
	c := NewCluster(t, Options{})
	c.WaitRing(t, 2)
	cl := c.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	reqs := slowJobs(24)
	var mu sync.Mutex
	counts := make(map[int]int)
	ids := make(map[string]bool)
	var failed []string
	done := make(chan error, 1)
	first := make(chan struct{})
	var once sync.Once
	go func() {
		done <- cl.CompileBatchJobs(ctx, reqs, func(item api.JobItem) {
			mu.Lock()
			counts[item.Index]++
			ids[item.ID] = true
			if item.Error != "" {
				failed = append(failed, item.Error)
			}
			mu.Unlock()
			once.Do(func() { close(first) })
		})
	}()

	// Kill one pool member once the stream is demonstrably live, while
	// slow jobs hold both shards open.
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("batch produced no items")
	}
	c.Backends[1].Kill()

	// The harness stays observable mid-failover: this scrape races the
	// re-dispatch on purpose.
	if mid := Scrape(t, c.GatewayURL); !strings.Contains(mid, "thermflow_gateway_ring_backends") {
		t.Error("mid-failover exposition missing ring gauge")
	}

	if err := <-done; err != nil {
		t.Fatalf("batch with killed backend: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range reqs {
		if counts[i] != 1 {
			t.Fatalf("index %d answered %d times, want exactly once", i, counts[i])
		}
	}
	if len(ids) != len(reqs) {
		t.Fatalf("%d distinct ids, want %d", len(ids), len(reqs))
	}
	if len(failed) != 0 {
		t.Fatalf("%d jobs failed after failover: %q", len(failed), failed[0])
	}

	// The health checker ejects the corpse; the counters saw both the
	// transport failover and the ejection.
	c.WaitRing(t, 1)
	gw := Scrape(t, c.GatewayURL)
	if v := metricValue(gw, "thermflow_gateway_ejections_total"); v < 1 {
		t.Errorf("thermflow_gateway_ejections_total = %v, want >= 1", v)
	}
	if v := metricValue(gw, "thermflow_gateway_failovers_total"); v < 1 {
		t.Errorf("thermflow_gateway_failovers_total = %v, want >= 1", v)
	}
}

// Drain persistence: an administrative drain recorded in the
// gateway's state WAL survives a gateway restart; undraining restores
// the member and also persists.
func TestClusterDrainSurvivesGatewayRestart(t *testing.T) {
	c := NewCluster(t, Options{})
	c.WaitRing(t, 2)
	drained := c.Backends[0].URL

	resp, err := http.Post(c.GatewayURL+"/gateway/drain?backend="+drained, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %s", resp.Status)
	}
	c.WaitRing(t, 1)

	if err := c.RestartGateway(); err != nil {
		t.Fatalf("gateway restart: %v", err)
	}
	c.WaitRing(t, 1)
	view := c.View(t)
	found := false
	for _, b := range view.Backends {
		if b.URL == drained {
			found = true
			if !b.Draining {
				t.Fatalf("backend %s not draining after gateway restart: %+v", drained, b)
			}
		}
	}
	if !found {
		t.Fatalf("drained backend %s missing from restarted gateway's view: %+v", drained, view)
	}

	// Undrain, bounce again: the member stays restored.
	resp, err = http.Post(c.GatewayURL+"/gateway/undrain?backend="+drained, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	c.WaitRing(t, 2)
	if err := c.RestartGateway(); err != nil {
		t.Fatalf("second gateway restart: %v", err)
	}
	c.WaitRing(t, 2)
}

// WAL replay: a backend SIGKILLed after finishing work comes back on
// the same WAL and cache directories with every pre-crash job ID
// resolving to the identical terminal result.
func TestClusterBackendWALReplayAcrossKill(t *testing.T) {
	c := NewCluster(t, Options{Backends: 1})
	c.WaitRing(t, 1)
	b := c.Backends[0]
	cl := client.New(b.URL, nil, client.WithRetries(8), client.WithBackoff(100*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reqs := sweep99()[:12]
	records := make(map[string]*api.JobStatus)
	for _, req := range reqs {
		st, err := cl.RunJob(ctx, req)
		if err != nil {
			t.Fatalf("pre-crash job: %v", err)
		}
		if st.State != "done" || st.Result == nil {
			t.Fatalf("pre-crash job state %s (result %v)", st.State, st.Result != nil)
		}
		records[st.ID] = st
	}

	b.Kill()
	if err := b.Restart(); err != nil {
		t.Fatalf("backend restart: %v", err)
	}

	for id, want := range records {
		got, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s vanished across restart: %v", id[:12], err)
		}
		if got.State != want.State {
			t.Fatalf("job %s state %s -> %s across restart", id[:12], want.State, got.State)
		}
		if got.Result == nil ||
			got.Result.PeakTemp != want.Result.PeakTemp ||
			got.Result.Iterations != want.Result.Iterations {
			t.Fatalf("job %s result drifted across restart:\n  before %+v\n  after  %+v",
				id[:12], want.Result, got.Result)
		}
	}
}

// Two tenants share a one-worker, bounded-queue pool through the
// gateway: the edge resolves bearer tokens to quota profiles, stamps
// the tenant header, and the backend's admission control answers 429
// when the batch tenant exceeds its own queue cap but 503 when the
// pool itself is saturated with higher-class work — with the displaced
// job failing attributably and the counters moving on /metrics.
func TestClusterQuotaShedding(t *testing.T) {
	const quotas = `{
	  "tenants": [
	    {"name": "gold", "class": "critical", "tokens": ["tok-gold"]},
	    {"name": "bulk", "class": "batch", "tokens": ["tok-bulk"], "max_queue": 1}
	  ]
	}`
	quotaFile := writeFile(t, "quotas.json", quotas)
	c := NewCluster(t, Options{
		Backends: 1,
		BackendArgs: []string{"-workers", "1",
			"-quota-file", quotaFile, "-trust-tenant-header",
			"-job-max-queue", "2", "-job-queue-watermark", "1"},
		GatewayArgs: []string{"-quota-file", quotaFile},
	})
	c.WaitRing(t, 1)

	// heavy returns a distinct long-running job: cold-start analysis
	// with a slowed thermal step holds the single worker for the whole
	// test body (the occupyingJob shape from the server tests).
	heavy := func(i int) api.JobRequest {
		return api.JobRequest{Kernel: "matmul", Options: thermflow.Options{
			NoWarmStart: true,
			Delta:       1e-9,
			MaxIter:     1 << 18,
			Kappa:       0.25 + float64(i)*1e-9,
		}}
	}
	submit := func(i int, token string) (int, api.JobStatus, http.Header) {
		t.Helper()
		body, err := json.Marshal(heavy(i))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, c.GatewayURL+"/v2/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		defer resp.Body.Close()
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("submit %d: decoding %s body: %v", i, resp.Status, err)
		}
		return resp.StatusCode, st, resp.Header
	}

	// The gold tenant's first job takes the worker; its queue is empty.
	if code, _, _ := submit(0, "tok-gold"); code != http.StatusAccepted {
		t.Fatalf("gold job 0: %d, want 202", code)
	}
	// One bulk job queues (depth 1)...
	_, bulkQueued, _ := submit(1, "tok-bulk")
	// ...and the next is the bulk tenant's own problem: over its
	// max_queue of 1, a 429 with Retry-After, not a pool signal.
	code, _, hdr := submit(2, "tok-bulk")
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("bulk over own queue cap: %d (Retry-After %q), want 429 with Retry-After",
			code, hdr.Get("Retry-After"))
	}

	// At the watermark the gold tenant still gets in — critical
	// outranks the queued batch work — and at the cap it displaces it.
	if code, _, _ := submit(3, "tok-gold"); code != http.StatusAccepted {
		t.Fatalf("gold at watermark: %d, want 202", code)
	}
	if code, _, _ := submit(4, "tok-gold"); code != http.StatusAccepted {
		t.Fatalf("gold displacing at cap: %d, want 202", code)
	}
	resp, err := http.Get(c.GatewayURL + "/v2/jobs/" + bulkQueued.ID)
	if err != nil {
		t.Fatal(err)
	}
	var shed api.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&shed)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if shed.State != "failed" || !strings.Contains(shed.Error, "shed") {
		t.Fatalf("displaced bulk job: state %q error %q, want failed with a shed error",
			shed.State, shed.Error)
	}

	// With the queue full of critical work, a bulk submit is a pool
	// verdict: 503, try again later — not the tenant's own 429.
	code, _, hdr = submit(5, "tok-bulk")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("bulk against a saturated pool: %d (Retry-After %q), want 503 with Retry-After",
			code, hdr.Get("Retry-After"))
	}

	// The backend's exposition attributed all of it.
	be := Scrape(t, c.Backends[0].URL)
	for _, want := range []string{
		`thermflow_admission_total{tenant_class="critical",decision="admitted"} 3`,
		`thermflow_admission_total{tenant_class="batch",decision="tenant_queue"} 1`,
		`thermflow_admission_total{tenant_class="batch",decision="shed"} 1`,
		`thermflow_jobs_shed_total{tenant_class="batch"} 2`,
		`thermflow_jobs_queue_bound{bound="max"} 2`,
		`thermflow_jobs_queue_bound{bound="watermark"} 1`,
	} {
		if !strings.Contains(be, want) {
			t.Errorf("backend exposition missing %q", want)
		}
	}
}

// A body that still says kind "region" (the retired gateway fan-out)
// is an ordinary job: the job API ignores the unknown field, so the
// gateway routes it to its owner, the registry runs it, the ID is
// readable through the gateway afterwards, and the in-process region
// solver's exact mode gives the dense reference's peak. The backends'
// region-step routes are gone.
func TestRegionKindBodyIsRegistryJobThroughGateway(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2})
	c.WaitRing(t, 2)

	src := thermflow.GenerateMega(thermflow.MegaOptions{
		Seed: 5, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
	}).Fn.String()
	body, err := json.Marshal(map[string]any{
		"kind":    "region",
		"program": src,
		"options": map[string]any{"solver": "region", "regions": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.GatewayURL+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		t.Fatalf("submit: %s, %v (%+v)", resp.Status, err, st)
	}

	getStatus := func(path string) (int, api.JobStatus) {
		t.Helper()
		resp, err := http.Get(c.GatewayURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET %s: %s, decoding: %v", path, resp.Status, err)
		}
		return resp.StatusCode, out
	}
	if code, got := getStatus("/v2/jobs/" + st.ID + "/wait?timeout_ms=120000"); code != http.StatusOK || got.State != "done" {
		t.Fatalf("wait via gateway: %d, state %q, error %q; want 200 done", code, got.State, got.Error)
	}
	code, got := getStatus("/v2/jobs/" + st.ID)
	if code != http.StatusOK || got.State != "done" || got.Result == nil {
		t.Fatalf("GET via gateway: %d, state %q; want 200 done with a result", code, got.State)
	}

	p, err := thermflow.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := p.Compile(thermflow.Options{Solver: thermflow.SolverDense})
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	if got.Result.PeakTemp != dense.Thermal.PeakTemp {
		t.Fatalf("peak %v K, dense reference %v K", got.Result.PeakTemp, dense.Thermal.PeakTemp)
	}

	// Backends serve no region-step routes.
	for _, b := range c.Backends {
		for _, path := range []string{"/v2/regions/solve", "/v2/regions/collect"} {
			resp, err := http.Post(b.URL+path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("POST %s on a backend: %s, want 404", path, resp.Status)
			}
		}
	}
}
