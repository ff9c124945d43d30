package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
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
	"thermflow/internal/server"
	"thermflow/internal/tenant"
)

// newBackend starts a real thermflowd handler over a small engine.
func newBackend(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(batch.NewRunner(2))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// newTestGateway builds a gateway whose health checker stays out of
// the way unless the test configures it otherwise.
func newTestGateway(t *testing.T, cfg Config, backends ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg.Backends = backends
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts
}

// testJobs returns v2 job requests with distinct content identities.
func testJobs(n int) []api.JobRequest {
	kernels := []string{"dot", "fir", "matmul"}
	out := make([]api.JobRequest, n)
	for i := range out {
		out[i] = api.JobRequest{
			Kernel:  kernels[i%len(kernels)],
			Options: thermflow.Options{NumRegs: 8 + 4*(i/len(kernels)), SkipAnalysis: true},
		}
	}
	return out
}

// idOf computes a request's job ID the way the gateway and backends do.
func idOf(t *testing.T, req api.JobRequest) string {
	t.Helper()
	spec, err := server.ResolveSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// Submits through the gateway land on the ring owner, and ID-routed
// reads through the gateway find them there — wherever they live.
func TestGatewayRoutesByID(t *testing.T) {
	b1, _ := newBackend(t)
	b2, _ := newBackend(t)
	g, ts := newTestGateway(t, Config{}, b1.URL, b2.URL)
	cl := client.New(ts.URL, nil)
	pool := client.NewPool([]string{b1.URL, b2.URL}, nil)
	ctx := context.Background()

	owners := make(map[string]int)
	for _, req := range testJobs(8) {
		st, err := cl.RunJob(ctx, req)
		if err != nil {
			t.Fatalf("RunJob via gateway: %v", err)
		}
		if st.State != "done" {
			t.Fatalf("job state %s, want done", st.State)
		}
		if want := idOf(t, req); st.ID != want {
			t.Fatalf("gateway job ID %s, want %s", st.ID, want)
		}

		// The gateway resolves the ID on whichever backend owns it.
		got, err := cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatalf("GET via gateway: %v", err)
		}
		if got.State != "done" {
			t.Fatalf("routed read state %s, want done", got.State)
		}

		// And that backend is the ring owner — on exactly one member.
		_, backendIdx, err := pool.FindJob(ctx, st.ID)
		if err != nil {
			t.Fatalf("FindJob: %v", err)
		}
		owner, _ := g.ring.Lookup(st.ID)
		want := 0
		if owner == b2.URL {
			want = 1
		}
		if backendIdx != want {
			t.Fatalf("job %s on backend %d, ring owner is %d", st.ID[:12], backendIdx, want)
		}
		owners[owner]++
	}
	if len(owners) < 2 {
		t.Fatalf("all 8 jobs landed on one backend: %v", owners)
	}
}

// The v2 batch fan-out answers every index exactly once with the right
// IDs, spreading work across the pool.
func TestGatewayBatchFanoutMerge(t *testing.T) {
	b1, _ := newBackend(t)
	b2, _ := newBackend(t)
	_, ts := newTestGateway(t, Config{}, b1.URL, b2.URL)
	cl := client.New(ts.URL, nil)

	reqs := testJobs(12)
	counts := make(map[int]int)
	ids := make(map[int]string)
	err := cl.CompileBatchJobs(context.Background(), reqs, func(item api.JobItem) {
		counts[item.Index]++
		ids[item.Index] = item.ID
		if item.Error != "" {
			t.Errorf("item %d failed: %s", item.Index, item.Error)
		}
	})
	if err != nil {
		t.Fatalf("batch via gateway: %v", err)
	}
	for i, req := range reqs {
		if counts[i] != 1 {
			t.Fatalf("index %d answered %d times, want exactly once", i, counts[i])
		}
		if want := idOf(t, req); ids[i] != want {
			t.Fatalf("index %d ID %s, want %s", i, ids[i], want)
		}
	}

	// Both backends actually compiled something.
	pool := client.NewPool([]string{b1.URL, b2.URL}, nil)
	stats, err := pool.CacheStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.Misses == 0 {
			t.Errorf("backend %d compiled nothing — fan-out did not spread", i)
		}
	}
}

// dyingBackend answers health probes but kills every batch stream
// after echoing n items, without finishing the shard — the shape of a
// backend crashing mid-batch.
func dyingBackend(t *testing.T, itemsBeforeDeath int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/stats", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, api.StatsResponse{})
	})
	mux.HandleFunc("POST /v2/batch", func(w http.ResponseWriter, r *http.Request) {
		var req api.JobsBatchRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for i := 0; i < itemsBeforeDeath && i < len(req.Jobs); i++ {
			_ = enc.Encode(api.JobItem{Index: i, Error: "shard died mid-job"})
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // slam the connection
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// A backend dying mid-batch: its unanswered jobs re-dispatch to the
// ring's next member and every index is still answered exactly once —
// items the dead backend did answer are not answered again.
func TestGatewayFailoverMidBatch(t *testing.T) {
	healthy, _ := newBackend(t)
	dying := dyingBackend(t, 1)
	_, ts := newTestGateway(t, Config{}, healthy.URL, dying.URL)
	cl := client.New(ts.URL, nil)

	reqs := testJobs(10)
	counts := make(map[int]int)
	fromDead := 0
	err := cl.CompileBatchJobs(context.Background(), reqs, func(item api.JobItem) {
		counts[item.Index]++
		if item.Error == "shard died mid-job" {
			fromDead++
		} else if item.Error != "" {
			t.Errorf("item %d failed: %s", item.Index, item.Error)
		}
	})
	if err != nil {
		t.Fatalf("batch with dying backend: %v", err)
	}
	total := 0
	for i := range reqs {
		if counts[i] != 1 {
			t.Fatalf("index %d answered %d times, want exactly once", i, counts[i])
		}
		total++
	}
	if total != len(reqs) {
		t.Fatalf("answered %d of %d", total, len(reqs))
	}
	// The dying backend owned some shard (with 10 distinct IDs over 2
	// members that is overwhelmingly likely) and answered exactly one
	// item before dying; that item must have survived un-duplicated.
	if fromDead > 1 {
		t.Fatalf("%d items claim to come from the dead backend's single pre-death emit", fromDead)
	}
}

// An owner that is unreachable fails a submit over to the ring's next
// member immediately; status reads converge once the health checker
// (fed by both probes and the observed proxy failure) ejects the dead
// owner and the ring re-routes the ID to where the job actually ran.
func TestGatewaySubmitFailover(t *testing.T) {
	live, _ := newBackend(t)
	// Reserve an address with nothing listening on it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + lis.Addr().String()
	lis.Close()

	g, ts := newTestGateway(t, Config{
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  250 * time.Millisecond,
	}, live.URL, deadURL)
	cl := client.New(ts.URL, nil, client.WithRetries(10), client.WithBackoff(50*time.Millisecond))

	// Find a job the ring assigns to the dead backend while it is
	// still a member (locked read: the 25ms health checker rebuilds
	// the ring concurrently).
	lookup := func(id string) string {
		g.mu.Lock()
		defer g.mu.Unlock()
		owner, _ := g.ring.Lookup(id)
		return owner
	}
	var req api.JobRequest
	found := false
	for _, cand := range testJobs(32) {
		if lookup(idOf(t, cand)) == deadURL {
			req, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no sample job routed to the dead backend")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	st, err := cl.RunJob(ctx, req)
	if err != nil {
		t.Fatalf("submit owned by dead backend did not converge: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("failed-over job state %s, want done", st.State)
	}
}

// Draining removes a backend from the ring — new jobs route elsewhere
// — while the admin view tracks its state; undraining restores it.
func TestGatewayDrain(t *testing.T) {
	b1, _ := newBackend(t)
	b2, _ := newBackend(t)
	_, ts := newTestGateway(t, Config{}, b1.URL, b2.URL)
	cl := client.New(ts.URL, nil)
	pool := client.NewPool([]string{b1.URL, b2.URL}, nil)
	ctx := context.Background()

	drainResp := func(path string) api.GatewayBackendsResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: %s: %s", path, resp.Status, body)
		}
		var out api.GatewayBackendsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Land a job on b1 before the drain; its status must stay readable
	// through the gateway while b1 drains (the read ring keeps serving
	// the shard the draining member ran).
	var onB1 string
	for _, req := range testJobs(16) {
		st, err := cl.RunJob(ctx, req)
		if err != nil || st.State != "done" {
			t.Fatalf("pre-drain job: %v / %+v", err, st)
		}
		if _, idx, err := pool.FindJob(ctx, st.ID); err == nil && idx == 0 {
			onB1 = st.ID
			break
		}
	}
	if onB1 == "" {
		t.Fatal("no sample job landed on b1")
	}

	view := drainResp("/gateway/drain?backend=" + b1.URL)
	if view.RingBackends != 1 {
		t.Fatalf("ring has %d members after drain, want 1", view.RingBackends)
	}
	if !view.Backends[0].Draining || !view.Backends[0].Drained {
		t.Fatalf("drained backend state: %+v", view.Backends[0])
	}

	st, err := cl.Job(ctx, onB1)
	if err != nil {
		t.Fatalf("status read of drained member's job: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("drained member's job state %s, want done", st.State)
	}

	// Every new job lands on the surviving member (fresh content
	// identities — the pre-drain jobs are already registered on b1).
	for i := 0; i < 6; i++ {
		req := api.JobRequest{Kernel: "dot",
			Options: thermflow.Options{NumRegs: 40 + i, SkipAnalysis: true}}
		st, err := cl.RunJob(ctx, req)
		if err != nil || st.State != "done" {
			t.Fatalf("job during drain: %v / %+v", err, st)
		}
		if _, idx, err := pool.FindJob(ctx, st.ID); err != nil || idx != 1 {
			t.Fatalf("job %s on backend %d (err %v), want 1 (b2)", st.ID[:12], idx, err)
		}
	}

	view = drainResp("/gateway/undrain?backend=" + b1.URL)
	if view.RingBackends != 2 {
		t.Fatalf("ring has %d members after undrain, want 2", view.RingBackends)
	}

	// Unknown backends are a 404.
	resp, err := http.Post(ts.URL+"/gateway/drain?backend=http://nope:1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("draining unknown backend: %d, want 404", resp.StatusCode)
	}
}

// The health checker ejects a dead backend and readmits it when it
// answers again.
func TestGatewayHealthEjectAndReadmit(t *testing.T) {
	live, _ := newBackend(t)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flakyAddr := lis.Addr().String()
	flakySrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go func() { _ = flakySrv.Serve(lis) }()

	g, ts := newTestGateway(t, Config{
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  250 * time.Millisecond,
		EjectAfter:     2,
	}, live.URL, "http://"+flakyAddr)
	cl := client.New(ts.URL, nil)

	ringLen := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.ring.Len()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitFor("both members healthy", func() bool { return ringLen() == 2 })

	// Kill the flaky backend; the checker ejects it.
	_ = flakySrv.Close()
	waitFor("ejection", func() bool { return ringLen() == 1 })

	// Traffic keeps flowing to the survivor.
	st, err := cl.RunJob(context.Background(), api.JobRequest{Kernel: "dot",
		Options: thermflow.Options{SkipAnalysis: true}})
	if err != nil || st.State != "done" {
		t.Fatalf("job during ejection: %v / %+v", err, st)
	}

	// Bring it back on the same address; the checker readmits it.
	lis2, err := net.Listen("tcp", flakyAddr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", flakyAddr, err)
	}
	flakySrv2 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go func() { _ = flakySrv2.Serve(lis2) }()
	t.Cleanup(func() { _ = flakySrv2.Close() })
	waitFor("readmission", func() bool { return ringLen() == 2 })
}

// Pool-wide reads: /v2/kernels proxies, /v2/stats aggregates over every
// healthy member, and DELETE /v2/cache resets them all.
func TestGatewayAggregates(t *testing.T) {
	b1, _ := newBackend(t)
	b2, _ := newBackend(t)
	_, ts := newTestGateway(t, Config{}, b1.URL, b2.URL)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	kernels, err := cl.Kernels(ctx)
	if err != nil || len(kernels) == 0 {
		t.Fatalf("kernels via gateway: %v (%d)", err, len(kernels))
	}

	// Spread some work, then check the aggregate counts both members.
	err = cl.CompileBatchJobs(ctx, testJobs(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	agg := stats.Cache
	pool := client.NewPool([]string{b1.URL, b2.URL}, nil)
	per, err := pool.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := per[0].Misses + per[1].Misses; agg.Misses != want {
		t.Fatalf("aggregate misses %d, want %d", agg.Misses, want)
	}
	if want := per[0].Workers + per[1].Workers; agg.Workers != want {
		t.Fatalf("aggregate workers %d, want %d", agg.Workers, want)
	}
	if stats.Jobs.Capacity == 0 || stats.Jobs.Concurrency == 0 {
		t.Fatalf("aggregate stats look empty: %+v", stats.Jobs)
	}

	// Pool-wide reset zeroes both members.
	if _, err := cl.ResetCache(ctx); err != nil {
		t.Fatal(err)
	}
	per, err = pool.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range per {
		if st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("backend %d not reset: %+v", i, st)
		}
	}
}

// The pool-wide /v2/stats carries the admission counters too: when one
// backend sheds a job, the gateway's aggregate reports the shed and
// the summed queue bounds instead of a silent zero.
func TestGatewayStatsSumsAdmission(t *testing.T) {
	// One slot, a queue bound of 2 and a watermark of 1: a running job
	// plus one queued job put the next same-priority submit at the
	// watermark, where admission sheds it.
	shedder := server.NewConfig(batch.NewRunner(1), server.Config{
		Jobs: jobs.Config{Concurrency: 1, MaxQueue: 2, QueueWatermark: 1},
	})
	sts := httptest.NewServer(shedder)
	t.Cleanup(func() { sts.Close(); shedder.Close() })
	other, _ := newBackend(t)
	_, ts := newTestGateway(t, Config{}, sts.URL, other.URL)

	backend := client.New(sts.URL, nil, client.WithRetries(1))
	ctx := context.Background()
	for i := 0; i < 2; i++ { // the running job, then the queued one
		if _, err := backend.SubmitJob(ctx, slowJob(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := backend.SubmitJob(ctx, slowJob(2))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at the watermark: %v, want 503 shed", err)
	}

	stats, err := client.New(ts.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Jobs; got.Shed != 1 || got.MaxQueue != 2 || got.Watermark != 1 {
		t.Fatalf("aggregate admission = shed %d, max_queue %d, watermark %d; want 1, 2, 1",
			got.Shed, got.MaxQueue, got.Watermark)
	}
}

// slowJob is a cold-start analysis at a tight δ — long enough to hold
// an engine slot across a few HTTP round trips. Distinct i values get
// distinct job IDs.
func slowJob(i int) api.JobRequest {
	return api.JobRequest{Kernel: "matmul", Options: thermflow.Options{
		NoWarmStart: true, Delta: 0.00005 + float64(i)*1e-7, MaxIter: 1 << 17, Kappa: 1,
	}}
}

// The retired v1 surface is gone from both daemons, not merely
// undocumented: every former route answers 404 on a backend and on the
// gateway, and the request metrics file it under "other" rather than a
// label of its own.
func TestV1SurfaceGone(t *testing.T) {
	bm := server.NewMetrics()
	bsrv := server.NewConfig(batch.NewRunner(1), server.Config{Metrics: bm})
	backend := httptest.NewServer(server.Chain(bsrv, server.WithMetrics(bm)))
	t.Cleanup(func() { backend.Close(); bsrv.Close() })
	gm := server.NewMetrics()
	g, _ := newTestGateway(t, Config{Metrics: gm}, backend.URL)
	gateway := httptest.NewServer(server.Chain(g, server.WithMetrics(gm)))
	t.Cleanup(gateway.Close)

	const v1 = "/v1" // the retired prefix
	routes := []struct{ method, path, body string }{
		{http.MethodPost, v1 + "/compile", `{"kernel":"dot"}`},
		{http.MethodPost, v1 + "/batch", `{"jobs":[{"kernel":"dot"}]}`},
		{http.MethodGet, v1 + "/kernels", ""},
		{http.MethodGet, v1 + "/cache", ""},
		{http.MethodDelete, v1 + "/cache", ""},
	}
	for _, daemon := range []struct{ name, url string }{{"thermflowd", backend.URL}, {"thermflowgate", gateway.URL}} {
		for _, rt := range routes {
			req, err := http.NewRequest(rt.method, daemon.url+rt.path, strings.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s %s: status %d, want 404", daemon.name, rt.method, rt.path, resp.StatusCode)
			}
		}
		resp, err := http.Get(daemon.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		exposition, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(exposition), `route="`+v1) {
			t.Errorf("%s: a v1 path got its own route label", daemon.name)
		}
		for _, method := range []string{"POST", "GET", "DELETE"} {
			want := fmt.Sprintf(`thermflow_http_requests_total{route="other",method="%s",code="404"}`, method)
			if !strings.Contains(string(exposition), want) {
				t.Errorf("%s: exposition missing %s", daemon.name, want)
			}
		}
	}
}

// The gateway forwards Authorization to the backends, so one token
// file can protect the whole deployment even with no edge auth.
func TestGatewayAuthPassthrough(t *testing.T) {
	b := server.New(batch.NewRunner(1))
	backend := httptest.NewServer(server.Chain(b, server.WithAuth(server.NewTokenSet("sekrit"))))
	t.Cleanup(func() { backend.Close(); b.Close() })
	_, ts := newTestGateway(t, Config{}, backend.URL)

	// Without the token the backend's 401 travels back through the
	// gateway untouched.
	noAuth := client.New(ts.URL, nil, client.WithRetries(1))
	_, err := noAuth.Kernels(context.Background())
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless request: %v, want 401", err)
	}

	withAuth := client.New(ts.URL, nil, client.WithToken("sekrit"))
	if _, err := withAuth.Kernels(context.Background()); err != nil {
		t.Fatalf("authed request through gateway: %v", err)
	}
}

// A batch whose jobs are malformed is rejected before the stream
// starts, with the backend's status mapping.
func TestGatewayBatchValidation(t *testing.T) {
	b1, _ := newBackend(t)
	_, ts := newTestGateway(t, Config{}, b1.URL)

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"jobs":[]}`, http.StatusUnprocessableEntity},
		{`{"jobs":[{"kernel":"no-such-kernel"}]}`, http.StatusUnprocessableEntity},
		{`{"jobs":[{"kernel":"dot","options":{"policy":"bogus"}}]}`, http.StatusUnprocessableEntity},
		{`{not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v2/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("batch %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// The gateway stamps the tenant name its quota middleware resolved
// into X-Thermflow-Tenant on every proxied request — and a tenant
// header spoofed by the client never propagates, because outbound
// requests are built fresh.
func TestGatewayStampsTenantHeader(t *testing.T) {
	quotas, err := tenant.Parse([]byte(`{
		"tenants": [{"name": "acme", "class": "high", "tokens": ["acme-token"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := map[string]string{} // request path → tenant header at the backend
	b := server.New(batch.NewRunner(1))
	t.Cleanup(b.Close)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = r.Header.Get(server.TenantHeader)
		mu.Unlock()
		b.ServeHTTP(w, r)
	}))
	t.Cleanup(backend.Close)

	g, _ := newTestGateway(t, Config{}, backend.URL)
	edge := httptest.NewServer(server.Chain(g, server.WithQuotas(server.QuotaConfig{Quotas: quotas})))
	t.Cleanup(edge.Close)

	do := func(token, spoof string) {
		t.Helper()
		body, _ := json.Marshal(testJobs(1)[0])
		req, err := http.NewRequest(http.MethodPost, edge.URL+"/v2/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		if spoof != "" {
			req.Header.Set(server.TenantHeader, spoof)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Fatalf("submit through gateway: %d", resp.StatusCode)
		}
	}

	do("acme-token", "")
	mu.Lock()
	got := seen["/v2/jobs"]
	mu.Unlock()
	if got != "acme" {
		t.Errorf("backend saw tenant header %q, want %q", got, "acme")
	}

	// An unrecognized token claiming a tenant by header gets nothing.
	do("", "acme")
	mu.Lock()
	got = seen["/v2/jobs"]
	mu.Unlock()
	if got != "" {
		t.Errorf("spoofed tenant header propagated as %q", got)
	}
}
