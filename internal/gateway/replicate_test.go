package gateway

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/joblog"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// With R=1 replication, a terminal status relayed through the gateway
// lands on the owner's ring successor, and killing the owner
// permanently still resolves the ID — served from the successor's
// shelf, marked as a replica.
func TestGatewayServesJobFromSuccessorAfterOwnerDies(t *testing.T) {
	ts1, srv1 := newBackend(t)
	ts2, srv2 := newBackend(t)
	g, gts := newTestGateway(t, Config{
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  250 * time.Millisecond,
	}, ts1.URL, ts2.URL)
	cl := client.New(gts.URL, nil, client.WithRetries(10), client.WithBackoff(50*time.Millisecond))
	ctx := context.Background()

	st, err := cl.RunJob(ctx, testJobs(1)[0])
	if err != nil || st.State != "done" {
		t.Fatalf("job: %v / %+v", err, st)
	}

	// The relay of the terminal status pushes a replica to the other
	// backend in the background.
	backends := map[string]*httptest.Server{ts1.URL: ts1, ts2.URL: ts2}
	shelves := map[string]interface{ Len() int }{ts1.URL: srv1.Replicas(), ts2.URL: srv2.Replicas()}
	g.mu.Lock()
	owner, _ := g.ring.Lookup(st.ID)
	g.mu.Unlock()
	var successor string
	for url := range backends {
		if url != owner {
			successor = url
		}
	}
	waitFor(t, "replica push to the successor", func() bool { return shelves[successor].Len() == 1 })

	// Kill the owner for good; the health checker ejects it.
	backends[owner].Close()
	ringLen := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.ring.Len()
	}
	waitFor(t, "owner ejection", func() bool { return ringLen() == 1 })

	got, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("status read with the owner dead: %v", err)
	}
	if got.ID != st.ID || got.State != "done" {
		t.Fatalf("replica answer: %+v", got)
	}
	if !got.Replica {
		t.Fatal("successor's answer not marked as a replica")
	}
}

// A successor's shelf never keeps a superseded failure. A job that
// expired is replaced by a fresh one when its spec is submitted again;
// once that one is done, the successor holds done, which is what the
// gateway serves for the ID after the owner dies.
func TestGatewayReplicatesDoneOverEarlierExpiry(t *testing.T) {
	ts1, srv1 := newBackend(t)
	ts2, srv2 := newBackend(t)
	g, gts := newTestGateway(t, Config{}, ts1.URL, ts2.URL)
	cl := client.New(gts.URL, nil)
	ctx := context.Background()

	req := api.JobRequest{Kernel: "matmul", Options: thermflow.Options{
		NoWarmStart: true, Kappa: 1, Delta: 0.0002, MaxIter: 32768,
	}}
	hasty := req
	hasty.DeadlineMS = 1
	st, err := cl.RunJob(ctx, hasty)
	if err != nil || st.State != "expired" {
		t.Fatalf("deadlined job: %v / %+v, want expired", err, st)
	}
	g.mu.Lock()
	owner, _ := g.ring.Lookup(st.ID)
	g.mu.Unlock()
	shelf := srv2.Replicas()
	if owner == ts2.URL {
		shelf = srv1.Replicas()
	}
	shelved := func(want string) func() bool {
		return func() bool {
			_, state, ok := shelf.Get(st.ID)
			return ok && state == want
		}
	}
	waitFor(t, "the expired status on the successor", shelved("expired"))

	if st, err = cl.RunJob(ctx, req); err != nil || st.State != "done" {
		t.Fatalf("resubmitted job: %v / %+v, want done", err, st)
	}
	waitFor(t, "the done status on the successor", shelved("done"))
}

// stubBackend is a minimal pool member: answers health probes, counts
// cache resets, and can be killed and rebound on the same address.
type stubBackend struct {
	addr   string
	srv    *http.Server
	resets chan struct{}
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb := &stubBackend{addr: lis.Addr().String(), resets: make(chan struct{}, 16)}
	srv := sb.newServer()
	sb.srv = srv
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	return sb
}

func (sb *stubBackend) newServer() *http.Server {
	return &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete && r.URL.Path == "/v2/cache" {
			sb.resets <- struct{}{}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	})}
}

func (sb *stubBackend) kill() { _ = sb.srv.Close() }

func (sb *stubBackend) restart(t *testing.T) {
	t.Helper()
	lis, err := net.Listen("tcp", sb.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", sb.addr, err)
	}
	srv := sb.newServer()
	sb.srv = srv
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
}

// DELETE /v2/cache reaches every configured member. A member that is
// down gets reported in Unreached (502) — not silently skipped — and
// the reset is re-issued automatically when the member is readmitted.
func TestGatewayCacheResetCoversEjectedBackend(t *testing.T) {
	live, _ := newBackend(t)
	stub := newStubBackend(t)
	stubURL := "http://" + stub.addr
	g, gts := newTestGateway(t, Config{
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  250 * time.Millisecond,
		EjectAfter:     2,
	}, live.URL, stubURL)

	ringLen := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.ring.Len()
	}
	waitFor(t, "both members healthy", func() bool { return ringLen() == 2 })

	// Kill the stub and wait for ejection — the regression scenario:
	// an ejected member must not be silently skipped by a pool-wide
	// reset.
	stub.kill()
	waitFor(t, "stub ejection", func() bool { return ringLen() == 1 })

	req, err := http.NewRequest(http.MethodDelete, gts.URL+"/v2/cache", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("partial reset answered %s (%s), want 502", resp.Status, body)
	}
	var out api.CacheResetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Unreached) != 1 || out.Unreached[0] != stubURL {
		t.Fatalf("Unreached = %v, want exactly the dead member %s", out.Unreached, stubURL)
	}
	if out.Error == "" {
		t.Fatal("partial reset reported no error")
	}

	// The miss is visible in the admin view.
	pending := func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.backends[stubURL].pendingCacheReset
	}
	if !pending() {
		t.Fatal("missed backend not flagged for re-issue")
	}

	// Bring the member back: readmission re-issues the reset.
	stub.restart(t)
	waitFor(t, "readmission", func() bool { return ringLen() == 2 })
	select {
	case <-stub.resets:
	case <-time.After(10 * time.Second):
		t.Fatal("cache reset never re-issued after readmission")
	}
	waitFor(t, "pending flag cleared", func() bool { return !pending() })

	// A clean pool-wide reset answers 200 with nothing unreached.
	resp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("full reset answered %s (%s), want 200", resp2.Status, body)
	}
}

// A drain decision outlives the gateway process when a state log is
// configured: the restarted gateway keeps the backend off the
// assignment ring.
func TestGatewayDrainSurvivesRestart(t *testing.T) {
	b1, _ := newBackend(t)
	b2, _ := newBackend(t)
	dir := filepath.Join(t.TempDir(), "state")

	openGateway := func() (*Gateway, *httptest.Server, *joblog.Log) {
		l, rec, err := joblog.Open(dir, joblog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Backends:       []string{b1.URL, b2.URL},
			HealthInterval: time.Hour,
			Logger:         log.New(io.Discard, "", 0),
			Log:            l,
			Recovery:       &rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(g)
		return g, ts, l
	}

	g1, ts1, l1 := openGateway()
	resp, err := http.Post(ts1.URL+"/gateway/drain?backend="+b1.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %s", resp.Status)
	}
	ringLen := func(g *Gateway) int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.ring.Len()
	}
	if ringLen(g1) != 1 {
		t.Fatalf("ring has %d members after drain, want 1", ringLen(g1))
	}
	// Restart: close the gateway (a clean stop; the WAL was synced at
	// the drain itself, so a SIGKILL would recover identically).
	ts1.Close()
	g1.Close()
	l1.Close()

	g2, ts2, l2 := openGateway()
	defer func() { ts2.Close(); g2.Close(); l2.Close() }()
	if ringLen(g2) != 1 {
		t.Fatalf("restarted ring has %d members, want the drain to persist", ringLen(g2))
	}
	g2.mu.Lock()
	draining := g2.backends[b1.URL].draining
	g2.mu.Unlock()
	if !draining {
		t.Fatal("drained backend not draining after gateway restart")
	}

	// Undrain, restart again: the decision flips back durably.
	resp, err = http.Post(ts2.URL+"/gateway/undrain?backend="+b1.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts2.Close()
	g2.Close()
	l2.Close()

	g3, ts3, l3 := openGateway()
	defer func() { ts3.Close(); g3.Close(); l3.Close() }()
	if ringLen(g3) != 2 {
		t.Fatalf("ring has %d members after undrain+restart, want 2", ringLen(g3))
	}
}
