package e2etest

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/experiments"
)

// writeFile writes body to a fresh temp file and returns its path.
func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// get issues a GET with an optional bearer token and returns the
// response with its body closed.
func get(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// An ID-routed read resolves on exactly one owning backend; the other
// may answer only from its replica shelf. With -replicas 1 and the
// owner killed for good, the gateway still answers the job as done
// from the successor's shelf, marked as a replica answer.
func TestClusterJobOwnerThenReplicaAfterOwnerDies(t *testing.T) {
	c := NewCluster(t, Options{GatewayArgs: []string{"-replicas", "1"}})
	c.WaitRing(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := c.Client().RunJob(ctx, api.JobRequest{Kernel: "matmul",
		Options: thermflow.Options{Policy: thermflow.Chessboard}})
	if err != nil || st.State != "done" {
		t.Fatalf("job through gateway: %v (state %v)", err, st)
	}
	if resp := get(t, c.GatewayURL+"/v2/jobs/"+st.ID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET via gateway: %s", resp.Status)
	}
	const submits = `thermflow_http_requests_total{route="/v2/jobs",method="POST"`
	if !strings.Contains(Scrape(t, c.GatewayURL), submits) {
		t.Errorf("gateway exposition missing %s...}", submits)
	}

	// Exactly one owner. The successor's copy arrives asynchronously;
	// wait for it so the kill below cannot outrun the push.
	var owner, successor *Backend
	deadline := time.Now().Add(10 * time.Second)
	for owner == nil || successor == nil {
		owner, successor = nil, nil
		owners := 0
		for _, b := range c.Backends {
			got, err := b.Client().Job(ctx, st.ID)
			switch {
			case err != nil:
			case got.Replica:
				successor = b
			default:
				owner = b
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("job %s owned by %d backends, want exactly 1", st.ID[:12], owners)
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner %v, replica holder %v: want one of each", owner != nil, successor != nil)
		}
		time.Sleep(20 * time.Millisecond)
	}

	owner.Kill()
	c.WaitRing(t, 1)
	resp := get(t, c.GatewayURL+"/v2/jobs/"+st.ID, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(api.ReplicaHeader) == "" {
		t.Fatalf("dead owner's job via gateway: %s, %s=%q; want 200 from the replica shelf",
			resp.Status, api.ReplicaHeader, resp.Header.Get(api.ReplicaHeader))
	}
	got, err := c.Client().Job(ctx, st.ID)
	if err != nil || got.State != "done" || !got.Replica {
		t.Fatalf("replica answer: %v (%+v), want done from a replica", err, got)
	}
}

// The quick remote experiment sweep (cmd/experiments -addr) against
// one backend: the repeat is answered from the shared cache, and after
// a restart on the same -cache-dir — no job log, so nothing is
// replayed — every job of the repeat is answered from the disk tier.
func TestClusterRemoteSweepCachedAndWarmAfterRestart(t *testing.T) {
	c := NewCluster(t, Options{Backends: 1, BackendArgs: []string{"-job-log-dir", ""}})
	b := c.Backends[0]
	sweep := func(run string) *experiments.RemoteResult {
		t.Helper()
		res, err := experiments.Remote(experiments.Config{Quick: true}, b.URL)
		if err != nil {
			t.Fatalf("%s sweep: %v", run, err)
		}
		if res.Errors != 0 || res.Cached == 0 {
			t.Fatalf("%s sweep: %d of %d jobs failed, %d cached; want 0 failed and cache hits",
				run, res.Errors, res.Jobs, res.Cached)
		}
		return res
	}
	if res, err := experiments.Remote(experiments.Config{Quick: true}, b.URL); err != nil || res.Errors != 0 {
		t.Fatalf("cold sweep: %v (%+v)", err, res)
	}
	sweep("repeat")

	b.Kill()
	if err := b.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if res := sweep("post-restart"); res.Cached != res.Jobs || res.DiskHits != uint64(res.Jobs) {
		t.Fatalf("post-restart sweep: %d of %d cached, %d disk hits; want all cached, all from disk",
			res.Cached, res.Jobs, res.DiskHits)
	}
}

// Under -auth-token-file both the gateway and a backend refuse a
// request without a valid token with 401, and an authenticated job
// runs through the gateway to done.
func TestClusterAuthTokenFile(t *testing.T) {
	tokens := writeFile(t, "tokens", "# cluster tokens\ntok-a\n")
	c := NewCluster(t, Options{
		BackendArgs: []string{"-auth-token-file", tokens},
		GatewayArgs: []string{"-auth-token-file", tokens},
	})
	for _, base := range []string{c.GatewayURL, c.Backends[0].URL} {
		for _, token := range []string{"", "wrong-token"} {
			if resp := get(t, base+"/v2/stats", token); resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s with token %q: %s, want 401", base, token, resp.Status)
			}
		}
		if resp := get(t, base+"/v2/kernels", "tok-a"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s with token: %s, want 200", base, resp.Status)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := client.New(c.GatewayURL, nil, client.WithToken("tok-a"))
	st, err := cl.RunJob(ctx, api.JobRequest{Kernel: "dot"})
	if err != nil || st.State != "done" {
		t.Fatalf("authenticated job through gateway: %v (%+v)", err, st)
	}
}

// A -quota-file holding only a default profile is a global per-client
// rate limit: a burst is answered 429 with Retry-After.
func TestClusterDefaultQuotaRateLimits(t *testing.T) {
	quotas := writeFile(t, "quotas.json", `{"default": {"rate": 1, "burst": 2}}`)
	c := NewCluster(t, Options{Backends: 1, BackendArgs: []string{"-quota-file", quotas}})
	for i := 0; i < 5; i++ {
		resp := get(t, c.Backends[0].URL+"/v2/kernels", "")
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			return
		}
	}
	t.Fatal("a 5-request burst never hit the default-profile rate limit")
}

// With a quota file at the gateway, a batch-class tenant over its rate
// is refused at the edge, and the gateway's /metrics attributes the
// refusal to its class.
func TestClusterGatewayRateLimitCounted(t *testing.T) {
	quotas := writeFile(t, "quotas.json", `{"tenants": [
	  {"name": "low", "class": "batch", "tokens": ["tok-low"], "rate": 1, "burst": 1}
	]}`)
	c := NewCluster(t, Options{Backends: 1, GatewayArgs: []string{"-quota-file", quotas}})
	limited := 0
	for i := 0; i < 5; i++ {
		if get(t, c.GatewayURL+"/v2/kernels", "tok-low").StatusCode == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("tenant low was never rate limited at the gateway")
	}
	const series = `thermflow_admission_total{tenant_class="batch",decision="rate_limited"}`
	if v := metricValue(Scrape(t, c.GatewayURL), series); v < float64(limited) {
		t.Fatalf("%s = %v, want >= %d", series, v, limited)
	}
}
