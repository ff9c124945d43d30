// Package e2etest is an in-process cluster harness: N thermflowd
// backends behind one thermflowgate, each assembled by internal/daemon
// from flag arguments exactly as the binaries assemble themselves — so
// every cluster test also tests the flag-to-config mapping and the
// middleware chain — with durable job/replica write-ahead logs, a
// two-tier cache and the gateway's state log under per-test temp
// directories, listening on real ephemeral TCP ports. Backends can be
// killed (connections slammed, like SIGKILL) and restarted on the same
// address and directories, and the gateway can be restarted on its
// durable state dir. The tests run race-clean under plain `go test`.
package e2etest

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/daemon"
)

// Options parameterizes NewCluster. The zero value is a two-backend
// cluster with a fast health checker and default replication.
type Options struct {
	// Backends is the pool size (0 = 2).
	Backends int
	// BackendArgs are extra thermflowd flags for every backend, parsed
	// after the harness's own (-addr, -workers 2, -cache-dir,
	// -job-log-dir), so a repeated flag overrides the harness value.
	BackendArgs []string
	// GatewayArgs are extra thermflowgate flags, parsed after the
	// harness's own (-addr, -backends, -state-dir, -health-interval
	// 100ms so kill tests converge quickly, -health-timeout 2s,
	// -eject-after 2).
	GatewayArgs []string
}

// Backend is one pool member: a thermflowd over temp cache and WAL
// directories on a fixed ephemeral address.
type Backend struct {
	URL string
	Dir string

	c    *Cluster
	addr string

	mu sync.Mutex
	d  *daemon.Daemon // nil while killed
}

// Cluster is the running pool plus its gateway.
type Cluster struct {
	opts     Options
	Backends []*Backend

	GatewayURL string
	stateDir   string
	gwAddr     string

	gwMu sync.Mutex
	gw   *daemon.Daemon
}

// quiet drops the daemons' logs; the tests assert on state, not log
// text.
func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// NewCluster starts the pool and gateway and registers cleanup.
func NewCluster(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	if opts.Backends == 0 {
		opts.Backends = 2
	}
	c := &Cluster{opts: opts, stateDir: tb.TempDir()}
	for i := 0; i < opts.Backends; i++ {
		b := &Backend{c: c, Dir: tb.TempDir()}
		if err := b.start(); err != nil {
			tb.Fatalf("e2etest: starting backend %d: %v", i, err)
		}
		c.Backends = append(c.Backends, b)
	}
	if err := c.startGateway(); err != nil {
		tb.Fatalf("e2etest: starting gateway: %v", err)
	}
	tb.Cleanup(c.close)
	return c
}

// orEphemeral is addr, or an ephemeral loopback port before the first
// start.
func orEphemeral(addr string) string {
	if addr == "" {
		return "127.0.0.1:0"
	}
	return addr
}

// start assembles and serves one backend on b.addr (an ephemeral port
// on first start, the same address on restart, so the gateway's pool
// view stays valid across a kill).
func (b *Backend) start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.d != nil {
		return fmt.Errorf("backend already running")
	}
	args := append([]string{
		"-addr", orEphemeral(b.addr),
		"-workers", "2",
		"-cache-dir", filepath.Join(b.Dir, "cache"),
		"-job-log-dir", filepath.Join(b.Dir, "joblog"),
	}, b.c.opts.BackendArgs...)
	d, err := daemon.Backend(args, quiet())
	if err != nil {
		return err
	}
	b.addr = d.Addr()
	b.URL = "http://" + b.addr
	go func() { _ = d.Serve() }()
	b.d = d
	return nil
}

// Kill slams the backend: the listener and every open connection are
// closed immediately (the in-process analog of SIGKILL mid-request),
// then the job registry and WALs shut so a Restart can reopen the same
// directories. The restarted backend answers every job it accepted:
// done if the job's answer is in its cache directory, run again
// otherwise.
func (b *Backend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.d != nil {
		b.d.Close()
		b.d = nil
	}
}

// Restart brings a killed backend back on the same address over the
// same cache and WAL directories, replaying whatever they hold.
func (b *Backend) Restart() error { return b.start() }

// Client is a v2 API client pointed directly at this backend.
func (b *Backend) Client() *client.Client { return client.New(b.URL, nil) }

// startGateway assembles and serves the gateway on c.gwAddr,
// persisting drain decisions under c.stateDir so RestartGateway
// replays them.
func (c *Cluster) startGateway() error {
	c.gwMu.Lock()
	defer c.gwMu.Unlock()
	var pool []string
	for _, b := range c.Backends {
		pool = append(pool, b.URL)
	}
	args := append([]string{
		"-addr", orEphemeral(c.gwAddr),
		"-backends", strings.Join(pool, ","),
		"-state-dir", c.stateDir,
		"-health-interval", "100ms",
		"-health-timeout", "2s",
		"-eject-after", "2",
	}, c.opts.GatewayArgs...)
	d, err := daemon.Gateway(args, quiet())
	if err != nil {
		return err
	}
	c.gwAddr = d.Addr()
	c.GatewayURL = "http://" + c.gwAddr
	go func() { _ = d.Serve() }()
	c.gw = d
	return nil
}

// stopGateway closes the gateway half only; backends keep running.
func (c *Cluster) stopGateway() {
	c.gwMu.Lock()
	defer c.gwMu.Unlock()
	if c.gw != nil {
		c.gw.Close()
		c.gw = nil
	}
}

// RestartGateway bounces the gateway on the same address and durable
// state directory.
func (c *Cluster) RestartGateway() error {
	c.stopGateway()
	return c.startGateway()
}

// Client is a v2 API client pointed at the gateway.
func (c *Cluster) Client() *client.Client { return client.New(c.GatewayURL, nil) }

// Pool is a fan-out client over every backend, for per-member
// assertions (which member owns a job, per-member cache stats).
func (c *Cluster) Pool() *client.Pool {
	var urls []string
	for _, b := range c.Backends {
		urls = append(urls, b.URL)
	}
	return client.NewPool(urls, nil)
}

// View fetches the gateway's shard view.
func (c *Cluster) View(tb testing.TB) api.GatewayBackendsResponse {
	tb.Helper()
	resp, err := http.Get(c.GatewayURL + "/gateway/backends")
	if err != nil {
		tb.Fatalf("e2etest: GET /gateway/backends: %v", err)
	}
	defer resp.Body.Close()
	var view api.GatewayBackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		tb.Fatalf("e2etest: decoding shard view: %v", err)
	}
	return view
}

// WaitRing blocks until the gateway's hash ring has n members —
// backends come up healthy, but ejections and restarts converge at
// the health checker's cadence.
func (c *Cluster) WaitRing(tb testing.TB, n int) {
	tb.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(c.GatewayURL + "/gateway/backends")
		if err == nil {
			var view api.GatewayBackendsResponse
			derr := json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if derr == nil && view.RingBackends == n {
				return
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("e2etest: ring never reached %d members", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Scrape fetches a Prometheus exposition and returns its body.
// baseURL is the gateway or a backend URL.
func Scrape(tb testing.TB, baseURL string) string {
	tb.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		tb.Fatalf("e2etest: GET %s/metrics: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("e2etest: GET %s/metrics: %s", baseURL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("e2etest: reading exposition: %v", err)
	}
	return string(body)
}

func (c *Cluster) close() {
	c.stopGateway()
	for _, b := range c.Backends {
		b.Kill()
	}
}
