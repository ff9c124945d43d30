// Package gateway implements thermflowgate: a sharding front server
// over a pool of thermflowd backends. It speaks the same HTTP surface
// as one backend — the full /v2 API — and routes every job to the pool
// member that owns its ID on a consistent-hash ring (ring.go), so the
// content hash that already names the job, its cache slot and its disk
// entry also names its shard.
//
// Scaling properties:
//
//   - Routing is deterministic and restart-stable: the ring is a pure
//     function of the member set, so every gateway instance (and every
//     restart) sends the same ID to the same backend, and each
//     backend's result store only ever holds its own shard.
//   - Membership changes are bounded-remap: ejecting or draining one
//     of n backends remaps only that backend's ~1/n of the keyspace.
//   - Batches fan out per shard and the ID-keyed NDJSON streams merge
//     back in completion order (batch.go); a backend dying mid-batch
//     has its unanswered jobs re-dispatched to the ring's next member
//     — safe because submission is idempotent by content identity —
//     with every index answered exactly once.
//   - Active health checks (health.go) eject unresponsive backends
//     with probe backoff and readmit them on recovery;
//     administrative draining (admin.go) removes a backend from the
//     ring while its in-flight work completes.
//
// The gateway holds no job state of its own: it canonicalizes requests
// just far enough to learn their identity (server.ResolveSpec — the
// same code path the backends use), then proxies bytes. Cross-cutting
// hardening (auth, tenant quotas, request IDs, access logs, body and
// deadline caps) reuses the internal/server middleware stack, composed
// by cmd/thermflowgate exactly as cmd/thermflowd composes it.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/joblog"
	"thermflow/internal/jobs"
	"thermflow/internal/server"
	"thermflow/internal/trace"
)

// Defaults for Config fields left zero.
const (
	DefaultHealthInterval  = 2 * time.Second
	DefaultHealthTimeout   = 2 * time.Second
	DefaultEjectAfter      = 2
	DefaultMaxProbeBackoff = 30 * time.Second
	// DefaultReplicas is how many ring successors receive a copy of
	// each terminal job status when Config.Replicas is zero.
	DefaultReplicas = 1
)

// Config parameterizes New.
type Config struct {
	// Backends are the pool members' base URLs (scheme optional;
	// "host:port" is read as http). At least one is required.
	Backends []string
	// VNodes is the ring's virtual nodes per backend (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// HealthInterval is the probe cadence for healthy backends;
	// HealthTimeout bounds one probe. Zero selects the defaults.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EjectAfter is how many consecutive probe failures eject a
	// backend from the ring (<= 0 selects DefaultEjectAfter). Ejected
	// backends are probed with exponential backoff up to
	// MaxProbeBackoff and readmitted on the first success.
	EjectAfter      int
	MaxProbeBackoff time.Duration
	// Client issues backend requests (nil selects a default with no
	// overall timeout — batch streams and long polls are long-lived;
	// they are bounded by the inbound request's context instead).
	Client *http.Client
	// Logger receives gateway events (nil selects the process default).
	Logger *log.Logger
	// Replicas is how many ring successors receive a copy of each
	// terminal job status the gateway relays, so a permanently dead
	// owner still answers GET /v2/jobs/{id} from a successor's replica
	// shelf. Zero selects DefaultReplicas; negative disables
	// replication.
	Replicas int
	// Log, when non-nil, persists the gateway's control-plane
	// decisions (drain/undrain) so they survive a gateway restart;
	// pass the Recovery from the same joblog.Open to replay them.
	Log      *joblog.Log
	Recovery *joblog.Recovery
	// Metrics, when non-nil, mounts GET /metrics on the gateway and
	// attaches its per-backend health/inflight gauges and
	// ejection/failover/replication counters to the registry. The HTTP
	// request series additionally require server.WithMetrics in the
	// middleware chain, which cmd/thermflowgate wires.
	Metrics *server.Metrics
	// Trace is the recorder for the gateway's own edge spans, which
	// GET /v2/jobs/{id}/trace merges into the owning backend's
	// timeline. Nil builds a private recorder — pass the daemon's so
	// server.WithTracing shares it.
	Trace *trace.Recorder
}

// Gateway is the thermflowgate HTTP handler plus its health checker.
// Construct with New, then Close to stop probing.
type Gateway struct {
	hc         *http.Client
	probe      *http.Client
	logger     *log.Logger
	vnodes     int
	ejectAfter int
	interval   time.Duration
	maxBackoff time.Duration
	replicas   int
	mux        *http.ServeMux

	mu       sync.Mutex
	backends map[string]*backend
	order    []string // configured listing order
	ring     *Ring    // assignment ring: healthy, not draining; swapped, never mutated
	readRing *Ring    // read ring: every healthy member, draining included
	stateLog *joblog.Log
	// replicated remembers the terminal state each ID was last pushed
	// to successors with, FIFO-capped; replOrder is its eviction
	// order.
	replicated map[string]jobs.State
	replOrder  []string

	metrics gwMetrics       // inert zero value unless Config.Metrics was set
	trace   *trace.Recorder // never nil; the gateway's edge spans per job

	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// backend is one pool member's gateway-side state (guarded by
// Gateway.mu).
type backend struct {
	url string

	healthy   bool
	draining  bool
	fails     int
	lastErr   string
	lastProbe time.Time
	nextProbe time.Time
	inflight  int

	// pendingCacheReset records that a pool-wide cache reset could not
	// reach this backend; the reset (with the credentials of the
	// request that asked for it) is re-issued when the backend answers
	// again. resetInflight guards against stacking re-issues across
	// probe ticks.
	pendingCacheReset bool
	cacheResetAuth    string
	resetInflight     bool
}

// New builds the gateway over the configured pool and starts its
// health checker. Backends start healthy — the first probe round
// corrects optimism within a HealthInterval.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.MaxProbeBackoff <= 0 {
		cfg.MaxProbeBackoff = DefaultMaxProbeBackoff
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.NewRecorder("thermflowgate", 0, 0)
	}
	g := &Gateway{
		hc:         cfg.Client,
		probe:      &http.Client{Timeout: cfg.HealthTimeout},
		logger:     cfg.Logger,
		vnodes:     cfg.VNodes,
		ejectAfter: cfg.EjectAfter,
		interval:   cfg.HealthInterval,
		maxBackoff: cfg.MaxProbeBackoff,
		replicas:   cfg.Replicas,
		mux:        http.NewServeMux(),
		backends:   make(map[string]*backend),
		stateLog:   cfg.Log,
		replicated: make(map[string]jobs.State),
		trace:      cfg.Trace,
	}
	for _, raw := range cfg.Backends {
		u, err := normalizeBackendURL(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := g.backends[u]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", u)
		}
		g.backends[u] = &backend{url: u, healthy: true}
		g.order = append(g.order, u)
	}
	if g.stateLog != nil && cfg.Recovery != nil {
		g.applyRecoveredStateLocked(*cfg.Recovery)
	}
	g.rebuildRingLocked() // no contention before the handler is live

	g.mux.HandleFunc("POST /v2/jobs", g.handleJobSubmit)
	g.mux.HandleFunc("GET /v2/jobs/{id}", g.handleJobGet)
	g.mux.HandleFunc("GET /v2/jobs/{id}/wait", g.handleJobGet)
	g.mux.HandleFunc("GET /v2/jobs/{id}/trace", g.handleJobTrace)
	g.mux.HandleFunc("POST /v2/batch", g.handleBatch)
	g.mux.HandleFunc("GET /v2/stats", g.handleStats)
	g.mux.HandleFunc("GET /v2/kernels", g.handleKernels)
	g.mux.HandleFunc("DELETE /v2/cache", g.handleCacheReset)
	g.mux.HandleFunc("GET /gateway/backends", g.handleBackends)
	g.mux.HandleFunc("POST /gateway/drain", g.handleDrain(true))
	g.mux.HandleFunc("POST /gateway/undrain", g.handleDrain(false))
	if cfg.Metrics != nil {
		g.instrumentMetrics(cfg.Metrics)
		g.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}

	ctx, cancel := context.WithCancel(context.Background())
	g.stop = cancel
	g.wg.Add(1)
	go g.healthLoop(ctx)
	return g, nil
}

// normalizeBackendURL canonicalizes a pool member's base URL — the
// string is the member's ring identity, so equal pools must spell
// their members identically.
func normalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("gateway: empty backend URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("gateway: invalid backend URL %q", raw)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("gateway: backend %q: scheme %q not supported", raw, u.Scheme)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Close stops the health checker. In-flight proxied requests are
// governed by their own contexts.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		g.stop()
		g.wg.Wait()
	})
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// rebuildRingLocked recomputes the assignment ring from the eligible
// (healthy, not draining) members, and the read ring from every
// healthy member — a draining backend takes no new jobs but still
// holds and serves the ones it ran.
func (g *Gateway) rebuildRingLocked() {
	var eligible, readable []string
	for name, b := range g.backends {
		if !b.healthy {
			continue
		}
		readable = append(readable, name)
		if !b.draining {
			eligible = append(eligible, name)
		}
	}
	g.ring = NewRing(eligible, g.vnodes)
	g.readRing = NewRing(readable, g.vnodes)
}

// route returns key's owner followed by the failover successors —
// every eligible backend, in the order the key would remap if earlier
// members were ejected.
func (g *Gateway) route(key string) []string {
	g.mu.Lock()
	ring := g.ring
	g.mu.Unlock()
	return ring.Successors(key, ring.Len())
}

// acquire registers one in-flight request against a backend; the
// returned func releases it. Draining completes when every acquired
// slot has been released.
func (g *Gateway) acquire(name string) func() {
	g.mu.Lock()
	if b := g.backends[name]; b != nil {
		b.inflight++
	}
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			if b := g.backends[name]; b != nil {
				b.inflight--
			}
			g.mu.Unlock()
		})
	}
}

// decodeBody unmarshals a JSON request body, mirroring the backends'
// status mapping: malformed JSON is 400, well-formed JSON naming
// unknown enums is 422. The boolean reports success; on failure the
// response has been written.
func decodeBody(w http.ResponseWriter, body []byte, v any) bool {
	if err := json.Unmarshal(body, v); err != nil {
		var unknown *thermflow.UnknownNameError
		if errors.As(err, &unknown) {
			server.WriteErr(w, http.StatusUnprocessableEntity, "%v", unknown)
		} else {
			server.WriteErr(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return false
	}
	return true
}

// readBody drains a capped request body. The boolean reports success;
// on failure the response has been written.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// outboundRequest builds the proxied request for one backend,
// forwarding the credentials and request ID of the inbound one. When
// the gateway's quota middleware resolved a named tenant, its name is
// stamped into the TenantHeader so a backend started with
// -trust-tenant-header applies the same profile. Outbound requests are
// built fresh, so a TenantHeader spoofed by the inbound client never
// propagates — only the gateway's own resolution does.
func (g *Gateway) outboundRequest(ctx context.Context, r *http.Request, backendURL, method, pathAndQuery string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, backendURL+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	if id := server.RequestID(r); id != "" {
		req.Header.Set(server.RequestIDHeader, id)
	} else if id := r.Header.Get(server.RequestIDHeader); id != "" {
		req.Header.Set(server.RequestIDHeader, id)
	}
	// Trace identity comes from ctx, not the inbound header: the
	// middleware already sanitized it and parented the gateway's server
	// span under the client's.
	if sc := trace.FromContext(ctx); sc.Valid() {
		req.Header.Set(server.TraceHeader, sc.Header())
	}
	if p := server.TenantProfile(r); p != nil && p.Name != "" && p.Name != "default" {
		req.Header.Set(server.TenantHeader, p.Name)
	}
	return req, nil
}

// send issues a proxied request against one backend, holding an
// in-flight slot until the response body is closed.
func (g *Gateway) send(r *http.Request, backendURL, method, pathAndQuery string, body []byte) (*http.Response, error) {
	req, err := g.outboundRequest(r.Context(), r, backendURL, method, pathAndQuery, body)
	if err != nil {
		return nil, err
	}
	release := g.acquire(backendURL)
	resp, err := g.hc.Do(req)
	if err != nil {
		release()
		return nil, err
	}
	resp.Body = &releasingBody{ReadCloser: resp.Body, release: release}
	return resp, nil
}

// releasingBody ties a backend's in-flight slot to its response body.
type releasingBody struct {
	io.ReadCloser
	release func()
}

func (b *releasingBody) Close() error {
	err := b.ReadCloser.Close()
	b.release()
	return err
}

// relayHeaders are the backend response headers that travel to the
// client: WWW-Authenticate because a relayed 401 must keep its
// challenge, the replica marker because clients (and cluster tests) can
// tell a successor's answer from the owner's.
var relayHeaders = []string{"Content-Type", "Retry-After", "WWW-Authenticate", server.ReplicaHeader}

// relay copies a backend response to the client verbatim: status, the
// headers that matter to clients, body bytes.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// forward tries key's owner, then its failover successors, relaying
// the first backend that answers at all — an HTTP error is the
// backend's answer and travels as-is; only transport failures move to
// the next candidate. Use for idempotent work (submits, the kernel
// listing): re-dispatching to the ring's next member is where
// the key remaps once the dead owner is ejected, so retried and
// future requests converge on the same backend.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key, method, pathAndQuery string, body []byte) {
	g.forwardRelay(w, r, key, method, pathAndQuery, body,
		func(w http.ResponseWriter, resp *http.Response, _ string) { relay(w, resp) })
}

// forwardRelay is forward with a custom relay step: relayFn receives
// the first answering backend's response (and its name) and owns
// closing the body.
func (g *Gateway) forwardRelay(w http.ResponseWriter, r *http.Request, key, method, pathAndQuery string, body []byte, relayFn func(http.ResponseWriter, *http.Response, string)) {
	cands := g.route(key)
	if len(cands) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, "gateway: no healthy backend")
		return
	}
	var lastErr error
	for _, name := range cands {
		resp, err := g.send(r, name, method, pathAndQuery, body)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone
			}
			g.observeFailure(name, err)
			g.metrics.failovers.Inc()
			lastErr = err
			continue
		}
		relayFn(w, resp, name)
		return
	}
	server.WriteErr(w, http.StatusBadGateway, "gateway: no backend reachable: %v", lastErr)
}

// resolveID canonicalizes a job request into its content identity —
// the shard key. Failures are 422, exactly as on a backend.
func resolveID(w http.ResponseWriter, req api.JobRequest) (string, bool) {
	spec, err := server.ResolveSpec(req)
	if err != nil {
		server.WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		return "", false
	}
	id, err := spec.ID()
	if err != nil {
		server.WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		return "", false
	}
	return id, true
}

// handleJobSubmit is POST /v2/jobs: canonicalize to learn the ID,
// route to its owner, forward the original bytes. Submission is
// idempotent by content identity, so owner failure falls over to the
// ring's next member — the same backend the ID remaps to once the
// owner is ejected.
func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req api.JobRequest
	if !decodeBody(w, body, &req) {
		return
	}
	id, ok := resolveID(w, req)
	if !ok {
		return
	}
	server.AnnotateJob(r, id)
	// A submit can answer terminally on the spot (a duplicate of a done
	// job, or a cache hit), so its relay replicates like a status read.
	g.forwardRelay(w, r, id, http.MethodPost, "/v2/jobs", body,
		func(w http.ResponseWriter, resp *http.Response, served string) {
			g.relayAndReplicate(w, r, resp, id, served)
		})
}

// handleJobGet serves GET /v2/jobs/{id} and /wait: routed by ID alone
// — no body to canonicalize — to the owner that holds the registry
// entry, then through the read ring's successors. The job may live on
// the assignment-ring owner (new jobs), on the read-ring owner still
// serving a shard it ran while draining, or — when the owner is dead
// for good — on a successor's replica shelf, where the gateway parked
// a copy of the terminal status. The gateway follows 404s and
// transport failures down that candidate list; a pool that answers
// only 404s yields an honest 404, and a list exhausted by transport
// failures is a 502 — the client retries, by which time the health
// checker has ejected the dead owner and the ring routes the ID to
// the member where idempotent re-submission converges.
func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	server.AnnotateJob(r, id)
	g.mu.Lock()
	var cands []string
	seen := make(map[string]bool)
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			cands = append(cands, name)
		}
	}
	if owner, ok := g.ring.Lookup(id); ok {
		add(owner)
	}
	// Owner first, then the successors that would hold replicas.
	succ := 1
	if g.replicas > 0 {
		succ += g.replicas
	}
	for _, name := range g.readRing.Successors(id, succ) {
		add(name)
	}
	g.mu.Unlock()
	if len(cands) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, "gateway: no healthy backend")
		return
	}
	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var lastErr error
	for i, owner := range cands {
		last := i == len(cands)-1
		resp, err := g.send(r, owner, http.MethodGet, path, nil)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone
			}
			g.observeFailure(owner, err)
			lastErr = fmt.Errorf("backend %s: %w", owner, err)
			if last {
				server.WriteErr(w, http.StatusBadGateway, "gateway: %v", lastErr)
				return
			}
			g.metrics.failovers.Inc()
			continue
		}
		if resp.StatusCode == http.StatusNotFound && !last {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			continue
		}
		g.relayAndReplicate(w, r, resp, id, owner)
		return
	}
}

// handleJobTrace is GET /v2/jobs/{id}/trace. Every job ran on a
// backend, so the request follows the same owner→successor walk as a
// status read (the proxied path is already the trace path) and the
// gateway's own edge spans for the job are merged into the backend's
// timeline, giving the caller the submit-to-solve view across both
// processes.
func (g *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	local, hasLocal := g.trace.Timeline(id)
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	g.handleJobGet(buf, r)
	if buf.status == http.StatusOK {
		var remote api.TraceResponse
		if err := json.Unmarshal(buf.body.Bytes(), &remote); err == nil {
			if hasLocal {
				remote.Service = g.trace.Service()
				for _, sp := range local.Spans {
					remote.Spans = append(remote.Spans, server.WireSpan(sp))
				}
				remote.Dropped += local.Dropped
			}
			server.AnnotateJob(r, id)
			server.WriteJSON(w, http.StatusOK, remote)
			return
		}
	}
	if hasLocal {
		// No backend record (aged out, or the backend is gone): the
		// edge view still beats a 404.
		server.AnnotateJob(r, id)
		server.WriteJSON(w, http.StatusOK, server.TraceResponseFor(local, g.trace.Service()))
		return
	}
	for k, vs := range buf.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(buf.status)
	_, _ = w.Write(buf.body.Bytes())
}

// bufferedResponse captures a proxied response so handleJobTrace can
// merge its own spans into a backend's timeline before answering.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header  { return b.header }
func (b *bufferedResponse) WriteHeader(code int) { b.status = code }
func (b *bufferedResponse) Write(p []byte) (int, error) {
	return b.body.Write(p)
}

// handleKernels is GET /v2/kernels: identical on every backend, so any
// reachable one may answer. A fixed pseudo-key keeps the choice stable
// (and its failover order meaningful) without a round-robin counter.
func (g *Gateway) handleKernels(w http.ResponseWriter, r *http.Request) {
	g.forward(w, r, "gateway:kernels", http.MethodGet, "/v2/kernels", nil)
}

// healthyBackends snapshots the backends worth aggregating over:
// healthy members, draining included — they still hold shard state.
func (g *Gateway) healthyBackends() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, name := range g.order {
		if g.backends[name].healthy {
			out = append(out, name)
		}
	}
	return out
}

// fanAggregate issues one request per healthy backend concurrently and
// decodes each 2xx JSON body into the value fold returns. It reports
// the backends that answered and the first failure.
func (g *Gateway) fanAggregate(r *http.Request, method, path string, each func() any, fold func(any)) (int, error) {
	names := g.healthyBackends()
	type outcome struct {
		v   any
		err error
	}
	results := make([]outcome, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.send(r, name, method, path, nil)
			if err != nil {
				// A failure caused by the client hanging up is not the
				// backend's: charging it would let one impatient
				// scraper eject the whole healthy pool.
				if r.Context().Err() == nil {
					g.observeFailure(name, err)
				}
				results[i] = outcome{err: fmt.Errorf("backend %s: %w", name, err)}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				results[i] = outcome{err: fmt.Errorf("backend %s: %s: %s", name, resp.Status, body)}
				return
			}
			v := each()
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				results[i] = outcome{err: fmt.Errorf("backend %s: decoding: %w", name, err)}
				return
			}
			results[i] = outcome{v: v}
		}()
	}
	wg.Wait()
	answered := 0
	var firstErr error
	for _, res := range results {
		switch {
		case res.err != nil:
			if firstErr == nil {
				firstErr = res.err
			}
		case res.v != nil:
			fold(res.v)
			answered++
		}
	}
	return answered, firstErr
}

// handleCacheReset is DELETE /v2/cache fanned out to EVERY configured
// backend — ejected and draining members included. The caller asked
// for durable state to go away pool-wide, and an ejected backend is
// exactly the one that would otherwise rejoin later with its disk
// tier intact and a cache the operator believes is empty. Members the
// reset does not reach are reported in the response's Unreached list
// (status 502) and remembered: the reset is re-issued automatically
// when each one answers probes again (see observeSuccess).
func (g *Gateway) handleCacheReset(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	names := append([]string(nil), g.order...)
	g.mu.Unlock()
	auth := r.Header.Get("Authorization")

	type outcome struct {
		stats api.CacheStats
		err   error
	}
	results := make([]outcome, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.send(r, name, http.MethodDelete, "/v2/cache", nil)
			if err != nil {
				if r.Context().Err() == nil {
					g.observeFailure(name, err)
				}
				results[i].err = fmt.Errorf("backend %s: %w", name, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				results[i].err = fmt.Errorf("backend %s: %s: %s", name, resp.Status, body)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i].stats); err != nil {
				results[i].err = fmt.Errorf("backend %s: decoding: %w", name, err)
			}
		}()
	}
	wg.Wait()

	var out api.CacheResetResponse
	var firstErr error
	for i, res := range results {
		if res.err != nil {
			out.Unreached = append(out.Unreached, names[i])
			if firstErr == nil {
				firstErr = res.err
			}
			// Remember the miss; a decode failure re-issues a reset that
			// already happened, which is idempotent and safe.
			g.markPendingCacheReset(names[i], auth)
			continue
		}
		addCacheStats(&out.CacheStats, &res.stats)
	}
	if len(out.Unreached) > 0 {
		out.Error = firstErr.Error()
		g.logger.Printf("gateway: cache reset missed %d backend(s), will re-issue on readmission: %v",
			len(out.Unreached), firstErr)
		server.WriteJSON(w, http.StatusBadGateway, out)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// markPendingCacheReset flags a backend whose cache reset failed, so
// the next successful contact re-issues it.
func (g *Gateway) markPendingCacheReset(name, auth string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if b := g.backends[name]; b != nil {
		b.pendingCacheReset = true
		b.cacheResetAuth = auth
	}
}

// handleStats is GET /v2/stats: the pool-wide job and cache totals —
// every counter summed, admission bounds and sheds included, so a
// shedding pool reports it through the gateway as well as per backend.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	var agg api.StatsResponse
	n, err := g.fanAggregate(r, http.MethodGet, "/v2/stats",
		func() any { return &api.StatsResponse{} },
		func(v any) {
			sr := v.(*api.StatsResponse)
			agg.Jobs.Queued += sr.Jobs.Queued
			agg.Jobs.Running += sr.Jobs.Running
			agg.Jobs.Terminal += sr.Jobs.Terminal
			agg.Jobs.Capacity += sr.Jobs.Capacity
			agg.Jobs.Concurrency += sr.Jobs.Concurrency
			agg.Jobs.MaxQueue += sr.Jobs.MaxQueue
			agg.Jobs.Watermark += sr.Jobs.Watermark
			agg.Jobs.Shed += sr.Jobs.Shed
			addCacheStats(&agg.Cache, &sr.Cache)
		})
	if n == 0 {
		server.WriteErr(w, http.StatusBadGateway, "gateway: no backend answered: %v", err)
		return
	}
	if err != nil {
		// Partial totals would read as the pool shrinking; refuse
		// rather than mislead.
		server.WriteErr(w, http.StatusBadGateway, "gateway: partial pool answer: %v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, agg)
}

func addCacheStats(dst, src *api.CacheStats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Panics += src.Panics
	dst.Workers += src.Workers
	addTier(&dst.Memory, &src.Memory)
	addTier(&dst.Disk, &src.Disk)
	dst.DiskEnabled = dst.DiskEnabled || src.DiskEnabled
}

func addTier(dst, src *api.TierStats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Puts += src.Puts
	dst.Evictions += src.Evictions
	dst.Corrupt += src.Corrupt
	dst.Entries += src.Entries
	dst.Bytes += src.Bytes
	dst.CapBytes += src.CapBytes
}
