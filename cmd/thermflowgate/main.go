// Command thermflowgate fronts a pool of thermflowd backends with a
// consistent-hashing shard gateway: it speaks the same HTTP surface as
// one backend, routes every job to the pool member that owns its
// content-hash ID on a bounded-remap ring, fans batches out per shard
// (re-merging the ID-keyed NDJSON streams in completion order, with
// failover re-dispatch when a backend dies mid-batch), actively
// health-checks the pool, and supports administrative draining.
//
// Usage:
//
//	thermflowgate -backends host1:8080,host2:8080 [-addr :8090]
//	              [-vnodes 128] [-health-interval 2s] [-health-timeout 2s]
//	              [-eject-after 2] [-replicas 1] [-state-dir DIR]
//	              [-auth-token-file FILE] [-quota-file FILE] [-request-timeout 0]
//	              [-debug-addr ""]
//
// Clients point at the gateway exactly as they would at one
// thermflowd; the Authorization header is passed through to the
// backends, so one token file can protect the whole deployment
// (distribute it to the gateway and every backend). The hardening
// flags compose the same middleware stack as thermflowd — request IDs,
// tracing, access logs, optional edge auth (SIGHUP re-reads the token
// file), tenant quotas, body and deadline caps.
//
// Tracing: the gateway propagates the sanitized X-Thermflow-Trace
// context to every backend it proxies to, records region-coordination
// spans of its own, stitches the per-round spans each backend returns
// into one timeline, and serves the result at GET /v2/jobs/{id}/trace
// (falling through to the owning backend for plain sharded jobs).
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ plus /metrics. It has no auth and exposes process
// internals: bind it to loopback (e.g. 127.0.0.1:6061) or an
// operator-only network, NEVER a public address.
//
// -quota-file enables per-tenant admission at the edge: bearer tokens
// resolve to tenant quota profiles (rate, burst, priority class; see
// internal/tenant; a default-only file is a global per-client rate
// limit), re-read on the same SIGHUP that rotates tokens,
// and every proxied request carries the resolved tenant name to the
// backends in the X-Thermflow-Tenant header — start the backends with
// -trust-tenant-header (and the same quota file) so their registries
// enforce the tenant's queue and run caps under the right identity.
//
// -replicas R makes the gateway replicate every terminal job status it
// relays to the owner's R ring successors, so a permanently dead
// backend's job IDs still answer (marked with the X-Thermflow-Replica
// header). -replicas -1 disables replication. -state-dir DIR persists
// administrative drain decisions in a write-ahead log, so a drained
// backend stays drained across gateway restarts.
//
// Operations:
//
//	GET  /gateway/backends           the shard view (health, draining, inflight)
//	POST /gateway/drain?backend=URL  stop new assignments; let work finish
//	POST /gateway/undrain?backend=URL
//
// See the README "Sharding across backends" section for a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thermflow/internal/gateway"
	"thermflow/internal/joblog"
	"thermflow/internal/server"
	"thermflow/internal/tenant"
	"thermflow/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated thermflowd base URLs (required)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = 128)")
	healthInterval := flag.Duration("health-interval", 0, "health probe cadence (0 = 2s)")
	healthTimeout := flag.Duration("health-timeout", 0, "health probe timeout (0 = 2s)")
	ejectAfter := flag.Int("eject-after", 0, "consecutive probe failures that eject a backend (0 = 2)")
	replicas := flag.Int("replicas", 0, "ring successors each terminal job status is replicated to (0 = 1, negative disables)")
	stateDir := flag.String("state-dir", "", "directory for the durable gateway-state log; drains survive restarts (empty = volatile)")
	authTokenFile := flag.String("auth-token-file", "", "bearer-token file for edge auth, one token per line (empty = no auth; tokens pass through to backends either way)")
	quotaFile := flag.String("quota-file", "", "tenant quota-profile file (JSON; empty = no quotas, SIGHUP reloads)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline, streams included (0 = none)")
	debugAddr := flag.String("debug-addr", "", "pprof+metrics debug listener; loopback only, never public (empty = off)")
	flag.Parse()

	var pool []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			pool = append(pool, b)
		}
	}
	if len(pool) == 0 {
		log.Fatalf("thermflowgate: -backends is required (comma-separated thermflowd base URLs)")
	}

	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowgate", 0, 0)
	gwCfg := gateway.Config{
		Backends:       pool,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		EjectAfter:     *ejectAfter,
		Replicas:       *replicas,
		Metrics:        metrics,
		Trace:          tr,
	}
	if *stateDir != "" {
		sl, srec, err := joblog.Open(*stateDir, joblog.Options{})
		if err != nil {
			log.Fatalf("thermflowgate: state log: %v", err)
		}
		defer sl.Close()
		gwCfg.Log, gwCfg.Recovery = sl, &srec
		log.Printf("thermflowgate: durable state at %s", *stateDir)
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		log.Fatalf("thermflowgate: %v", err)
	}
	defer gw.Close()

	// The same chain thermflowd wires, in the same order: identity,
	// tracing and logging outermost, auth before quotas so bucket
	// keys are authenticated tenants, then the body and deadline caps.
	// Tracing shares the gateway's recorder so edge spans land in the
	// same timelines as the coordination spans it stitches.
	mw := []server.Middleware{
		server.WithRequestID(),
		server.WithTracing(tr),
		server.WithAccessLog(nil),
		server.WithMetrics(metrics),
		server.WithBodyLimit(server.MaxBodyBytes),
	}
	var reloaders []server.Reloader
	var tokens *server.TokenSource
	if *authTokenFile != "" {
		tokens, err = server.OpenTokenSource(*authTokenFile)
		if err != nil {
			log.Fatalf("thermflowgate: %v", err)
		}
		mw = append(mw, server.WithAuth(tokens))
		reloaders = append(reloaders, tokens)
		log.Printf("thermflowgate: bearer-token auth enabled (%s, SIGHUP reloads)", *authTokenFile)
	}
	if *quotaFile != "" {
		quotas, err := tenant.Open(*quotaFile)
		if err != nil {
			log.Fatalf("thermflowgate: %v", err)
		}
		reloaders = append(reloaders, quotas)
		log.Printf("thermflowgate: tenant quotas from %s (%d tenants, SIGHUP reloads)",
			*quotaFile, len(quotas.Quotas().Names()))
		mw = append(mw, server.WithQuotas(server.QuotaConfig{
			Quotas:  quotas,
			ByToken: *authTokenFile != "",
			Metrics: metrics,
			Tokens:  tokens,
		}))
	}
	if len(reloaders) > 0 {
		server.ReloadOnSIGHUP("thermflowgate", reloaders...)
	}
	if *reqTimeout > 0 {
		mw = append(mw, server.WithTimeout(*reqTimeout))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Chain(gw, mw...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           server.DebugHandler(metrics),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("thermflowgate: debug listener: %v", err)
			}
		}()
		log.Printf("thermflowgate: debug listener (pprof+metrics) on %s — keep it loopback-only", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("thermflowgate: listening on %s, sharding %d backends", *addr, len(pool))

	select {
	case err := <-errc:
		log.Fatalf("thermflowgate: %v", err)
	case <-ctx.Done():
	}

	log.Printf("thermflowgate: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("thermflowgate: shutdown: %v", err)
	}
}
