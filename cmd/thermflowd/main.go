// Command thermflowd serves the thermal-analysis compile engine over
// HTTP/JSON: a long-lived process whose content-keyed result cache is
// shared by every client, so repeated configurations across experiment
// runs, CI jobs and interactive sessions compile once.
//
// Usage:
//
//	thermflowd [-addr :8080] [-workers 0]
//	           [-cache-dir DIR] [-cache-max-bytes N] [-cache-disk-max-bytes N]
//	           [-auth-token-file FILE] [-quota-file FILE] [-trust-tenant-header]
//	           [-job-ttl 15m] [-job-max 4096] [-request-timeout 0]
//	           [-job-max-queue 0] [-job-queue-watermark 0]
//	           [-job-age-step 0] [-job-age-period 30s]
//	           [-job-log-dir DIR] [-job-snapshot-every 512]
//	           [-debug-addr ""]
//
// The result cache is a two-tier store: an in-memory LRU tier capped
// at -cache-max-bytes, and (with -cache-dir) a persistent on-disk tier
// capped at -cache-disk-max-bytes. The disk tier is content-addressed
// by the same hash as the memory tier — and the same hash as the job
// IDs the /v2 endpoints hand out — so a restarted thermflowd pointed at
// the same directory comes back warm.
//
// Hardening flags compose the middleware stack: -auth-token-file
// requires a bearer token from the file (one per line) on every
// request, and SIGHUP re-reads the file so tokens rotate without a
// restart; -request-timeout bounds each request's context. Requests
// always carry an X-Request-Id (generated when absent) and emit one
// structured JSON access-log record carrying the request, trace and
// span IDs (and, when resolved, the tenant and job ID).
//
// Every request also runs under a distributed-tracing span: the
// inbound X-Thermflow-Trace header (sanitized; malformed values are
// replaced, never echoed) joins the request to an existing trace, and
// the job registry records per-job lifecycle timelines served at GET
// /v2/jobs/{id}/trace. Timelines are bounded in-memory state; the
// access log is the durable record.
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ plus /metrics. It has no auth and exposes process
// internals: bind it to loopback (e.g. 127.0.0.1:6060) or an
// operator-only network, NEVER a public address.
//
// Multi-tenancy: -quota-file maps bearer tokens to tenant quota
// profiles (rate, burst, queue depth, run concurrency, priority
// class; see internal/tenant) and is re-read on the same SIGHUP that
// rotates tokens. A global per-client rate limit is a quota file
// holding only a default profile, {"default": {"rate": N, "burst": M}};
// buckets key by bearer token behind -auth-token-file, else by peer
// host. A tenant over its own envelope is answered 429; the shared
// pool saturating answers 503. -job-max-queue bounds the v2
// registry queue with a shed watermark (-job-queue-watermark,
// 0 = 3/4 of the bound) above which low-class work is refused or
// displaced; -job-age-step grants queued work effective priority as it
// waits (one step per -job-age-period), so displaced-class tenants
// starve for a bounded time, not forever. -trust-tenant-header honors the X-Thermflow-Tenant name
// stamped by a fronting thermflowgate — enable it only on backends
// reachable exclusively through the gateway.
//
// -job-log-dir makes the v2 job registry durable: every lifecycle
// transition is appended to a CRC-framed write-ahead log under
// DIR/jobs (snapshot-and-truncated every -job-snapshot-every records),
// and replica statuses pushed by a gateway persist under DIR/replicas.
// A restarted thermflowd replays both, so job IDs handed out before a
// crash keep answering: finished results re-materialize from the disk
// cache tier, queued work re-enters the queue, and jobs that were
// running at the crash restart (or fail with an attributable
// "interrupted by restart" error when they can no longer run). Pair it
// with -cache-dir on the same volume so replayed results find their
// artifacts.
//
// To scale beyond one process, front a pool of thermflowd instances
// with cmd/thermflowgate, which shards jobs across them by consistent
// hashing over the v2 job ID.
//
// The v2 job lifecycle (-job-ttl, -job-max) keeps finished jobs
// pollable for the TTL and bounds the registry; see the README "HTTP
// API" section and the thermflow/api package for endpoints and wire
// types; thermflow/client is the Go client.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"thermflow"
	"thermflow/internal/joblog"
	"thermflow/internal/jobs"
	"thermflow/internal/server"
	"thermflow/internal/tenant"
	"thermflow/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "compile worker-pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result-cache tier (empty = memory only)")
	cacheMemBytes := flag.Int64("cache-max-bytes", 0, "memory cache tier byte cap (0 = 256 MiB)")
	cacheDiskBytes := flag.Int64("cache-disk-max-bytes", 0, "disk cache tier byte cap (0 = 1 GiB)")
	errTTL := flag.Duration("cache-err-ttl", 0, "how long compile failures are served from cache before retry (0 = 30s)")
	authTokenFile := flag.String("auth-token-file", "", "bearer-token file, one token per line (empty = no auth)")
	quotaFile := flag.String("quota-file", "", "tenant quota-profile file (JSON; empty = no quotas, SIGHUP reloads)")
	trustTenant := flag.Bool("trust-tenant-header", false, "honor the X-Thermflow-Tenant header stamped by a trusted gateway")
	jobTTL := flag.Duration("job-ttl", 0, "how long finished v2 jobs stay pollable (0 = 15m)")
	jobMax := flag.Int("job-max", 0, "max v2 jobs retained, live + finished (0 = 4096)")
	jobMaxQueue := flag.Int("job-max-queue", 0, "max v2 jobs waiting in the queue; admission control sheds above the watermark (0 = unbounded)")
	jobWatermark := flag.Int("job-queue-watermark", 0, "queue depth where admission turns selective (0 = 3/4 of -job-max-queue)")
	jobAgeStep := flag.Int("job-age-step", 0, "priority points a queued job gains per -job-age-period waited (0 = aging off)")
	jobAgePeriod := flag.Duration("job-age-period", 0, "queue wait that earns one -job-age-step (0 = 30s)")
	jobLogDir := flag.String("job-log-dir", "", "directory for the durable job write-ahead log (empty = jobs vanish on restart)")
	jobSnapshotEvery := flag.Int("job-snapshot-every", 0, "WAL records between snapshot-and-truncate compactions (0 = 512)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline, streams included (0 = none)")
	debugAddr := flag.String("debug-addr", "", "pprof+metrics debug listener; loopback only, never public (empty = off)")
	flag.Parse()

	b, err := thermflow.NewBatchConfig(thermflow.BatchConfig{
		Workers:        *workers,
		CacheMemBytes:  *cacheMemBytes,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheDiskBytes,
		ErrTTL:         *errTTL,
	})
	if err != nil {
		log.Fatalf("thermflowd: %v", err)
	}
	if *cacheDir != "" {
		st := b.Stats()
		log.Printf("thermflowd: disk cache at %s (%d entries, %d bytes warm)",
			*cacheDir, st.Disk.Entries, st.Disk.Bytes)
	}

	jobsCfg := jobs.Config{
		TTL: *jobTTL, MaxJobs: *jobMax, SnapshotEvery: *jobSnapshotEvery,
		MaxQueue: *jobMaxQueue, QueueWatermark: *jobWatermark,
		AgeStep: *jobAgeStep, AgePeriod: *jobAgePeriod,
	}
	var replicas *server.ReplicaStore
	if *jobLogDir != "" {
		jl, jrec, err := joblog.Open(filepath.Join(*jobLogDir, "jobs"), joblog.Options{})
		if err != nil {
			log.Fatalf("thermflowd: job log: %v", err)
		}
		defer jl.Close()
		jobsCfg.Log, jobsCfg.Recovery = jl, &jrec

		rl, rrec, err := joblog.Open(filepath.Join(*jobLogDir, "replicas"), joblog.Options{})
		if err != nil {
			log.Fatalf("thermflowd: replica log: %v", err)
		}
		defer rl.Close()
		replicas = server.NewReplicaStore(0, rl, &rrec)
		log.Printf("thermflowd: durable job log at %s (%d records replayed)",
			*jobLogDir, len(jrec.Records))
	}

	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowd", 0, 0)
	s := server.NewConfig(b, server.Config{
		Jobs: jobsCfg, Replicas: replicas, Metrics: metrics, Trace: tr,
	})
	defer s.Close()

	// The middleware chain, outermost first: identity, tracing, logging
	// and metrics see everything (including rejections), auth runs
	// before quotas so bucket keys are authenticated tenants, and
	// the body and deadline caps guard the handlers. Tracing shares the
	// server's recorder so request spans land in job timelines.
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
			log.Fatalf("thermflowd: %v", err)
		}
		mw = append(mw, server.WithAuth(tokens))
		reloaders = append(reloaders, tokens)
		log.Printf("thermflowd: bearer-token auth enabled (%s, SIGHUP reloads)", *authTokenFile)
	}
	if *quotaFile != "" {
		quotas, err := tenant.Open(*quotaFile)
		if err != nil {
			log.Fatalf("thermflowd: %v", err)
		}
		reloaders = append(reloaders, quotas)
		log.Printf("thermflowd: tenant quotas from %s (%d tenants, SIGHUP reloads)",
			*quotaFile, len(quotas.Quotas().Names()))
		// Token-keyed buckets only behind auth: every token the
		// limiter then sees is validated. Without auth, buckets key by
		// peer host — an unvalidated token would be a free bypass.
		mw = append(mw, server.WithQuotas(server.QuotaConfig{
			Quotas:      quotas,
			ByToken:     *authTokenFile != "",
			TrustHeader: *trustTenant,
			Metrics:     metrics,
			Tokens:      tokens,
		}))
	}
	if len(reloaders) > 0 {
		server.ReloadOnSIGHUP("thermflowd", reloaders...)
	}
	if *reqTimeout > 0 {
		mw = append(mw, server.WithTimeout(*reqTimeout))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Chain(s, mw...),
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
				log.Printf("thermflowd: debug listener: %v", err)
			}
		}()
		log.Printf("thermflowd: debug listener (pprof+metrics) on %s — keep it loopback-only", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("thermflowd: listening on %s (%d workers)", *addr, b.Workers())

	select {
	case err := <-errc:
		log.Fatalf("thermflowd: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: in-flight compiles finish, new connections are
	// refused. Streaming batch requests are bounded by the deadline.
	log.Printf("thermflowd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("thermflowd: shutdown: %v", err)
	}
}
