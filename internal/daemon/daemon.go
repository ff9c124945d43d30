// Package daemon assembles the two serving processes — thermflowd, one
// analysis backend, and thermflowgate, the shard gateway in front of a
// pool of them — from their command-line flags. cmd/thermflowd,
// cmd/thermflowgate and the in-process cluster harness
// internal/e2etest are its only callers, so every cluster test runs
// the flag-to-config mapping and the middleware chain the binaries
// ship with.
//
// Backend and Gateway bind the listen address before they open any
// durable state: a daemon started on a busy port fails without
// replaying, compacting or dispatching anything from a job log or
// gateway state log that another process may be using.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"thermflow/internal/cachestore"
	"thermflow/internal/gateway"
	"thermflow/internal/joblog"
	"thermflow/internal/jobs"
	"thermflow/internal/server"
	"thermflow/internal/tenant"
	"thermflow/internal/trace"
)

// Daemon is one assembled process: bound to its address, holding its
// durable state open, not yet serving.
type Daemon struct {
	// Handler is the core handler (backend server or gateway) wrapped
	// in the full middleware chain.
	Handler http.Handler
	// Debug serves net/http/pprof and /metrics; Run puts it on
	// -debug-addr.
	Debug http.Handler
	// Reloaders re-read -auth-token-file and -quota-file; Run calls
	// them on every SIGHUP.
	Reloaders []server.Reloader

	name      string
	debugAddr string
	banner    string // logged by Run once serving
	logger    *log.Logger
	lis       net.Listener
	srv       *http.Server
	closers   []func() error // released in reverse order by Close
}

// edgeFlags are the flags both daemons share.
type edgeFlags struct {
	addr          string
	authTokenFile string
	quotaFile     string
	reqTimeout    time.Duration
	debugAddr     string
}

// usageError is a flag the daemon does not accept; the flag package
// has already printed it with the usage text.
type usageError struct{ error }

// newFlags returns name's flag set with the shared flags registered.
// Usage and parse errors print to the logger's writer.
func newFlags(name, defaultAddr, authUsage string, logger *log.Logger) (*flag.FlagSet, *edgeFlags) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(logger.Writer())
	f := &edgeFlags{}
	fs.StringVar(&f.addr, "addr", defaultAddr, "listen address")
	fs.StringVar(&f.authTokenFile, "auth-token-file", "", authUsage)
	fs.StringVar(&f.quotaFile, "quota-file", "", "tenant quota-profile file (JSON; empty = no quotas, SIGHUP reloads)")
	fs.DurationVar(&f.reqTimeout, "request-timeout", 0, "per-request deadline, streams included (0 = none)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "pprof+metrics debug listener; loopback only, never public (empty = off)")
	return fs, f
}

func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// listen binds f.addr and returns the daemon that owns the listener.
func listen(name string, f *edgeFlags, logger *log.Logger) (*Daemon, error) {
	lis, err := net.Listen("tcp", f.addr)
	if err != nil {
		return nil, fmt.Errorf("-addr: %w", err)
	}
	return &Daemon{
		name:      name,
		debugAddr: f.debugAddr,
		logger:    logger,
		lis:       lis,
		srv:       &http.Server{ReadHeaderTimeout: 10 * time.Second},
	}, nil
}

// Backend assembles thermflowd from its flags: the answer engine over
// the two-tier result cache, the durable job registry and replica
// shelf, metrics, tracing and the middleware chain.
func Backend(args []string, logger *log.Logger) (_ *Daemon, err error) {
	fs, f := newFlags("thermflowd", ":8080", "bearer-token file, one token per line (empty = no auth)", logger)
	workers := fs.Int("workers", 0, "compile worker-pool size (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "directory for the persistent result-cache tier; answers survive a process kill, not a power loss (empty = memory only)")
	cacheMemBytes := fs.Int64("cache-max-bytes", 0, "memory cache tier byte cap (0 = 256 MiB)")
	cacheDiskBytes := fs.Int64("cache-disk-max-bytes", 0, "disk cache tier byte cap (0 = 1 GiB)")
	errTTL := fs.Duration("cache-err-ttl", 0, "how long compile failures are served from cache before retry (0 = 30s)")
	trustTenant := fs.Bool("trust-tenant-header", false, "honor the X-Thermflow-Tenant header stamped by a trusted gateway")
	jobTTL := fs.Duration("job-ttl", 0, "how long finished v2 jobs stay pollable (0 = 15m)")
	jobMax := fs.Int("job-max", 0, "max v2 jobs retained, live + finished (0 = 4096)")
	jobMaxQueue := fs.Int("job-max-queue", 0, "max v2 jobs waiting in the queue; admission control sheds above the watermark (0 = unbounded)")
	jobWatermark := fs.Int("job-queue-watermark", 0, "queue depth where admission turns selective (0 = 3/4 of -job-max-queue)")
	jobAgeStep := fs.Int("job-age-step", 0, "priority points a queued job gains per -job-age-period waited (0 = aging off)")
	jobAgePeriod := fs.Duration("job-age-period", 0, "queue wait that earns one -job-age-step (0 = 30s)")
	jobLogDir := fs.String("job-log-dir", "", "directory for the durable job log: accepted jobs survive a process kill, done ones a power loss too (empty = jobs vanish on restart)")
	if err := parse(fs, args); err != nil {
		return nil, err
	}

	d, err := listen("thermflowd", f, logger)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowd", 0, 0)
	mw, err := d.middleware(f, metrics, tr, *trustTenant)
	if err != nil {
		return nil, err
	}

	eng, err := jobs.NewEngine(*workers, cachestore.Config{
		MaxMemBytes:  *cacheMemBytes,
		Dir:          *cacheDir,
		MaxDiskBytes: *cacheDiskBytes,
	})
	if err != nil {
		return nil, err
	}
	eng.SetErrTTL(*errTTL)
	if *cacheDir != "" {
		st := eng.Store().Stats()
		d.logf("disk cache at %s (%d entries, %d bytes warm)", *cacheDir, st.Disk.Entries, st.Disk.Bytes)
	}

	jobsCfg := jobs.Config{
		TTL: *jobTTL, MaxJobs: *jobMax,
		MaxQueue: *jobMaxQueue, QueueWatermark: *jobWatermark,
		AgeStep: *jobAgeStep, AgePeriod: *jobAgePeriod,
	}
	var replicas *server.ReplicaStore
	if *jobLogDir != "" {
		jl, jrec, err := d.openLog(filepath.Join(*jobLogDir, "jobs"))
		if err != nil {
			return nil, fmt.Errorf("-job-log-dir: %w", err)
		}
		jobsCfg.Log, jobsCfg.Recovery = jl, &jrec
		rl, rrec, err := d.openLog(filepath.Join(*jobLogDir, "replicas"))
		if err != nil {
			return nil, fmt.Errorf("-job-log-dir: %w", err)
		}
		replicas = server.NewReplicaStore(0, rl, &rrec)
		d.logf("durable job log at %s (%d records replayed)", *jobLogDir, len(jrec.Records))
	}

	s := server.NewConfig(eng, server.Config{
		Jobs: jobsCfg, Replicas: replicas, Metrics: metrics, Trace: tr,
	})
	d.closers = append(d.closers, func() error { s.Close(); return nil })
	d.Handler = server.Chain(s, mw...)
	d.Debug = server.DebugHandler(metrics)
	d.banner = fmt.Sprintf("listening on %s (%d workers)", d.Addr(), eng.Workers())
	return d, nil
}

// Gateway assembles thermflowgate from its flags: the consistent-hashing
// shard gateway over -backends, its durable drain state, metrics,
// tracing and the same middleware chain as Backend.
func Gateway(args []string, logger *log.Logger) (_ *Daemon, err error) {
	fs, f := newFlags("thermflowgate", ":8090", "bearer-token file for edge auth, one token per line (empty = no auth; tokens pass through to backends either way)", logger)
	backends := fs.String("backends", "", "comma-separated thermflowd base URLs (required)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = 128)")
	healthInterval := fs.Duration("health-interval", 0, "health probe cadence (0 = 2s)")
	healthTimeout := fs.Duration("health-timeout", 0, "health probe timeout (0 = 2s)")
	ejectAfter := fs.Int("eject-after", 0, "consecutive probe failures that eject a backend (0 = 2)")
	replicas := fs.Int("replicas", 0, "ring successors each terminal job status is replicated to (0 = 1, negative disables)")
	stateDir := fs.String("state-dir", "", "directory for the durable gateway-state log; drains survive restarts (empty = volatile)")
	if err := parse(fs, args); err != nil {
		return nil, err
	}
	var pool []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			pool = append(pool, b)
		}
	}
	if len(pool) == 0 {
		return nil, errors.New("-backends is required (comma-separated thermflowd base URLs)")
	}

	d, err := listen("thermflowgate", f, logger)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowgate", 0, 0)
	mw, err := d.middleware(f, metrics, tr, false)
	if err != nil {
		return nil, err
	}

	cfg := gateway.Config{
		Backends:       pool,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		EjectAfter:     *ejectAfter,
		Replicas:       *replicas,
		Logger:         logger,
		Metrics:        metrics,
		Trace:          tr,
	}
	if *stateDir != "" {
		sl, srec, err := d.openLog(*stateDir)
		if err != nil {
			return nil, fmt.Errorf("-state-dir: %w", err)
		}
		cfg.Log, cfg.Recovery = sl, &srec
		d.logf("durable state at %s", *stateDir)
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() error { gw.Close(); return nil })
	d.Handler = server.Chain(gw, mw...)
	d.Debug = server.DebugHandler(metrics)
	d.banner = fmt.Sprintf("listening on %s, sharding %d backends", d.Addr(), len(pool))
	return d, nil
}

// middleware opens the edge's token and quota files and returns the
// chain both daemons wrap around their core handler, outermost first:
// identity, tracing, logging and metrics see everything (including
// rejections), auth runs before quotas so bucket keys are
// authenticated tenants, and the body and deadline caps guard the
// handlers. Tracing shares tr with the core handler so request spans
// land in the same job timelines.
func (d *Daemon) middleware(f *edgeFlags, metrics *server.Metrics, tr *trace.Recorder, trustTenant bool) ([]server.Middleware, error) {
	mw := []server.Middleware{
		server.WithRequestID(),
		server.WithTracing(tr),
		server.WithAccessLog(slog.New(slog.NewJSONHandler(d.logger.Writer(), nil))),
		server.WithMetrics(metrics),
		server.WithBodyLimit(server.MaxBodyBytes),
	}
	var tokens *server.TokenSource
	if f.authTokenFile != "" {
		var err error
		if tokens, err = server.OpenTokenSource(f.authTokenFile); err != nil {
			return nil, fmt.Errorf("-auth-token-file: %w", err)
		}
		mw = append(mw, server.WithAuth(tokens))
		d.Reloaders = append(d.Reloaders, tokens)
		d.logf("bearer-token auth enabled (%s, SIGHUP reloads)", f.authTokenFile)
	}
	if f.quotaFile != "" {
		quotas, err := tenant.Open(f.quotaFile)
		if err != nil {
			return nil, fmt.Errorf("-quota-file: %w", err)
		}
		d.Reloaders = append(d.Reloaders, quotas)
		d.logf("tenant quotas from %s (%d tenants, SIGHUP reloads)", f.quotaFile, len(quotas.Quotas().Names()))
		// Token-keyed buckets only behind auth: every token the limiter
		// then sees is validated. Without auth, buckets key by peer
		// host — an unvalidated token would be a free bypass.
		mw = append(mw, server.WithQuotas(server.QuotaConfig{
			Quotas:      quotas,
			ByToken:     tokens != nil,
			TrustHeader: trustTenant,
			Metrics:     metrics,
			Tokens:      tokens,
		}))
	}
	if f.reqTimeout > 0 {
		mw = append(mw, server.WithTimeout(f.reqTimeout))
	}
	return mw, nil
}

// openLog opens a write-ahead log that Close releases.
func (d *Daemon) openLog(dir string) (*joblog.Log, joblog.Recovery, error) {
	l, rec, err := joblog.Open(dir, joblog.Options{})
	if err == nil {
		d.closers = append(d.closers, l.Close)
	}
	return l, rec, err
}

func (d *Daemon) logf(format string, args ...any) {
	d.logger.Printf(d.name+": "+format, args...)
}

// Addr is the bound listen address (the real port when -addr asked
// for port 0).
func (d *Daemon) Addr() string { return d.lis.Addr().String() }

// Serve serves Handler on the bound listener until Close or a graceful
// shutdown; either ends it with a nil error.
func (d *Daemon) Serve() error {
	d.srv.Handler = d.Handler
	if err := d.srv.Serve(d.lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Close stops the daemon at once — the listener and every open
// connection are closed, the in-process analog of SIGKILL mid-request —
// then releases the job registry, the gateway and the write-ahead
// logs, so the same directories can be reopened.
func (d *Daemon) Close() {
	_ = d.srv.Close()
	_ = d.lis.Close()
	for i := len(d.closers) - 1; i >= 0; i-- {
		_ = d.closers[i]()
	}
	d.closers = nil
}

// Run serves d until SIGINT or SIGTERM, then drains gracefully:
// in-flight requests finish (for up to 30 s) and new connections are
// refused. It also serves Debug on -debug-addr and re-reads the
// Reloaders on every SIGHUP. d is closed when Run returns.
func Run(d *Daemon) error {
	defer d.Close()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if len(d.Reloaders) > 0 {
		defer d.reloadOnSIGHUP()()
	}
	if d.debugAddr != "" {
		dbg := &http.Server{Addr: d.debugAddr, Handler: d.Debug, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.logf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
		d.logf("debug listener (pprof+metrics) on %s — keep it loopback-only", d.debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- d.Serve() }()
	d.logf("%s", d.banner)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: in-flight compiles finish, new connections are
	// refused. Streaming batch requests are bounded by the deadline.
	d.logf("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		d.logf("shutdown: %v", err)
	}
	return nil
}

// reloadOnSIGHUP re-reads every Reloader on every SIGHUP until the
// returned stop is called: the old configuration stops applying, the
// new one starts, and requests in flight finish under the state they
// entered with. A source whose reload fails keeps its previous state
// and logs — a botched rotation must never lock everyone out — and
// the remaining sources still reload. stop returns once the reload
// goroutine has exited.
func (d *Daemon) reloadOnSIGHUP() (stop func()) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-hup:
			case <-done:
				return
			}
			for _, src := range d.Reloaders {
				if err := src.Reload(); err != nil {
					d.logf("SIGHUP reload of %s failed (keeping previous state): %v", src.Path(), err)
					continue
				}
				d.logf("SIGHUP: reloaded %s", src.Path())
			}
		}
	}()
	return func() {
		signal.Stop(hup)
		close(done)
		<-exited
	}
}

// Main builds a daemon from the process arguments, runs it and exits:
// 0 after -h or a graceful shutdown, 2 on a flag the daemon does not
// accept, 1 on any other failure.
func Main(name string, build func(args []string, logger *log.Logger) (*Daemon, error)) {
	d, err := build(os.Args[1:], log.Default())
	if err == nil {
		err = Run(d)
	}
	var usage usageError
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		log.Fatalf("%s: %v", name, err)
	}
}
