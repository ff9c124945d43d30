package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
	"thermflow/internal/jobs"
	"thermflow/internal/telemetry"
)

// Metrics is a process's observability plane: one telemetry registry
// plus the HTTP request instruments every route shares. thermflowd and
// thermflowgate each construct one, wire WithMetrics into their
// middleware chain, and mount Handler at GET /metrics; the engine- and
// gateway-specific series are attached by InstrumentEngine and the
// gateway's instrument hook. A nil *Metrics disables everything — all
// methods no-op — so tests and minimal deployments need no guards.
type Metrics struct {
	reg *telemetry.Registry

	requests  *telemetry.CounterVec   // route, method, code
	latency   *telemetry.HistogramVec // route
	inflight  *telemetry.Gauge
	admission *telemetry.CounterVec // tenant_class, decision

	tenantLatency *telemetry.HistogramVec // tenant
	tenantServed  *telemetry.CounterVec   // tenant
}

// NewMetrics builds a registry with the HTTP request instruments and
// process runtime gauges registered.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		reg: reg,
		requests: reg.CounterVec("thermflow_http_requests_total",
			"HTTP requests handled, by normalized route, method and status code.",
			"route", "method", "code"),
		latency: reg.HistogramVec("thermflow_http_request_seconds",
			"HTTP request latency in seconds, by normalized route.",
			nil, "route"),
		inflight: reg.Gauge("thermflow_http_inflight_requests",
			"HTTP requests currently being served."),
		admission: reg.CounterVec("thermflow_admission_total",
			"Admission decisions, by tenant class and decision (admitted, "+
				"converged, rate_limited, tenant_queue, shed, busy).",
			"tenant_class", "decision"),
		tenantLatency: reg.HistogramVec("thermflow_tenant_request_seconds",
			"HTTP request latency in seconds, by resolved tenant. Cardinality "+
				"is bounded by the quota file's profile names plus \"default\".",
			nil, "tenant"),
		tenantServed: reg.CounterVec("thermflow_tenant_jobs_served_total",
			"Job-submitting requests answered successfully, by resolved tenant.",
			"tenant"),
	}
	reg.GaugeFunc("thermflow_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("thermflow_heap_alloc_bytes",
		"Heap bytes currently allocated.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	return m
}

// Registry exposes the underlying telemetry registry for component-
// specific series (the gateway's backend gauges). Nil-safe: a nil
// Metrics returns a nil registry, whose constructors all no-op.
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// IncAdmission counts one admission decision for a tenant class. The
// label space stays bounded because classes come from the fixed
// tenant.Class set and decisions from this package's literals.
// Nil-safe: metrics-less deployments pay one nil check.
func (m *Metrics) IncAdmission(class, decision string) {
	if m == nil {
		return
	}
	if class == "" {
		class = "none"
	}
	m.admission.With(class, decision).Inc()
}

// ObserveTenant records one request's latency under the resolved
// tenant and, when served is set (a job-submitting request answered
// 2xx), counts a served job for it. The tenant label space stays
// bounded because names come from the quota file's fixed profile set —
// WithQuotas resolves every request onto a profile or "default" before
// calling this. Nil-safe.
func (m *Metrics) ObserveTenant(name string, seconds float64, served bool) {
	if m == nil {
		return
	}
	if name == "" {
		name = "default"
	}
	m.tenantLatency.With(name).Observe(seconds)
	if served {
		m.tenantServed.With(name).Inc()
	}
}

// Handler serves the Prometheus text exposition (GET /metrics).
func (m *Metrics) Handler() http.Handler {
	if m == nil {
		return http.NotFoundHandler()
	}
	return m.reg
}

// DebugHandler is the operator debug surface both daemons mount on
// their optional -debug-addr listener: net/http/pprof under
// /debug/pprof/ plus the metrics exposition at /metrics. It carries no
// auth and exposes heap/goroutine internals — bind it to loopback (or
// an operator-only network) and NEVER to a public address.
func DebugHandler(m *Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", m.Handler())
	return mux
}

// InstrumentEngine attaches the compile-engine and job-registry series:
// jobs by state, registry capacity/concurrency, batch single-flight
// inflight, cache hit/miss/panic counters, per-tier cache gauges, and
// the solver wall-clock histograms (installed as jr's solver
// observer). Call once per engine; nil-safe on every argument.
func (m *Metrics) InstrumentEngine(eng *batch.Runner, jr *jobs.Registry) {
	if m == nil {
		return
	}
	if jr != nil {
		m.reg.Collect("thermflow_jobs",
			"Jobs in the v2 registry, by lifecycle state.",
			telemetry.TypeGauge, []string{"state"}, func() []telemetry.Sample {
				st := jr.Stats()
				return []telemetry.Sample{
					{Labels: []string{"queued"}, Value: float64(st.Queued)},
					{Labels: []string{"running"}, Value: float64(st.Running)},
					{Labels: []string{"terminal"}, Value: float64(st.Terminal)},
				}
			})
		m.reg.GaugeFunc("thermflow_jobs_capacity",
			"Maximum jobs the registry retains, live plus finished.",
			func() float64 { return float64(jr.Stats().Capacity) })
		m.reg.GaugeFunc("thermflow_jobs_concurrency",
			"Jobs the registry runs concurrently.",
			func() float64 { return float64(jr.Stats().Concurrency) })
		m.reg.Collect("thermflow_jobs_queue_bound",
			"Admission-control queue bounds (max, watermark); 0 = admission control off.",
			telemetry.TypeGauge, []string{"bound"}, func() []telemetry.Sample {
				st := jr.Stats()
				return []telemetry.Sample{
					{Labels: []string{"max"}, Value: float64(st.MaxQueue)},
					{Labels: []string{"watermark"}, Value: float64(st.Watermark)},
				}
			})
		m.reg.Collect("thermflow_jobs_shed_total",
			"Jobs refused or displaced by admission control, by tenant class.",
			telemetry.TypeCounter, []string{"tenant_class"}, func() []telemetry.Sample {
				st := jr.Stats()
				out := make([]telemetry.Sample, 0, len(st.ShedByClass))
				for class, n := range st.ShedByClass {
					out = append(out, telemetry.Sample{Labels: []string{class}, Value: float64(n)})
				}
				return out
			})
		solverSeconds := m.reg.HistogramVec("thermflow_solver_seconds",
			"Thermal-analysis fixpoint wall-clock seconds, by solver.",
			nil, "solver")
		solverRuns := m.reg.CounterVec("thermflow_solver_runs_total",
			"Thermal-analysis fixpoint runs, by solver and convergence.",
			"solver", "converged")
		jr.SetSolverObserver(func(solver string, seconds float64, converged bool) {
			solverSeconds.With(solver).Observe(seconds)
			solverRuns.With(solver, strconv.FormatBool(converged)).Inc()
		})
	}
	if eng == nil {
		return
	}
	m.reg.GaugeFunc("thermflow_batch_inflight",
		"Keyed compilations currently holding a single-flight slot.",
		func() float64 { return float64(eng.Inflight()) })
	m.reg.Collect("thermflow_cache_requests_total",
		"Engine cache lookups, by outcome (hit, miss, panic).",
		telemetry.TypeCounter, []string{"outcome"}, func() []telemetry.Sample {
			st := eng.Stats()
			return []telemetry.Sample{
				{Labels: []string{"hit"}, Value: float64(st.Hits)},
				{Labels: []string{"miss"}, Value: float64(st.Misses)},
				{Labels: []string{"panic"}, Value: float64(st.Panics)},
			}
		})
	m.reg.Collect("thermflow_cache_tier_events_total",
		"Cache tier activity, by tier (memory, disk) and event.",
		telemetry.TypeCounter, []string{"tier", "event"}, func() []telemetry.Sample {
			st := eng.Store().Stats()
			out := make([]telemetry.Sample, 0, 10)
			for _, t := range []struct {
				name string
				s    cachestore.TierStats
			}{{"memory", st.Mem}, {"disk", st.Disk}} {
				out = append(out,
					telemetry.Sample{Labels: []string{t.name, "hit"}, Value: float64(t.s.Hits)},
					telemetry.Sample{Labels: []string{t.name, "miss"}, Value: float64(t.s.Misses)},
					telemetry.Sample{Labels: []string{t.name, "put"}, Value: float64(t.s.Puts)},
					telemetry.Sample{Labels: []string{t.name, "eviction"}, Value: float64(t.s.Evictions)},
					telemetry.Sample{Labels: []string{t.name, "corrupt"}, Value: float64(t.s.Corrupt)},
				)
			}
			return out
		})
	m.reg.Collect("thermflow_cache_tier_bytes",
		"Bytes resident per cache tier.",
		telemetry.TypeGauge, []string{"tier"}, func() []telemetry.Sample {
			st := eng.Store().Stats()
			return []telemetry.Sample{
				{Labels: []string{"memory"}, Value: float64(st.Mem.Bytes)},
				{Labels: []string{"disk"}, Value: float64(st.Disk.Bytes)},
			}
		})
	m.reg.Collect("thermflow_cache_tier_entries",
		"Entries resident per cache tier.",
		telemetry.TypeGauge, []string{"tier"}, func() []telemetry.Sample {
			st := eng.Store().Stats()
			return []telemetry.Sample{
				{Labels: []string{"memory"}, Value: float64(st.Mem.Entries)},
				{Labels: []string{"disk"}, Value: float64(st.Disk.Entries)},
			}
		})

}

// routeOf normalizes a request path onto the fixed route set the HTTP
// metrics are labeled with. Parameterized segments collapse onto their
// pattern and unknown paths onto "other", so label cardinality is
// bounded by this function, not by what clients send.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v2/jobs/"); ok && rest != "" {
		switch {
		case strings.HasSuffix(rest, "/wait"):
			return "/v2/jobs/{id}/wait"
		case strings.HasSuffix(rest, "/replica"):
			return "/v2/jobs/{id}/replica"
		case strings.HasSuffix(rest, "/trace"):
			return "/v2/jobs/{id}/trace"
		default:
			return "/v2/jobs/{id}"
		}
	}
	switch p {
	case "/v2/jobs", "/v2/batch", "/v2/stats", "/v2/kernels", "/v2/cache", "/metrics",
		"/gateway/backends", "/gateway/drain", "/gateway/undrain":
		return p
	}
	return "other"
}

// WithMetrics records every request into m: one requests_total
// increment by (route, method, code), one latency observation by
// route, and an inflight gauge held for the request's duration. Wire
// it outermost (right after WithRequestID/WithAccessLog) so rejections
// from inner middleware — 401s, 429s — are counted too. A nil m is the
// identity middleware.
func WithMetrics(m *Metrics) Middleware {
	if m == nil {
		return func(next http.Handler) http.Handler { return next }
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			route := routeOf(r)
			m.inflight.Inc()
			start := time.Now()
			defer func() {
				m.inflight.Dec()
				if sw.status == 0 {
					sw.status = http.StatusOK
				}
				m.latency.With(route).Observe(time.Since(start).Seconds())
				m.requests.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
			}()
			next.ServeHTTP(sw, r)
		})
	}
}
