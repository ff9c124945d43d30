// Package server implements thermflowd's HTTP/JSON API over a shared
// compile engine. The unit of work is the job: every request is
// canonicalized into a thermflow.JobSpec whose content hash is the job
// ID, the engine cache key and the disk-tier entry name at once, and
// execution flows through the internal/jobs registry, which keeps each
// finished job's answer (thermflow.Answer) and serves nothing else.
// Submit returns a handle immediately, status is polled or
// long-polled, duplicate submissions of the same content converge on
// one job, and batches stream ID-keyed results as NDJSON.
//
// Cross-cutting concerns — bearer-token auth, per-tenant quotas,
// request IDs, access logs, body and deadline caps — live in the
// composable middleware stack (middleware.go, quota.go), wired around
// the handler by cmd/thermflowd.
//
// Wire types live in the thermflow/api package. Status mapping:
//
//	400 malformed JSON or unreadable body
//	401 missing/invalid bearer token (with -auth-token-file)
//	404 unknown route or job ID
//	422 well-formed but unsatisfiable: unknown enum or kernel name,
//	    IR parse/verify failure
//	429 tenant over its own quota (with -quota-file)
//	500 internal fault (a cache reset that could not delete its disk tier)
//	503 job registry at capacity or shedding
//	504 job deadline expired (the body carries its JobStatus)
//
// A job that runs and fails — spill-budget exhaustion, say, or a
// compile panic isolated to the one job — is not an HTTP error: it
// reaches state "failed" with the error in its status (or batch item).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
	"thermflow/internal/jobs"
	"thermflow/internal/trace"
)

// MaxBodyBytes caps request bodies; programs are small (the largest
// built-in kernel is well under a kilobyte of IR text).
const MaxBodyBytes = 8 << 20

// MaxBatchJobs caps the jobs of one batch request.
const MaxBatchJobs = 10000

// Config parameterizes NewConfig.
type Config struct {
	// Jobs configures the v2 job registry (retention, concurrency,
	// deadline clock).
	Jobs jobs.Config

	// Replicas is the shelf for job statuses replicated from ring
	// peers (nil selects a volatile in-memory shelf). A gateway pushes
	// terminal statuses here so this backend can answer for a dead
	// owner; see replica.go.
	Replicas *ReplicaStore

	// Metrics, when non-nil, mounts GET /metrics and instruments the
	// engine and job registry into it (see metrics.go). The HTTP
	// request series additionally require WithMetrics in the
	// middleware chain, which the daemons wire.
	Metrics *Metrics

	// Trace is the recorder behind GET /v2/jobs/{id}/trace; the job
	// registry records lifecycle spans into it (nil builds a private
	// recorder — pass the daemon's so WithTracing shares it). Overrides
	// Jobs.Trace.
	Trace *trace.Recorder
}

// Server is the thermflowd HTTP handler.
type Server struct {
	engine   *batch.Runner
	jobs     *jobs.Registry
	replicas *ReplicaStore
	metrics  *Metrics        // nil when unmetered
	trace    *trace.Recorder // never nil; bounded in-memory timelines
	mux      *http.ServeMux
}

// New builds the handler over the given compile engine (see
// jobs.NewEngine) with default job-registry settings.
func New(eng *batch.Runner) *Server { return NewConfig(eng, Config{}) }

// NewConfig builds the handler over the given compile engine.
func NewConfig(eng *batch.Runner, cfg Config) *Server {
	replicas := cfg.Replicas
	if replicas == nil {
		replicas = NewReplicaStore(0, nil, nil)
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.NewRecorder("thermflowd", 0, 0)
	}
	cfg.Jobs.Trace = cfg.Trace
	s := &Server{engine: eng, jobs: jobs.New(eng, cfg.Jobs), replicas: replicas,
		metrics: cfg.Metrics, trace: cfg.Trace, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v2/jobs/{id}/wait", s.handleJobWait)
	s.mux.HandleFunc("GET /v2/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("PUT /v2/jobs/{id}/replica", s.handleReplicaPut)
	s.mux.HandleFunc("POST /v2/batch", s.handleJobsBatch)
	s.mux.HandleFunc("GET /v2/stats", s.handleStats)
	s.mux.HandleFunc("GET /v2/kernels", s.handleKernels)
	s.mux.HandleFunc("DELETE /v2/cache", s.handleCacheReset)
	if cfg.Metrics != nil {
		cfg.Metrics.InstrumentEngine(eng, s.jobs)
		s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}
	return s
}

// Batch returns the underlying compile engine, the batch runner that
// keeps the answers.
func (s *Server) Batch() *batch.Runner { return s.engine }

// Jobs returns the job registry.
func (s *Server) Jobs() *jobs.Registry { return s.jobs }

// Replicas returns the replica shelf.
func (s *Server) Replicas() *ReplicaStore { return s.replicas }

// Trace returns the server's timeline recorder (never nil), so the
// daemon can share it with the WithTracing middleware.
func (s *Server) Trace() *trace.Recorder { return s.trace }

// Close releases the job registry (running jobs are cancelled).
func (s *Server) Close() { s.jobs.Close() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// WriteJSON writes v as compact JSON and a newline with the given
// status. Clients that want indentation pipe through jq.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client is gone if this fails
}

// WriteErr writes an api.ErrorResponse with the given status.
func WriteErr(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode reads one JSON value from the request body, distinguishing
// malformed JSON (400) from well-formed JSON that names unknown enums
// (422). The boolean reports success; on failure the response has been
// written.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		var unknown *thermflow.UnknownNameError
		if errors.As(err, &unknown) {
			WriteErr(w, http.StatusUnprocessableEntity, "%v", unknown)
		} else {
			WriteErr(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return false
	}
	return true
}

// ResolveSpec canonicalizes a wire job request into a JobSpec — the
// single point where kernel references and textual IR collapse onto
// content identity. Failures are semantic (422): the JSON was
// well-formed but names an unknown kernel or carries unparseable IR.
func ResolveSpec(req api.JobRequest) (thermflow.JobSpec, error) {
	var spec thermflow.JobSpec
	var err error
	switch {
	case req.Kernel != "" && req.Program != "":
		return spec, fmt.Errorf("exactly one of kernel or program must be set, got both")
	case req.Kernel != "":
		spec, err = thermflow.JobSpecFromKernel(req.Kernel, req.Options)
	case req.Program != "":
		spec, err = thermflow.JobSpecFromSource(req.Program, req.Root, req.Options)
	default:
		return spec, fmt.Errorf("exactly one of kernel or program must be set, got neither")
	}
	if err != nil {
		return spec, err
	}
	if req.DeadlineMS < 0 {
		return spec, fmt.Errorf("deadline_ms must be non-negative, got %d", req.DeadlineMS)
	}
	spec.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	spec.Priority = req.Priority
	return spec, nil
}

// failureMessage is a failed job's client-safe error text: panics are
// internal faults — logged server-side with their stack, but never
// shipped to the client — while everything else (spill-budget
// exhaustion, impossible option combinations) is a property of the
// request and travels verbatim.
func failureMessage(err error) string {
	var pe *batch.PanicError
	if errors.As(err, &pe) {
		log.Printf("server: compile panic: %v", pe)
		return "internal error: compile panicked (isolated to this job)"
	}
	return err.Error()
}

// resolveBatch canonicalizes a batch's worth of requests before the
// first byte of any stream: semantic errors must surface as a 422,
// which is impossible once the 200 header and NDJSON body have
// started. The boolean reports success; on failure the response has
// been written.
func resolveBatch(w http.ResponseWriter, reqs []api.JobRequest) ([]thermflow.JobSpec, bool) {
	if len(reqs) == 0 {
		WriteErr(w, http.StatusUnprocessableEntity, "batch has no jobs")
		return nil, false
	}
	if len(reqs) > MaxBatchJobs {
		WriteErr(w, http.StatusUnprocessableEntity,
			"batch has %d jobs, limit %d", len(reqs), MaxBatchJobs)
		return nil, false
	}
	specs := make([]thermflow.JobSpec, len(reqs))
	for i, jr := range reqs {
		spec, err := ResolveSpec(jr)
		if err != nil {
			WriteErr(w, http.StatusUnprocessableEntity, "job %d: %v", i, err)
			return nil, false
		}
		specs[i] = spec
	}
	return specs, true
}

// handleKernels is GET /v2/kernels: the built-in benchmark kernels.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	list, err := api.KernelList()
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, list)
}

func (s *Server) cacheStats() api.CacheStats {
	st := s.engine.Stats()
	tiers := s.engine.Store().Stats()
	return api.CacheStats{
		Hits: st.Hits, Misses: st.Misses, Panics: st.Panics,
		Workers:     s.engine.Workers(),
		Memory:      tierStats(tiers.Mem),
		Disk:        tierStats(tiers.Disk),
		DiskEnabled: tiers.DiskEnabled,
	}
}

func tierStats(t cachestore.TierStats) api.TierStats {
	return api.TierStats{
		Hits: t.Hits, Misses: t.Misses, Puts: t.Puts,
		Evictions: t.Evictions, Corrupt: t.Corrupt,
		Entries: t.Entries, Bytes: t.Bytes, CapBytes: t.CapBytes,
	}
}

// handleStats is GET /v2/stats: one cheap snapshot of the job registry
// and the result store — the status hook a fronting gateway polls for
// health and capacity, and what operators curl first.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	js := s.jobs.Stats()
	WriteJSON(w, http.StatusOK, api.StatsResponse{
		Jobs: api.JobsStats{
			Queued: js.Queued, Running: js.Running, Terminal: js.Terminal,
			Capacity: js.Capacity, Concurrency: js.Concurrency,
			MaxQueue: js.MaxQueue, Watermark: js.Watermark, Shed: js.Shed,
		},
		Cache: s.cacheStats(),
	})
}

// handleCacheReset is DELETE /v2/cache: drop both result-store tiers
// and zero the counters, answering with the zeroed CacheStats.
func (s *Server) handleCacheReset(w http.ResponseWriter, r *http.Request) {
	// Resetting the result store invalidates results, not job
	// identity: queued and running v2 jobs keep their registry entries
	// and recompute (regression-tested at the jobs layer).
	if err := s.engine.ResetCache(); err != nil {
		// The cache is cleared even on error; failing to delete a disk
		// entry is an internal fault worth surfacing, since the caller
		// asked for durable state to go away.
		WriteErr(w, http.StatusInternalServerError, "resetting cache: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, s.cacheStats())
}
