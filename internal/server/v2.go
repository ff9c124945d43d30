package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/jobs"
	"thermflow/internal/tenant"
)

// This file is the job lifecycle over the internal/jobs registry.
// Submitting returns a handle immediately; the handle's ID is the
// canonical content hash, so polling, result-store entries and the
// sharding gateway all speak the same identity.

// Long-poll bounds for GET /v2/jobs/{id}/wait.
const (
	// DefaultWaitTimeout applies when ?timeout_ms is absent.
	DefaultWaitTimeout = 30 * time.Second
	// MaxWaitTimeout caps client-requested long-poll windows.
	MaxWaitTimeout = 5 * time.Minute
)

// jobStatus converts a registry snapshot to its wire form.
func jobStatus(snap jobs.Snapshot) api.JobStatus {
	st := api.JobStatus{
		ID:          snap.ID,
		State:       string(snap.State),
		Cached:      snap.Cached,
		Priority:    snap.Priority,
		SubmittedMS: unixMS(snap.Submitted),
		StartedMS:   unixMS(snap.Started),
		FinishedMS:  unixMS(snap.Finished),
		DeadlineMS:  unixMS(snap.Deadline),
	}
	if snap.Err != nil {
		st.Error = failureMessage(snap.Err)
	}
	if snap.State == jobs.StateDone {
		st.Result = served(snap.Answer, snap.Cached)
	}
	return st
}

// served is a stored answer as one response serves it: a copy, since
// the registry and the result store share the stored one, marked with
// whether this response came from the store.
func served(a *thermflow.Answer, cached bool) *api.CompileResponse {
	if a == nil {
		return nil
	}
	out := *a
	out.Cached = cached
	return &out
}

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// statusCode picks the HTTP status for a job snapshot: an expired job
// answers 504 — the job-level analogue of a gateway timeout — with its
// JobStatus as the body; every other known state is 200.
func statusCode(snap jobs.Snapshot) int {
	if snap.State == jobs.StateExpired {
		return http.StatusGatewayTimeout
	}
	return http.StatusOK
}

// handleJobSubmit is POST /v2/jobs: canonicalize, register, return the
// handle without waiting — 202 for a new job, 200 for a submit that
// converged on an existing one. Refusals attribute blame: 429 when the
// tenant is over its own queue quota, 503 with Retry-After when the
// shared pool shed the work or is at capacity.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if !decode(w, r, &req) {
		return
	}
	spec, err := ResolveSpec(req)
	if err != nil {
		WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	h, created, err := s.submit(r, spec)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQuota):
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, jobs.ErrShed):
			w.Header().Set("Retry-After", "2")
			WriteErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, jobs.ErrBusy):
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	AnnotateJob(r, h.ID)
	WriteJSON(w, status, jobStatus(h.Snapshot))
}

// submit registers one job for r — a POST /v2/jobs body or one
// /v2/batch item — under the request's span and, with WithQuotas, its
// tenant profile: the tenant's class folds into the scheduler priority
// (class dominates, the job's own priority breaks ties within it) and
// the profile's queue/run caps ride into registry admission. Every
// decision is counted. A submit that converged on an existing job is
// answered Cached: its result is that job's, not new work.
func (s *Server) submit(r *http.Request, spec thermflow.JobSpec) (jobs.Handle, bool, error) {
	var lim jobs.Limits
	if p := TenantProfile(r); p != nil {
		spec.Priority = tenant.EffectivePriority(p.Class, spec.Priority)
		lim = jobs.Limits{
			Owner: p.Name, Class: string(p.Class),
			MaxQueued: p.MaxQueue, MaxRunning: p.MaxConcurrent,
		}
	}
	h, created, err := s.jobs.SubmitTraced(spec, lim, TraceContext(r))
	switch {
	case err == nil && created:
		s.metrics.IncAdmission(lim.Class, "admitted")
	case err == nil:
		s.metrics.IncAdmission(lim.Class, "converged")
		h.Cached = true
	case errors.Is(err, jobs.ErrQuota):
		s.metrics.IncAdmission(lim.Class, "tenant_queue")
	case errors.Is(err, jobs.ErrShed):
		s.metrics.IncAdmission(lim.Class, "shed")
	case errors.Is(err, jobs.ErrBusy):
		s.metrics.IncAdmission(lim.Class, "busy")
	}
	return h, created, err
}

// handleJobGet is GET /v2/jobs/{id}: one snapshot, no waiting. An ID
// this registry never saw may still be answerable from the replica
// shelf — a terminal status pushed here because this backend succeeds
// the job's owner on the ring.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		if s.serveReplica(w, id) {
			return
		}
		WriteErr(w, http.StatusNotFound, "%v", err)
		return
	}
	WriteJSON(w, statusCode(snap), jobStatus(snap))
}

// serveReplica answers id from the replica shelf if it is there,
// reporting whether it did. Shelved statuses are terminal by
// construction, so the stored bytes are served verbatim with the same
// status mapping as a local snapshot (expired → 504) plus the
// ReplicaHeader marker.
func (s *Server) serveReplica(w http.ResponseWriter, id string) bool {
	body, state, ok := s.replicas.Get(id)
	if !ok {
		return false
	}
	code := http.StatusOK
	if state == string(jobs.StateExpired) {
		code = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ReplicaHeader, "1")
	w.WriteHeader(code)
	_, _ = w.Write(body)
	return true
}

// handleReplicaPut is PUT /v2/jobs/{id}/replica: a ring peer (via the
// gateway) shelving a terminal status on this backend. The body must
// be the job's JobStatus document; it is stored verbatim.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		WriteErr(w, http.StatusBadRequest, "invalid JobStatus body: %v", err)
		return
	}
	if st.ID != id {
		WriteErr(w, http.StatusUnprocessableEntity,
			"body job ID %q does not match path ID %q", st.ID, id)
		return
	}
	if !jobs.State(st.State).Terminal() {
		WriteErr(w, http.StatusUnprocessableEntity,
			"replicated state %q is not terminal", st.State)
		return
	}
	s.replicas.Put(id, st.State, body)
	w.WriteHeader(http.StatusNoContent)
}

// handleJobWait is GET /v2/jobs/{id}/wait: long-poll until the job
// turns terminal or the window (?timeout_ms, capped) elapses; either
// way the response is the then-current status — clients loop on the
// state field.
func (s *Server) handleJobWait(w http.ResponseWriter, r *http.Request) {
	timeout := DefaultWaitTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			WriteErr(w, http.StatusUnprocessableEntity, "invalid timeout_ms %q", raw)
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > MaxWaitTimeout {
			timeout = MaxWaitTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	snap, err := s.jobs.Wait(ctx, r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		// A shelved replica is already terminal: nothing to wait for.
		if s.serveReplica(w, r.PathValue("id")) {
			return
		}
		WriteErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if r.Context().Err() != nil {
		return // client gone; nothing to write to
	}
	WriteJSON(w, statusCode(snap), jobStatus(snap))
}

// handleJobsBatch is POST /v2/batch: each item is submitted as
// POST /v2/jobs submits one, and the answers stream back as NDJSON
// keyed by index and job ID — the form a sharding front server can
// fan out and re-merge, since IDs are stable across backends. A
// refused item (tenant quota, shed) is answered at once with the
// refusal in its error field; an admitted one when its job ends,
// waited on through its Handle because retention may evict the ID
// first. A registry full of live jobs (busy) makes room each time one
// of the batch's own jobs ends, so the batch waits for that and
// retries: a batch larger than the registry still runs whole, and an
// item is answered busy only when none of its batch's jobs is left to
// wait for. A client that goes away ends the stream and the submits
// still waiting for room, not the jobs: they run on and stay readable
// by ID.
func (s *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request) {
	var req api.JobsBatchRequest
	if !decode(w, r, &req) {
		return
	}
	specs, ok := resolveBatch(w, req.Jobs)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(item api.JobItem) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(item)
		if flusher != nil {
			flusher.Flush()
		}
	}
	var wg sync.WaitGroup
	ended := make(chan struct{}, len(specs)) // one token per admitted item's end
	admitted, drained := 0, 0
	for i, spec := range specs {
		h, _, err := s.submit(r, spec)
		for errors.Is(err, jobs.ErrBusy) && drained < admitted {
			select {
			case <-ended:
				drained++
			case <-r.Context().Done():
				wg.Wait()
				return
			}
			h, _, err = s.submit(r, spec)
		}
		if err != nil {
			id, _ := spec.ID()
			emit(api.JobItem{Index: i, ID: id, Error: err.Error()})
			continue
		}
		// One waiter per admitted item, ended by its job or by the
		// client going away; the registry's MaxJobs bounds the live jobs.
		admitted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { ended <- struct{}{} }()
			snap, err := h.Wait(r.Context())
			if err != nil {
				return // client gone
			}
			snap.Cached = snap.Cached || h.Cached // converged at submit
			item := api.JobItem{Index: i, ID: snap.ID}
			if snap.Err != nil {
				item.Error = failureMessage(snap.Err)
			} else {
				item.Result = served(snap.Answer, snap.Cached)
			}
			emit(item)
		}()
	}
	wg.Wait()
}
