package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"thermflow/api"
	"thermflow/internal/trace"
)

// This file wires the tracing plane (internal/trace) into the HTTP
// stack: WithTracing opens one server span per request and propagates
// identity via the X-Thermflow-Trace header, request annotations let
// handlers attribute a request to a job and a tenant after the fact
// (for the access log and for keying the server span into the job's
// timeline), and GET /v2/jobs/{id}/trace serves the recorded timeline.

// TraceHeader is the wire header carrying "traceID-spanID" (see
// trace.ParseHeader for the accepted shape; anything else is discarded
// and replaced, never echoed).
const TraceHeader = "X-Thermflow-Trace"

const requestInfoKey ctxKey = 2

// requestInfo is the per-request annotation slot: inner handlers learn
// facts — which job a request resolved to, which tenant it ran as —
// after the outer middleware has already built its context, so the
// outer layers read them back through this shared mutable cell instead
// of a context value that cannot flow outward.
type requestInfo struct {
	mu     sync.Mutex
	jobID  string
	tenant string
}

func (ri *requestInfo) snapshot() (jobID, tenant string) {
	if ri == nil {
		return "", ""
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.jobID, ri.tenant
}

// withRequestInfo installs an annotation slot if the request has none.
func withRequestInfo(r *http.Request) (*http.Request, *requestInfo) {
	if ri := requestInfoOf(r); ri != nil {
		return r, ri
	}
	ri := &requestInfo{}
	return r.WithContext(context.WithValue(r.Context(), requestInfoKey, ri)), ri
}

func requestInfoOf(r *http.Request) *requestInfo {
	ri, _ := r.Context().Value(requestInfoKey).(*requestInfo)
	return ri
}

// AnnotateJob records the job ID a request resolved to, for the access
// log and the tracing middleware (which keys the request's server span
// into that job's timeline). Safe to call with any request; outside
// the middleware stack it is a no-op.
func AnnotateJob(r *http.Request, jobID string) {
	ri := requestInfoOf(r)
	if ri == nil || jobID == "" {
		return
	}
	ri.mu.Lock()
	ri.jobID = jobID
	ri.mu.Unlock()
}

// annotateTenant records the resolved tenant name (WithQuotas).
func annotateTenant(r *http.Request, name string) {
	ri := requestInfoOf(r)
	if ri == nil || name == "" {
		return
	}
	ri.mu.Lock()
	ri.tenant = name
	ri.mu.Unlock()
}

// TraceContext returns the request's span context — the server span
// WithTracing opened — for parenting child spans and stamping outbound
// proxy headers. Invalid (zero) outside WithTracing.
func TraceContext(r *http.Request) trace.SpanContext {
	return trace.FromContext(r.Context())
}

// WithTracing opens one server span per request: the inbound
// X-Thermflow-Trace header (strictly sanitized — a malformed header is
// discarded, never echoed) contributes the trace ID and parent span,
// else a fresh trace starts here. The response carries the server
// span's identity back in the same header, the request context carries
// it inward (TraceContext), and — when an inner handler annotated the
// request with a job ID — the finished server span is recorded into
// that job's timeline in rec. rec may be nil: identity still
// propagates; nothing is recorded.
func WithTracing(rec *trace.Recorder) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := trace.ParseHeader(r.Header.Get(TraceHeader))
			sc := trace.SpanContext{TraceID: parent.TraceID, SpanID: trace.NewSpanID()}
			if parent.TraceID == "" {
				sc.TraceID = trace.NewTraceID()
			}
			w.Header().Set(TraceHeader, sc.Header())
			r = r.WithContext(trace.NewContext(r.Context(), sc))
			r, ri := withRequestInfo(r)

			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)

			jobID, _ := ri.snapshot()
			if jobID == "" || rec == nil {
				return
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			rec.Record(jobID, trace.Span{
				TraceID: sc.TraceID, SpanID: sc.SpanID, Parent: parent.SpanID,
				Name: "http.server", Start: start, Duration: time.Since(start),
				Attrs: map[string]string{
					"method": r.Method,
					"route":  routeOf(r),
					"status": http.StatusText(sw.status),
					"req_id": RequestID(r),
				},
			})
		})
	}
}

// WireSpan converts a recorded span to its wire form.
func WireSpan(sp trace.Span) api.TraceSpan {
	return api.TraceSpan{
		TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: sp.Parent,
		Name: sp.Name, Service: sp.Service,
		StartUS:    sp.Start.UnixMicro(),
		DurationUS: sp.Duration.Microseconds(),
		Attrs:      sp.Attrs,
	}
}

// TraceResponseFor renders a timeline as its wire document.
func TraceResponseFor(tl trace.Timeline, service string) api.TraceResponse {
	out := api.TraceResponse{
		JobID: tl.Key, TraceID: tl.TraceID, Service: service,
		Spans:   make([]api.TraceSpan, 0, len(tl.Spans)),
		Dropped: tl.Dropped,
	}
	for _, sp := range tl.Spans {
		out.Spans = append(out.Spans, WireSpan(sp))
	}
	return out
}

// handleJobTrace is GET /v2/jobs/{id}/trace: the job's recorded
// timeline. 404 carries a distinct message for "job known, trace aged
// out" — timelines are bounded in-memory state, not durable job state.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tl, ok := s.trace.Timeline(id)
	if !ok {
		if _, err := s.jobs.Get(id); err == nil {
			WriteErr(w, http.StatusNotFound,
				"no trace recorded for job %s (timelines are bounded in-memory state)", id)
			return
		}
		WriteErr(w, http.StatusNotFound, "no trace for unknown job %s", id)
		return
	}
	AnnotateJob(r, id)
	WriteJSON(w, http.StatusOK, TraceResponseFor(tl, s.trace.Service()))
}
