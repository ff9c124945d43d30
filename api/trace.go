// Distributed-tracing wire types: the JSON timeline served by
// GET /v2/jobs/{id}/trace (backend and gateway alike; the gateway
// merges its own edge spans into the owning backend's timeline).
// Trace identity travels in the X-Thermflow-Trace request
// header as "traceID-spanID" (32 and 16 lowercase hex chars); see
// internal/trace for the span model and retention bounds.
package api

// TraceSpan is one timed phase of a job's life on the wire. Times are
// Unix microseconds so exact queue-wait vs solve attribution survives
// JSON without float trouble.
type TraceSpan struct {
	// TraceID groups every span of one job's trace; SpanID names this
	// span and ParentID links it under another (empty = root-level).
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the span's phase in the fixed taxonomy: http.server,
	// job.queued, job.run, job.solve.
	Name string `json:"name"`
	// Service names the recording process ("thermflowd",
	// "thermflowgate").
	Service string `json:"service,omitempty"`
	// StartUS is the span's start, Unix microseconds; DurationUS its
	// length.
	StartUS    int64 `json:"start_us"`
	DurationUS int64 `json:"duration_us"`
	// Attrs carry small phase facts: route and status, queue outcome,
	// solver and convergence, cache outcome.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceResponse is one job's recorded timeline
// (GET /v2/jobs/{id}/trace).
type TraceResponse struct {
	JobID   string `json:"job_id"`
	TraceID string `json:"trace_id,omitempty"`
	// Service names the process whose recorder answered (through the
	// gateway, the gateway's merged view).
	Service string      `json:"service,omitempty"`
	Spans   []TraceSpan `json:"spans"`
	// Dropped counts spans beyond the per-job retention bound.
	Dropped int `json:"dropped,omitempty"`
}
