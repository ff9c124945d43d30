// Job wire types. Submitting returns a job handle whose ID is the
// SHA-256 of the request's canonical content (thermflow.JobSpec), the
// same key the result store and disk tier use. Clients poll or
// long-poll the handle, and duplicate submissions of the same content
// converge on one job.
//
//	POST /v2/jobs           JobRequest  -> JobStatus (202 created, 200 existing)
//	GET  /v2/jobs/{id}                  -> JobStatus (404 unknown, 504 expired)
//	GET  /v2/jobs/{id}/wait             -> JobStatus after the job turns
//	                                       terminal or ?timeout_ms elapses
//	POST /v2/batch          JobsBatchRequest -> NDJSON stream of JobItem
//
// Job states travel as strings: "queued", "running", "done", "failed",
// "expired". A deadline-expired job answers with HTTP 504 and its
// JobStatus body — the 504-equivalent of a job-level timeout.
package api

import "thermflow"

// JobRequest submits one job. Exactly one of Kernel or Program must be
// set; the server canonicalizes either into the job's content identity,
// so a kernel reference and its printed IR are the same job.
type JobRequest struct {
	// Kernel selects a built-in benchmark kernel by name.
	Kernel string `json:"kernel,omitempty"`
	// Program is a program in the textual IR syntax.
	Program string `json:"program,omitempty"`
	// Root, for a multi-function Program, names the function to inline.
	Root string `json:"root,omitempty"`
	// Options are the compile options; absent fields select defaults.
	Options thermflow.Options `json:"options"`

	// DeadlineMS bounds the job's total lifetime from submission in
	// milliseconds, queue wait included; 0 means none. A job that
	// misses its deadline reports state "expired" (HTTP 504). A submit
	// that converges on a live job gives it the later of the two
	// deadlines, none being the latest.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Priority orders queued jobs: higher runs earlier. Neither field
	// is part of the job's identity.
	Priority int `json:"priority,omitempty"`
}

// JobStatus is the wire form of one job's lifecycle position.
type JobStatus struct {
	// ID is the job's content identity: the hex SHA-256 of the
	// canonical JobSpec encoding.
	ID string `json:"id"`
	// State is "queued", "running", "done", "failed" or "expired".
	State string `json:"state"`
	// Cached reports whether the result came from the result store.
	Cached bool `json:"cached,omitempty"`
	// Error is the failure message (failed and expired states).
	Error string `json:"error,omitempty"`
	// Result is the compilation result (done state only).
	Result *CompileResponse `json:"result,omitempty"`

	// Priority echoes the submitted priority; DeadlineMS the absolute
	// deadline as Unix milliseconds (0 when none).
	Priority   int   `json:"priority,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// SubmittedMS, StartedMS and FinishedMS are lifecycle timestamps
	// as Unix milliseconds (0 when not yet reached).
	SubmittedMS int64 `json:"submitted_ms,omitempty"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`

	// Replica reports that the status was answered from a ring
	// successor's replica shelf, not the owner's registry. It is
	// derived from the ReplicaHeader response header by the client —
	// the body itself is the owner's verbatim status, so the flag is
	// never on the wire.
	Replica bool `json:"-"`
}

// ReplicaHeader is the response header marking a job status served
// from a backend's replica shelf rather than its own job registry.
const ReplicaHeader = "X-Thermflow-Replica"

// JobsBatchRequest submits many jobs in one request; the response is a
// stream of newline-delimited JobItem values in completion order. Each
// item is submitted as POST /v2/jobs submits one — its deadline,
// priority and the tenant's quotas apply, and it stays readable by ID
// — and an item the registry refuses (tenant quota, shed) is answered
// at once with the refusal in JobItem.Error. An item refused because
// the registry is full waits until one of the batch's own jobs ends
// and is submitted again; it reads busy only when none is left.
type JobsBatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// JobItem is one job's outcome within a batch stream, keyed both by
// position and by job ID (duplicates of one job share an ID).
type JobItem struct {
	// Index is the job's position in JobsBatchRequest.Jobs.
	Index int `json:"index"`
	// ID is the job's content identity.
	ID string `json:"id"`
	// Error is the job's isolated failure, or the registry's refusal to
	// admit it (tenant quota, shed, busy); empty on success.
	Error string `json:"error,omitempty"`
	// Result is the compilation result, nil on failure.
	Result *CompileResponse `json:"result,omitempty"`
}
