// Package api defines the JSON wire types of the thermflowd HTTP API —
// the serialization boundary shared by the server (internal/server)
// and the Go client (thermflow/client).
//
// Endpoints:
//
//	POST   /v2/jobs          JobRequest       -> JobStatus (async handle)
//	GET    /v2/jobs/{id}                      -> JobStatus
//	GET    /v2/jobs/{id}/wait                 -> JobStatus (long poll)
//	GET    /v2/jobs/{id}/trace                -> TraceResponse
//	POST   /v2/batch         JobsBatchRequest -> NDJSON stream of JobItem
//	GET    /v2/stats                          -> StatsResponse (jobs + cache)
//	GET    /v2/kernels                        -> KernelsResponse
//	DELETE /v2/cache                          -> CacheStats (zeroed)
//
// The same surface is served by thermflowgate, the consistent-hashing
// shard gateway over a pool of thermflowd backends (see gateway.go for
// its administrative endpoints); clients cannot tell the difference.
//
// The job types live in v2.go. Compile options travel as
// thermflow.Options, whose JSON form names the enums ("policy":
// "chessboard", "solver": "sparse", ...) and omits defaults; see
// Options.MarshalJSON in the root package. Errors travel as
// ErrorResponse with the HTTP status conveying the class: 400 malformed
// request, 401 missing/invalid bearer token, 404 unknown route or job,
// 422 well-formed but unsatisfiable (unknown
// policy/solver/layout/join/kernel, IR parse failure), 429 tenant over
// its quota (with Retry-After), 500 internal fault, 503 job registry at
// capacity or shedding, 504 job deadline expired (body carries the
// JobStatus). A job that runs and fails — an allocation that exceeded
// its spill work budget, say — is state "failed" with the error in its
// JobStatus, not an HTTP error.
package api

import (
	"sort"

	"thermflow"
)

// CompileResponse is the wire form of one compilation result: the
// answer a backend stores and serves (see thermflow.Answer for the
// fields).
type CompileResponse = thermflow.Answer

// HotSpot is one entry of the critical-variable ranking.
type HotSpot = thermflow.HotSpot

// AllocSummary is the wire form of a register allocation.
type AllocSummary = thermflow.AllocSummary

// KernelsResponse lists the built-in benchmark kernels.
type KernelsResponse struct {
	Kernels []KernelInfo `json:"kernels"`
}

// KernelInfo describes one built-in kernel.
type KernelInfo struct {
	Name   string `json:"name"`
	Instrs int    `json:"instrs"`
	Values int    `json:"values"`
	Blocks int    `json:"blocks"`
}

// TierStats is the wire form of one result-store tier's counters.
type TierStats struct {
	// Hits and Misses count lookups against this tier; Puts entries
	// admitted; Evictions entries removed to respect the byte cap;
	// Corrupt disk entries dropped for failing validation.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Corrupt   uint64 `json:"corrupt,omitempty"`
	// Entries and Bytes are the tier's current contents; CapBytes the
	// configured cap.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	CapBytes int64 `json:"cap_bytes"`
}

// CacheStats is the wire form of the server's result-store counters
// (the cache block of GET /v2/stats; DELETE /v2/cache returns the
// zeroed form).
type CacheStats struct {
	// Hits counts jobs served from the store (either tier, or an
	// identical job already in flight), Misses jobs compiled, Panics
	// jobs that panicked (isolated per job).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Panics uint64 `json:"panics"`
	// Workers is the size of the server's compile worker pool.
	Workers int `json:"workers"`
	// Memory and Disk detail the store's two tiers. DiskEnabled
	// reports whether the server was started with a cache directory
	// (thermflowd -cache-dir); without one Disk stays zero.
	Memory      TierStats `json:"memory"`
	Disk        TierStats `json:"disk"`
	DiskEnabled bool      `json:"disk_enabled"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MaxHotSpots bounds the critical-variable ranking on the wire.
const MaxHotSpots = thermflow.MaxHotSpots

// ResponseFor converts a compilation into its wire form.
func ResponseFor(c *thermflow.Compiled, cached bool) *CompileResponse {
	a := c.Answer()
	a.Cached = cached
	return a
}

// KernelList builds the kernel listing from the built-in workload set,
// sorted by name.
func KernelList() (KernelsResponse, error) {
	names := thermflow.Kernels()
	sort.Strings(names)
	out := KernelsResponse{Kernels: make([]KernelInfo, 0, len(names))}
	for _, name := range names {
		p, err := thermflow.Kernel(name)
		if err != nil {
			return KernelsResponse{}, err
		}
		out.Kernels = append(out.Kernels, KernelInfo{
			Name:   name,
			Instrs: p.Fn.NumInstrs(),
			Values: p.Fn.NumValues(),
			Blocks: len(p.Fn.Blocks),
		})
	}
	return out, nil
}
