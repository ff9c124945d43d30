// Wire types of the scale-out surface: the per-backend status snapshot
// (GET /v2/stats, served by thermflowd) and the administrative shard
// view of thermflowgate, the consistent-hashing gateway that fronts a
// pool of thermflowd backends.
//
// Gateway endpoints (cmd/thermflowgate), on top of the proxied /v2
// surface:
//
//	GET  /gateway/backends                    -> GatewayBackendsResponse
//	POST /gateway/drain?backend=URL           -> GatewayBackendsResponse
//	POST /gateway/undrain?backend=URL         -> GatewayBackendsResponse
//
// Draining a backend removes it from the hash ring — new jobs route to
// the remaining backends — while requests already in flight on it run
// to completion (status reads of the jobs it holds keep resolving to
// it). Drained: true means no gateway requests in flight AND the
// backend's own registry reports nothing queued or running — only
// then is the process safe to retire. Unknown backend URLs answer 404.
package api

// JobsStats is the wire form of the v2 job registry's occupancy.
type JobsStats struct {
	// Queued, Running and Terminal count retained jobs by lifecycle
	// group.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Terminal int `json:"terminal"`
	// Capacity is the registry's retention bound (thermflowd -job-max);
	// Concurrency how many registered jobs run at once.
	Capacity    int `json:"capacity"`
	Concurrency int `json:"concurrency"`
	// MaxQueue and Watermark are the admission-control queue bounds
	// (0 = admission control off); Shed counts jobs refused or
	// displaced by admission control since start.
	MaxQueue  int   `json:"max_queue,omitempty"`
	Watermark int   `json:"watermark,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
}

// StatsResponse is one backend's status snapshot (GET /v2/stats).
type StatsResponse struct {
	Jobs  JobsStats  `json:"jobs"`
	Cache CacheStats `json:"cache"`
}

// GatewayBackend is one pool member as the gateway sees it.
type GatewayBackend struct {
	// URL is the backend's base URL — its identity in the pool and on
	// the hash ring.
	URL string `json:"url"`
	// Healthy reports the active health checker's current verdict; an
	// unhealthy backend is ejected from the ring until it answers
	// probes again.
	Healthy bool `json:"healthy"`
	// Draining reports administrative draining: no new assignments,
	// in-flight work runs to completion.
	Draining bool `json:"draining"`
	// Drained is Draining with no gateway requests in flight AND no
	// jobs queued or running inside the backend itself (the gateway
	// asks the backend's /v2/stats) — only then is the process safe to
	// retire. If the backend cannot be asked, Drained stays false.
	Drained bool `json:"drained,omitempty"`
	// Inflight counts the gateway requests and shard streams currently
	// running against this backend; ActiveJobs the jobs its own
	// registry reports queued or running (populated while draining).
	Inflight   int `json:"inflight"`
	ActiveJobs int `json:"active_jobs,omitempty"`
	// ConsecutiveFails counts probe failures since the last success;
	// LastError is the most recent probe or proxy failure.
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	LastError        string `json:"last_error,omitempty"`
	// LastProbeMS is the last health probe's time as Unix milliseconds
	// (0 before the first probe).
	LastProbeMS int64 `json:"last_probe_ms,omitempty"`
	// PendingCacheReset reports that a pool-wide DELETE /v2/cache could
	// not reach this backend; the gateway re-issues the reset when the
	// backend answers again.
	PendingCacheReset bool `json:"pending_cache_reset,omitempty"`
}

// CacheResetResponse is the gateway's answer to DELETE /v2/cache: the
// zeroed pool-wide stats plus the members the reset did not reach.
type CacheResetResponse struct {
	CacheStats
	// Unreached lists configured backends whose reset failed (down,
	// ejected, or answering errors). The gateway remembers them and
	// re-issues the reset when each one answers again; until then its
	// cache — the disk tier included — still holds pre-reset results.
	Unreached []string `json:"unreached,omitempty"`
	// Error is the first failure, when Unreached is non-empty.
	Error string `json:"error,omitempty"`
}

// GatewayBackendsResponse is the gateway's shard view
// (GET /gateway/backends and the drain endpoints).
type GatewayBackendsResponse struct {
	// Backends lists every configured pool member, routable or not.
	Backends []GatewayBackend `json:"backends"`
	// RingBackends counts the members currently on the hash ring
	// (healthy and not draining); VirtualNodes is the ring's virtual
	// nodes per backend.
	RingBackends int `json:"ring_backends"`
	VirtualNodes int `json:"virtual_nodes"`
}
