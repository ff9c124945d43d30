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
//	           [-job-log-dir DIR]
//	           [-debug-addr ""]
//
// The result cache is a two-tier store: an in-memory LRU tier capped
// at -cache-max-bytes, and (with -cache-dir) a persistent on-disk tier
// capped at -cache-disk-max-bytes. The disk tier is content-addressed
// by the same hash as the memory tier — and the same hash as the job
// IDs the /v2 endpoints hand out — so a restarted thermflowd pointed at
// the same directory comes back warm. Its answers survive a process
// kill but are not fsynced, so a power loss can cost a recompute.
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
// -job-log-dir makes the v2 job registry durable: every submit is
// appended to a CRC-framed write-ahead log under DIR/jobs, one record
// per job, and replica statuses pushed by a gateway persist under
// DIR/replicas. A restarted thermflowd replays both, so every job
// accepted before a process kill keeps answering: it comes back done
// if its answer is in the cache and runs again otherwise (a job whose
// deadline has passed, or whose spec no longer parses, ends with an
// attributable "interrupted by backend restart" error instead). A job
// that has shown done also survives a power loss, because its submit
// record is fsynced before it shows done; a power loss can drop only
// jobs not yet done among the last 15 unsynced submits. Pair it with
// -cache-dir on the same volume so replayed jobs find their answers.
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

import "thermflow/internal/daemon"

func main() { daemon.Main("thermflowd", daemon.Backend) }
