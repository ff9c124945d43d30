// Command thermflowgate fronts a pool of thermflowd backends with a
// consistent-hashing shard gateway: it speaks the same HTTP surface as
// one backend, routes every job to the pool member that owns its
// content-hash ID on a bounded-remap ring, fans batches out per shard
// (re-merging the ID-keyed NDJSON streams in completion order, with
// failover re-dispatch when a backend dies mid-batch), actively
// health-checks the pool, and supports administrative draining.
//
// Usage:
//
//	thermflowgate -backends host1:8080,host2:8080 [-addr :8090]
//	              [-vnodes 128] [-health-interval 2s] [-health-timeout 2s]
//	              [-eject-after 2] [-replicas 1] [-state-dir DIR]
//	              [-auth-token-file FILE] [-quota-file FILE] [-request-timeout 0]
//	              [-debug-addr ""]
//
// Clients point at the gateway exactly as they would at one
// thermflowd; the Authorization header is passed through to the
// backends, so one token file can protect the whole deployment
// (distribute it to the gateway and every backend). The hardening
// flags compose the same middleware stack as thermflowd — request IDs,
// tracing, access logs, optional edge auth (SIGHUP re-reads the token
// file), tenant quotas, body and deadline caps.
//
// Tracing: the gateway propagates the sanitized X-Thermflow-Trace
// context to every backend it proxies to, records its own edge span
// per request, and serves GET /v2/jobs/{id}/trace by fetching the
// owning backend's timeline and merging its edge spans into it.
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ plus /metrics. It has no auth and exposes process
// internals: bind it to loopback (e.g. 127.0.0.1:6061) or an
// operator-only network, NEVER a public address.
//
// -quota-file enables per-tenant admission at the edge: bearer tokens
// resolve to tenant quota profiles (rate, burst, priority class; see
// internal/tenant; a default-only file is a global per-client rate
// limit), re-read on the same SIGHUP that rotates tokens,
// and every proxied request carries the resolved tenant name to the
// backends in the X-Thermflow-Tenant header — start the backends with
// -trust-tenant-header (and the same quota file) so their registries
// enforce the tenant's queue and run caps under the right identity.
//
// -replicas R makes the gateway replicate every terminal job status it
// relays to the owner's R ring successors, so a permanently dead
// backend's job IDs still answer (marked with the X-Thermflow-Replica
// header). -replicas -1 disables replication. -state-dir DIR persists
// administrative drain decisions in a write-ahead log, so a drained
// backend stays drained across gateway restarts.
//
// Operations:
//
//	GET  /gateway/backends           the shard view (health, draining, inflight)
//	POST /gateway/drain?backend=URL  stop new assignments; let work finish
//	POST /gateway/undrain?backend=URL
//
// See the README "Sharding across backends" section for a walkthrough.
package main

import "thermflow/internal/daemon"

func main() { daemon.Main("thermflowgate", daemon.Gateway) }
