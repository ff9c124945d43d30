package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"thermflow/internal/tenant"
)

// This file is the tenancy-aware half of the middleware stack:
// WithQuotas resolves every request's bearer token to a tenant.Profile
// and charges the profile's rate bucket, answering 429 when the tenant
// exceeds it. The rest of the profile — class, queue and run caps — is
// applied per job by the jobs registry's admission control
// (Server.submit), which also answers 503 when the shared pool is
// full. The statuses attribute blame: 429 means "you, specifically,
// slow down"; 503 means "the shared pool is full, whoever you are".

// TenantHeader carries a resolved tenant name from a gateway to its
// backends. The gateway stamps it on every proxied request from the
// profile it resolved at the edge; a backend honors it only when
// started with -trust-tenant-header, because anyone who can reach a
// backend directly could otherwise claim any tenant's quota.
const TenantHeader = "X-Thermflow-Tenant"

const tenantKey ctxKey = 1

// TenantProfile returns the profile WithQuotas resolved for this
// request (nil outside WithQuotas). Handlers use it to attribute work
// — the v2 submit path folds the profile's class into job priority and
// its queue/run caps into registry admission.
func TenantProfile(r *http.Request) *tenant.Profile {
	p, _ := r.Context().Value(tenantKey).(*tenant.Profile)
	return p
}

// QuotaSource resolves bearer tokens to quota profiles. *tenant.Quotas
// is the fixed implementation; *tenant.Source the file-backed
// reloadable one.
type QuotaSource interface {
	Lookup(token string) (*tenant.Profile, bool)
	ByName(name string) *tenant.Profile
	Default() *tenant.Profile
}

// QuotaConfig parameterizes WithQuotas.
type QuotaConfig struct {
	// Quotas resolves tokens to profiles (required). A single global
	// limit is a table holding only a default profile — a quota file
	// of {"default": {"rate": N, "burst": M}}.
	Quotas QuotaSource
	// ByToken keys default-profile buckets by bearer token instead of
	// peer host. Set it ONLY when WithQuotas sits behind WithAuth in the
	// chain, so every token it sees is validated and one client cannot
	// starve another behind the same NAT. Without auth, leave it false:
	// an unvalidated Authorization header would mint a fresh full
	// bucket per request, bypassing the limit entirely.
	ByToken bool
	// TrustHeader accepts the TenantHeader name stamped by a fronting
	// gateway when the token itself resolves only to the default
	// profile. Enable it on backends reachable exclusively through a
	// trusted gateway.
	TrustHeader bool
	// Clock overrides the bucket clock (nil selects time.Now).
	Clock func() time.Time
	// Metrics, when non-nil, counts every quota rejection into
	// thermflow_admission_total by tenant class and decision.
	Metrics *Metrics
	// Tokens, when non-nil, registers a reload hook that evicts rate
	// buckets keyed by tokens the rotation removed — without it a
	// rotated-out token's bucket lingers until the map hits its bound.
	Tokens *TokenSource
}

// WithQuotas enforces per-tenant admission at the HTTP edge: each
// request resolves to a tenant.Profile (by bearer token, or by the
// gateway-stamped TenantHeader when trusted) and pays one token from
// the profile's rate bucket. Rejections are 429 with Retry-After (in
// ceiled seconds): the tenant exceeded its own envelope. The resolved
// profile rides the request context (TenantProfile) so the job layer
// can apply the profile's class and queue/run caps without
// re-resolving. Quota hot-reloads
// (tenant.Source.Reload, SIGHUP) take effect on the next request;
// in-flight requests finish under the profile they entered with.
func WithQuotas(cfg QuotaConfig) Middleware {
	rl := newRateLimiter(cfg.Clock)
	if cfg.Tokens != nil {
		cfg.Tokens.OnReload(func(ts *TokenSet) {
			rl.evict(func(key string) bool {
				tok, ok := strings.CutPrefix(key, "t:")
				return ok && !ts.Allow(tok)
			})
		})
	}
	if src, ok := cfg.Quotas.(*tenant.Source); ok {
		src.OnReload(func(q *tenant.Quotas) {
			rl.evict(func(key string) bool {
				name, ok := strings.CutPrefix(key, "n:")
				return ok && q.ByName(name) == nil
			})
		})
	}

	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			token := bearerToken(r)
			p, named := cfg.Quotas.Lookup(token)
			if !named && cfg.TrustHeader {
				if name := r.Header.Get(TenantHeader); name != "" {
					if tp := cfg.Quotas.ByName(name); tp != nil {
						p, named = tp, true
					}
				}
			}
			key := quotaKey(p, named, token, cfg.ByToken, r)

			if p.Rate > 0 {
				if ok, wait := rl.allowRate(key, p.Rate, burstOf(p)); !ok {
					secs := int64(math.Ceil(wait.Seconds()))
					if secs < 1 {
						secs = 1
					}
					cfg.Metrics.IncAdmission(string(p.Class), "rate_limited")
					w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
					WriteErr(w, http.StatusTooManyRequests,
						"rate limit exceeded; retry in %ds", secs)
					return
				}
			}

			ctx := context.WithValue(r.Context(), tenantKey, p)
			r = r.WithContext(ctx)
			name := "default"
			if named && p.Name != "" {
				name = p.Name
			}
			annotateTenant(r, name)
			// Per-tenant latency/served series ride the same resolution:
			// the label space is the quota file's profile names plus
			// "default", so cardinality stays bounded no matter what
			// clients send.
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			served := isJobRequest(r) && sw.status >= 200 && sw.status < 300
			cfg.Metrics.ObserveTenant(name, time.Since(start).Seconds(), served)
		})
	}
}

// quotaKey is a request's accounting identity. Named tenants share one
// bucket across all their tokens ("n:" + name); default-profile
// clients key by validated token ("t:") or peer host ("h:"). The
// prefixes keep the spaces disjoint — a host named like a token cannot
// collide — and let the reload hooks evict by kind.
func quotaKey(p *tenant.Profile, named bool, token string, byToken bool, r *http.Request) string {
	if named {
		return "n:" + p.Name
	}
	if byToken && token != "" {
		return "t:" + token
	}
	return "h:" + clientHost(r)
}

// burstOf resolves a profile's bucket capacity (0 selects 2×rate,
// minimum 1).
func burstOf(p *tenant.Profile) float64 {
	if p.Burst > 0 {
		return float64(p.Burst)
	}
	return math.Max(1, 2*p.Rate)
}

// isJobRequest marks the endpoints that submit jobs — the async
// submit and the batch stream — for the per-tenant served-jobs
// counter.
func isJobRequest(r *http.Request) bool {
	return r.Method == http.MethodPost && (r.URL.Path == "/v2/jobs" || r.URL.Path == "/v2/batch")
}

// maxRateClients bounds the rate limiter's per-client bucket map; at
// the bound, buckets refilled to full burst (idle clients) are swept.
const maxRateClients = 65536

// rateLimiter is a map of per-client token buckets. A request costs
// one token; an empty bucket is a 429 with the refill wait in
// Retry-After. allowRate charges a bucket under a caller-supplied
// shape, which is how per-tenant quotas (and their hot reloads) take
// effect without rebuilding the limiter.
type rateLimiter struct {
	clock func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket remembers the shape it was charged under so a sweep can tell
// idle (fully refilled) buckets apart even when tenants have different
// shapes, and so allowRate can detect a reloaded quota.
type bucket struct {
	tokens float64
	rate   float64
	burst  float64
	last   time.Time
}

func newRateLimiter(clock func() time.Time) *rateLimiter {
	if clock == nil {
		clock = time.Now
	}
	return &rateLimiter{clock: clock, buckets: make(map[string]*bucket)}
}

// allowRate charges one token to key under the given shape. A changed
// shape — the tenant's quota was hot-reloaded — re-primes the bucket
// to the new full burst: the operator's new envelope takes effect on
// the next request, not after the old debt drains at the new rate.
func (rl *rateLimiter) allowRate(key string, rate, burst float64) (bool, time.Duration) {
	now := rl.clock()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[key]
	if !ok {
		if len(rl.buckets) >= maxRateClients {
			rl.sweepLocked()
		}
		b = &bucket{tokens: burst, rate: rate, burst: burst, last: now}
		rl.buckets[key] = b
	}
	if b.rate != rate || b.burst != burst {
		b.tokens, b.rate, b.burst = burst, rate, burst
	}
	b.tokens = math.Min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return false, wait
}

// sweepLocked drops idle (fully refilled) buckets; if every client is
// active, it drops everything — a full reset under genuine overload
// beats unbounded growth.
func (rl *rateLimiter) sweepLocked() {
	for k, b := range rl.buckets {
		if b.tokens >= b.burst {
			delete(rl.buckets, k)
		}
	}
	if len(rl.buckets) >= maxRateClients {
		rl.buckets = make(map[string]*bucket)
	}
}

// evict drops every bucket whose key matches pred — the reload hooks
// use it so a rotated-out token's bucket cannot linger until the map
// hits its bound (and so a token re-added later starts from a fresh
// full burst instead of inheriting stale debt).
func (rl *rateLimiter) evict(pred func(key string) bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for k := range rl.buckets {
		if pred(k) {
			delete(rl.buckets, k)
		}
	}
}
