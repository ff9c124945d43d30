// Package tenant is the multi-tenancy model shared by thermflowd and
// thermflowgate: per-token quota profiles — rate, burst, queue depth,
// run concurrency and a priority class — loaded from one JSON file and
// hot-reloaded on SIGHUP alongside token rotation (source.go).
//
// The package deliberately holds policy only. Enforcement is split by
// layer, each attributing its own rejection: the HTTP middleware
// (internal/server.WithQuotas) answers 429 when a tenant exceeds its
// own rate or concurrency quota, and the jobs registry
// (internal/jobs) answers through shed/queue errors that map to 503
// when the shared pool is saturated — a tenant over ITS limit is told
// to slow down, a tenant caught in EVERYONE's backlog is told the
// service is busy.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Class is a tenant's priority band. Classes order admission: when the
// pool's queue crosses its shed watermark, lower classes are refused
// and shed first, whatever per-request priorities clients ask for.
type Class string

// The four classes, lowest to highest precedence.
const (
	ClassBatch    Class = "batch"    // offline/bulk work, first to shed
	ClassStandard Class = "standard" // the default interactive band
	ClassHigh     Class = "high"     // latency-sensitive tenants
	ClassCritical Class = "critical" // last to shed
)

// Rank orders classes: higher outranks lower at admission time.
func (c Class) Rank() int {
	switch c {
	case ClassCritical:
		return 3
	case ClassHigh:
		return 2
	case ClassStandard:
		return 1
	case ClassBatch:
		return 0
	}
	return -1
}

// ParseClass validates a class name; empty selects ClassStandard.
func ParseClass(s string) (Class, error) {
	c := Class(strings.ToLower(strings.TrimSpace(s)))
	if c == "" {
		return ClassStandard, nil
	}
	if c.Rank() < 0 {
		return "", fmt.Errorf("tenant: unknown class %q (want batch, standard, high or critical)", s)
	}
	return c, nil
}

// Priority encoding: the class occupies the high bits so that any
// request of a higher class outranks every request of a lower one in
// the jobs registry's priority heap; the client-requested priority
// breaks ties within a class.
const (
	classPriorityShift = 20
	clientPriorityMax  = 1<<(classPriorityShift-1) - 1 // ±524287
)

// EffectivePriority folds a tenant's class and the client-requested
// priority into one scheduler priority. The class dominates: a batch
// tenant cannot outbid a critical one by inflating the request field.
func EffectivePriority(c Class, clientPriority int) int {
	if clientPriority > clientPriorityMax {
		clientPriority = clientPriorityMax
	}
	if clientPriority < -clientPriorityMax {
		clientPriority = -clientPriorityMax
	}
	rank := c.Rank()
	if rank < 0 {
		rank = ClassStandard.Rank()
	}
	return rank<<classPriorityShift + clientPriority
}

// Profile is one tenant's quota envelope. Zero values mean "no limit"
// for every field except Class (empty normalizes to standard).
type Profile struct {
	// Name identifies the tenant in logs, metrics labels and the
	// X-Thermflow-Tenant header a gateway forwards to backends.
	Name string
	// Class is the admission band.
	Class Class
	// Rate and Burst shape the tenant's HTTP token bucket
	// (requests/second and bucket capacity; Burst 0 selects 2×Rate,
	// minimum 1; Rate 0 disables rate limiting for the tenant).
	Rate  float64
	Burst int
	// MaxQueue caps how many of the tenant's jobs may wait in the v2
	// registry queue at once (0 = unlimited).
	MaxQueue int
	// MaxConcurrent caps the tenant's simultaneously running jobs; jobs
	// over it wait queued (0 = unlimited).
	MaxConcurrent int
}

// Quotas is an immutable quota table: a default profile plus named
// tenants addressable by bearer token or by name. Swapped wholesale on
// reload (see Source) — readers never observe a partial table.
type Quotas struct {
	def     Profile
	byToken map[string]*Profile
	byName  map[string]*Profile
	names   []string // listing order, for logs
}

// Default returns the profile applied to tokens no tenant claims.
func (q *Quotas) Default() *Profile { return &q.def }

// Lookup resolves a bearer token to its profile. The boolean reports a
// named-tenant match; unmatched tokens (and the empty token) share the
// default profile.
func (q *Quotas) Lookup(token string) (*Profile, bool) {
	if token != "" {
		if p, ok := q.byToken[token]; ok {
			return p, true
		}
	}
	return &q.def, false
}

// ByName resolves a tenant name (nil when unknown). Gateways resolve
// tokens at the edge and forward the name; backends configured to
// trust that header re-resolve it here against their own table.
func (q *Quotas) ByName(name string) *Profile { return q.byName[name] }

// Names lists the named tenants in file order.
func (q *Quotas) Names() []string { return append([]string(nil), q.names...) }

// HasToken reports whether token belongs to a named tenant.
func (q *Quotas) HasToken(token string) bool {
	_, ok := q.byToken[token]
	return ok
}

// fileProfile is the wire form of one profile in the quota file.
type fileProfile struct {
	Name          string   `json:"name,omitempty"`
	Class         string   `json:"class,omitempty"`
	Rate          float64  `json:"rate,omitempty"`
	Burst         int      `json:"burst,omitempty"`
	MaxQueue      int      `json:"max_queue,omitempty"`
	MaxConcurrent int      `json:"max_concurrent,omitempty"`
	Tokens        []string `json:"tokens,omitempty"`
}

// fileDoc is the quota file:
//
//	{
//	  "default": {"class": "standard", "rate": 50},
//	  "tenants": [
//	    {"name": "acme", "class": "high", "tokens": ["tok-a"],
//	     "rate": 200, "burst": 400, "max_queue": 512, "max_concurrent": 32}
//	  ]
//	}
type fileDoc struct {
	Default *fileProfile  `json:"default,omitempty"`
	Tenants []fileProfile `json:"tenants,omitempty"`
}

// Parse reads and validates a quota document. Unknown fields are
// rejected so a typoed limit fails loudly instead of silently meaning
// "unlimited".
func Parse(data []byte) (*Quotas, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var doc fileDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tenant: quota file: %v", err)
	}
	q := &Quotas{
		byToken: make(map[string]*Profile),
		byName:  make(map[string]*Profile),
	}
	def := Profile{Name: "default", Class: ClassStandard}
	if doc.Default != nil {
		if doc.Default.Name != "" || len(doc.Default.Tokens) > 0 {
			return nil, fmt.Errorf("tenant: the default profile takes no name or tokens")
		}
		p, err := resolveProfile(*doc.Default, "default")
		if err != nil {
			return nil, err
		}
		def = p
		def.Name = "default"
	}
	q.def = def
	for i, fp := range doc.Tenants {
		if strings.TrimSpace(fp.Name) == "" {
			return nil, fmt.Errorf("tenant: tenants[%d] has no name", i)
		}
		if fp.Name == "default" {
			return nil, fmt.Errorf("tenant: tenant name %q is reserved", fp.Name)
		}
		if _, dup := q.byName[fp.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", fp.Name)
		}
		p, err := resolveProfile(fp, fp.Name)
		if err != nil {
			return nil, err
		}
		pp := &p
		q.byName[p.Name] = pp
		q.names = append(q.names, p.Name)
		for _, tok := range fp.Tokens {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return nil, fmt.Errorf("tenant: tenant %q lists an empty token", p.Name)
			}
			if _, dup := q.byToken[tok]; dup {
				return nil, fmt.Errorf("tenant: token claimed by two tenants (second: %q)", p.Name)
			}
			q.byToken[tok] = pp
		}
	}
	return q, nil
}

// resolveProfile validates one profile's fields.
func resolveProfile(fp fileProfile, name string) (Profile, error) {
	class, err := ParseClass(fp.Class)
	if err != nil {
		return Profile{}, fmt.Errorf("tenant: %s: %v", name, err)
	}
	if fp.Rate < 0 || fp.Burst < 0 || fp.MaxQueue < 0 || fp.MaxConcurrent < 0 {
		return Profile{}, fmt.Errorf("tenant: %s: limits must be non-negative", name)
	}
	return Profile{
		Name: fp.Name, Class: class,
		Rate: fp.Rate, Burst: fp.Burst,
		MaxQueue: fp.MaxQueue, MaxConcurrent: fp.MaxConcurrent,
	}, nil
}

// Load reads and parses the quota file at path.
func Load(path string) (*Quotas, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: quota file: %w", err)
	}
	return Parse(data)
}
