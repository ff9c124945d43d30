// Package cachestore is the two-tier content-addressed result store
// behind the batch engine: a byte-capped in-memory LRU tier in front
// of an optional byte-capped on-disk tier, both keyed by a content
// hash of the job (for thermflowd, the v2 job ID over program text and
// compile options; its values are job answers). It turns the engine's
// content-keyed cache from a per-process accident into a durable
// resource: a restarted thermflowd pointed at the same directory comes
// back warm, and neither tier can grow without bound.
//
// Invariants:
//
//   - The memory tier's live bytes never exceed its cap: Put evicts
//     least-recently-used entries first, and a value larger than the
//     whole cap is simply not admitted.
//   - The disk tier is corruption-tolerant: entries are one file each,
//     written to a temporary name and atomically renamed, framed by a
//     versioned header with a payload checksum. A file that is
//     truncated, bit-flipped, from a older format, or unreadable is
//     deleted and reported as a miss — never an error, never a panic.
//   - Store never interprets values: a Codec turns them into bytes and
//     back. Values the codec declines (ErrUnencodable) simply stay
//     memory-only.
//
// A Store is safe for concurrent use. Disk reads and writes happen
// outside the store lock, so slow media stalls only the caller
// touching it.
package cachestore

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Default tier caps and sizing, used when Config leaves them zero.
const (
	// DefaultMaxMemBytes caps the memory tier (256 MiB).
	DefaultMaxMemBytes = 256 << 20
	// DefaultMaxDiskBytes caps the disk tier (1 GiB).
	DefaultMaxDiskBytes = 1 << 30
	// DefaultEntrySize is the per-entry memory charge when Config.SizeOf
	// is nil or returns a non-positive size.
	DefaultEntrySize = 4096
)

// ErrUnencodable is returned by a Codec's Encode for values that have
// no durable form (e.g. cached errors, or results carrying
// process-local identity). The store keeps such values memory-only.
var ErrUnencodable = errors.New("cachestore: value has no durable encoding")

// Codec serializes cache values for the disk tier. Implementations
// must be safe for concurrent use.
type Codec interface {
	// Encode renders v durable, or returns ErrUnencodable to keep it
	// memory-only.
	Encode(v any) ([]byte, error)
	// Decode reverses Encode. A failure is treated as corruption: the
	// entry is deleted and reported as a miss.
	Decode(data []byte) (any, error)
}

// Config parameterizes Open.
type Config struct {
	// MaxMemBytes caps the memory tier's total charged bytes
	// (<= 0 selects DefaultMaxMemBytes).
	MaxMemBytes int64
	// SizeOf charges an entry's memory footprint. Nil (or a
	// non-positive return) charges DefaultEntrySize.
	SizeOf func(v any) int64

	// Dir, when non-empty, enables the disk tier in that directory
	// (created if missing). Entries already present — from a previous
	// process — are indexed at Open, oldest-first.
	Dir string
	// MaxDiskBytes caps the disk tier's total payload bytes
	// (<= 0 selects DefaultMaxDiskBytes).
	MaxDiskBytes int64
	// Codec serializes values for the disk tier; required when Dir is
	// set.
	Codec Codec

	// Clock overrides the time source for entry expiry (nil selects
	// time.Now). Tests inject a fake clock here.
	Clock func() time.Time
}

// TierStats are one tier's counters. Counters are cumulative since
// Open or the last Reset; Entries/Bytes are the current contents.
type TierStats struct {
	// Hits and Misses count Get outcomes against this tier.
	Hits, Misses uint64
	// Puts counts entries admitted; Evictions entries removed to
	// respect the byte cap.
	Puts, Evictions uint64
	// Corrupt counts disk entries dropped for failing validation
	// (bad header, checksum mismatch, undecodable payload).
	Corrupt uint64
	// Entries and Bytes are the tier's current size; CapBytes its cap.
	Entries  int
	Bytes    int64
	CapBytes int64
}

// Stats snapshots both tiers.
type Stats struct {
	Mem, Disk TierStats
	// DiskEnabled reports whether a disk tier is configured.
	DiskEnabled bool
}

// Store is the two-tier result store.
type Store struct {
	sizeOf func(v any) int64
	clock  func() time.Time

	mu       sync.Mutex
	byKey    map[string]*list.Element
	lru      *list.List // front = most recently used
	memBytes int64
	memCap   int64
	mem      TierStats

	disk *diskTier // nil when disabled
}

// memEntry is one memory-tier slot. A non-zero expires makes the entry
// vanish at that instant: an expired slot reads as a miss and is
// removed on contact.
type memEntry struct {
	key     string
	v       any
	size    int64
	expires time.Time
}

// Open builds a Store. With Config.Dir set it scans the directory for
// entries left by previous processes (ignoring anything it cannot
// validate) and enforces the disk cap immediately.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		sizeOf: cfg.SizeOf,
		clock:  cfg.Clock,
		byKey:  make(map[string]*list.Element),
		lru:    list.New(),
		memCap: cfg.MaxMemBytes,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if s.memCap <= 0 {
		s.memCap = DefaultMaxMemBytes
	}
	if cfg.Dir != "" {
		if cfg.Codec == nil {
			return nil, fmt.Errorf("cachestore: disk tier %q configured without a codec", cfg.Dir)
		}
		d, err := openDisk(cfg.Dir, cfg.MaxDiskBytes, cfg.Codec)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	return s, nil
}

// DiskEnabled reports whether the store has a disk tier.
func (s *Store) DiskEnabled() bool { return s.disk != nil }

// Get returns the value stored under key. It consults the memory tier
// first, then the disk tier; a disk hit is decoded and promoted into
// the memory tier so repeats are cheap.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*memEntry)
		if e.expires.IsZero() || s.clock().Before(e.expires) {
			s.lru.MoveToFront(el)
			s.mem.Hits++
			v := e.v
			s.mu.Unlock()
			return v, true
		}
		// Expired: the entry no longer exists; remove it on contact.
		s.lru.Remove(el)
		delete(s.byKey, key)
		s.memBytes -= e.size
		s.mem.Evictions++
	}
	s.mem.Misses++
	s.mu.Unlock()

	if s.disk == nil {
		return nil, false
	}
	v, ok := s.disk.get(key)
	if !ok {
		return nil, false
	}
	s.putMem(key, v, time.Time{})
	return v, true
}

// Put stores v under key in the memory tier and, when a disk tier is
// configured and the codec can encode v, durably on disk. Storing is
// best-effort: an entry too large for the memory cap is not admitted,
// and a failed disk write leaves the memory tier authoritative.
func (s *Store) Put(key string, v any) {
	s.putMem(key, v, time.Time{})
	if s.disk != nil {
		s.disk.put(key, v)
	}
}

// PutTTL is Put with an expiry: after ttl the entry reads as absent
// (a negative-cache entry — e.g. a compile error worth suppressing
// briefly, not pinning forever). ttl <= 0 behaves like Put. Expiring
// entries stay memory-only: the disk tier has no expiry semantics, and
// a transient failure must never outlive the process that saw it.
func (s *Store) PutTTL(key string, v any, ttl time.Duration) {
	if ttl <= 0 {
		s.Put(key, v)
		return
	}
	s.putMem(key, v, s.clock().Add(ttl))
}

// putMem admits v into the memory tier, evicting LRU entries to stay
// under the byte cap.
func (s *Store) putMem(key string, v any, expires time.Time) {
	size := int64(0)
	if s.sizeOf != nil {
		size = s.sizeOf(v)
	}
	if size <= 0 {
		size = DefaultEntrySize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*memEntry)
		s.memBytes += size - e.size
		e.v, e.size, e.expires = v, size, expires
		s.lru.MoveToFront(el)
	} else {
		if size > s.memCap {
			return // larger than the whole tier: never admissible
		}
		s.byKey[key] = s.lru.PushFront(&memEntry{key: key, v: v, size: size, expires: expires})
		s.memBytes += size
		s.mem.Puts++
	}
	for s.memBytes > s.memCap {
		el := s.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.byKey, e.key)
		s.memBytes -= e.size
		s.mem.Evictions++
	}
}

// Delete removes the entry for key from both tiers (a no-op when
// absent). Counters other than the current Entries/Bytes are
// unaffected.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.byKey, key)
		s.memBytes -= e.size
	}
	s.mu.Unlock()
	if s.disk != nil {
		s.disk.delete(key)
	}
}

// Reset drops every entry from both tiers and zeroes all counters.
// The first error removing disk entries is returned; the tiers are
// cleared regardless.
func (s *Store) Reset() error {
	s.mu.Lock()
	s.byKey = make(map[string]*list.Element)
	s.lru = list.New()
	s.memBytes = 0
	s.mem = TierStats{}
	s.mu.Unlock()
	if s.disk != nil {
		return s.disk.reset()
	}
	return nil
}

// Stats snapshots both tiers' counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	mem := s.mem
	mem.Entries = s.lru.Len()
	mem.Bytes = s.memBytes
	mem.CapBytes = s.memCap
	s.mu.Unlock()
	out := Stats{Mem: mem}
	if s.disk != nil {
		out.Disk = s.disk.stats()
		out.DiskEnabled = true
	}
	return out
}
