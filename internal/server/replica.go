package server

import (
	"encoding/json"
	"log"
	"sync"

	"thermflow/api"
	"thermflow/internal/joblog"
	"thermflow/internal/jobs"
)

// The replica shelf: terminal job statuses pushed here by a fronting
// gateway because this backend is a ring successor of the job's owner.
// If the owner dies for good, the gateway's status reads fall through
// to the successors and are answered from this shelf — the job ID
// keeps resolving even though this backend never ran the job. Entries
// are stored as the owner's verbatim JobStatus bytes (re-encoding a
// document another process produced could only lose information) and
// served with the ReplicaHeader so operators and cluster tests can tell
// a replica answer from an owner answer.
//
// The shelf is joblog-backed when a log is supplied: each accepted
// replica appends one record, and the shelf snapshots-and-truncates
// every DefaultSnapshotEvery records, so replicas survive a restart of
// the successor too.

// ReplicaHeader marks a job status served from the replica shelf
// rather than the local registry.
const ReplicaHeader = api.ReplicaHeader

// DefaultReplicaMax bounds retained replicas when Config leaves it
// zero.
const DefaultReplicaMax = 4096

// replica is one shelved status.
type replica struct {
	ID    string          `json:"id"`
	State string          `json:"state"`
	Body  json.RawMessage `json:"body"` // the owner's JobStatus, verbatim
}

const recReplica uint32 = 1

// ReplicaStore shelves replicated terminal job statuses. Safe for
// concurrent use.
type ReplicaStore struct {
	mu    sync.Mutex
	m     map[string]replica
	order []string // insertion order, oldest first, for cap eviction
	max   int
	log   *joblog.Log
}

// NewReplicaStore builds a shelf retaining up to max entries (<= 0
// selects DefaultReplicaMax). A non-nil log makes the shelf durable;
// pass the Recovery from joblog.Open to replay a previous process's
// shelf.
func NewReplicaStore(max int, l *joblog.Log, rec *joblog.Recovery) *ReplicaStore {
	if max <= 0 {
		max = DefaultReplicaMax
	}
	s := &ReplicaStore{m: make(map[string]replica), max: max, log: l}
	if l != nil && rec != nil && !rec.Empty() {
		if rec.Snapshot != nil {
			var shelf []replica
			if err := json.Unmarshal(rec.Snapshot, &shelf); err == nil {
				for _, r := range shelf {
					s.putLocked(r)
				}
			}
		}
		for _, wr := range rec.Records {
			var r replica
			if err := json.Unmarshal(wr.Payload, &r); err == nil && r.ID != "" {
				s.putLocked(r)
			}
		}
		s.snapshotLocked()
		if n := len(s.m); n > 0 {
			log.Printf("server: replayed %d job replicas from log", n)
		}
	}
	return s
}

// Put shelves one replicated status. A re-push overwrites: a failed or
// expired job is replaced by a fresh one when its spec is submitted
// again. A done status stays, since a done answer is final and pushes
// may land out of order.
func (s *ReplicaStore) Put(id, state string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.m[id]; ok && have.State == string(jobs.StateDone) {
		return
	}
	r := replica{ID: id, State: state, Body: append([]byte(nil), body...)}
	s.putLocked(r)
	if s.log == nil {
		return
	}
	payload, err := json.Marshal(r)
	if err == nil {
		err = s.log.Append(recReplica, payload)
	}
	if err != nil {
		log.Printf("server: replica wal append: %v", err)
		return
	}
	if s.log.Records() >= DefaultSnapshotEvery {
		s.snapshotLocked()
	}
}

// DefaultSnapshotEvery is the shelf's snapshot-and-truncate cadence.
const DefaultSnapshotEvery = 256

func (s *ReplicaStore) putLocked(r replica) {
	if _, ok := s.m[r.ID]; !ok {
		s.order = append(s.order, r.ID)
		for len(s.order) > s.max {
			evict := s.order[0]
			s.order = s.order[1:]
			delete(s.m, evict)
		}
	}
	s.m[r.ID] = r
}

func (s *ReplicaStore) snapshotLocked() {
	shelf := make([]replica, 0, len(s.order))
	for _, id := range s.order {
		if r, ok := s.m[id]; ok {
			shelf = append(shelf, r)
		}
	}
	payload, err := json.Marshal(shelf)
	if err == nil {
		err = s.log.Snapshot(payload)
	}
	if err != nil {
		log.Printf("server: replica wal snapshot: %v", err)
	}
}

// Get returns the shelved status bytes and state for id.
func (s *ReplicaStore) Get(id string) (body []byte, state string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[id]
	if !ok {
		return nil, "", false
	}
	return r.Body, r.State, true
}

// Len reports the shelf's current size.
func (s *ReplicaStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
