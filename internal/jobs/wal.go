package jobs

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"slices"
	"sort"
	"time"

	"thermflow"
	"thermflow/internal/joblog"
)

// This file is the registry's durability layer: every lifecycle
// transition appends one record to a joblog WAL, and New replays the
// log so a kill -9'd backend comes back knowing every job it ever
// answered. Terminal results are NOT stored in the log — the job's
// answer already lives in the engine's content-addressed store under
// the same ID, so replay re-materializes a done job by looking its own
// ID up there (in the disk tier, after a restart). The log holds only
// what the store cannot: the lifecycle (states, timestamps, error
// text) and the job's spec, which is what lets a queued or
// crash-interrupted job re-enter the priority heap and recompute.

// WAL record types.
const (
	recSubmit uint32 = 1 // a job entered the registry (payload: full persistedJob, state queued)
	recStart  uint32 = 2 // a queued job was dispatched (payload: ID + StartedNS)
	recFinish uint32 = 3 // a job turned terminal (payload: ID, State, Cached, Err, FinishedNS)
)

// DefaultSnapshotEvery is the snapshot-and-truncate cadence (appended
// records between snapshots) when Config leaves it zero.
const DefaultSnapshotEvery = 512

// ErrInterrupted marks a job that could not be carried across a
// backend restart: it was queued or running when the process died and
// its spec can no longer be re-run (or its result can no longer be
// found). Jobs that CAN re-run simply re-enter the queue instead.
var ErrInterrupted = errors.New("jobs: interrupted by backend restart")

// persistedJob is the wire form of one job in the WAL and the
// snapshot. It doubles as the payload of every record type; records
// fill only the fields their transition changes.
type persistedJob struct {
	ID          string          `json:"id"`
	Spec        json.RawMessage `json:"spec,omitempty"` // thermflow.JobSpec wire form
	Priority    int             `json:"priority,omitempty"`
	Owner       string          `json:"owner,omitempty"`
	Class       string          `json:"class,omitempty"`
	MaxRun      int             `json:"max_run,omitempty"`
	State       State           `json:"state"`
	Cached      bool            `json:"cached,omitempty"`
	Err         string          `json:"error,omitempty"`
	DeadlineNS  int64           `json:"deadline_ns,omitempty"`
	SubmittedNS int64           `json:"submitted_ns,omitempty"`
	StartedNS   int64           `json:"started_ns,omitempty"`
	FinishedNS  int64           `json:"finished_ns,omitempty"`
}

func unixNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromUnixNS(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// persistLocked renders a job's current state.
func persistLocked(j *job) persistedJob {
	p := persistedJob{
		ID: j.id, Spec: j.specJSON, Priority: j.priority,
		Owner: j.owner, Class: j.class, MaxRun: j.maxRun,
		State: j.state, Cached: j.cached,
		DeadlineNS:  unixNS(j.deadline),
		SubmittedNS: unixNS(j.submitted),
		StartedNS:   unixNS(j.started),
		FinishedNS:  unixNS(j.finished),
	}
	if j.err != nil {
		p.Err = j.err.Error()
	}
	return p
}

// appendLocked writes one WAL record; failures are logged, never
// fatal — a broken disk degrades durability, not availability.
func (r *Registry) appendLocked(typ uint32, p persistedJob) {
	if r.log == nil {
		return
	}
	payload, err := json.Marshal(p)
	if err == nil {
		err = r.log.Append(typ, payload)
	}
	if err != nil {
		log.Printf("jobs: wal append: %v", err)
		return
	}
	if r.log.Records() >= r.snapEvery {
		r.snapshotLocked()
	}
}

// logSubmitLocked, logStartLocked and logFinishLocked record the three
// lifecycle transitions. A finish is the moment a client could have
// observed the result, so it flushes the fsync batch: after the HTTP
// response says "done", a crash must not forget it.
func (r *Registry) logSubmitLocked(j *job) { r.appendLocked(recSubmit, persistLocked(j)) }

func (r *Registry) logStartLocked(j *job) {
	r.appendLocked(recStart, persistedJob{ID: j.id, State: j.state, StartedNS: unixNS(j.started)})
}

func (r *Registry) logFinishLocked(j *job) {
	p := persistedJob{ID: j.id, State: j.state, Cached: j.cached, FinishedNS: unixNS(j.finished)}
	if j.err != nil {
		p.Err = j.err.Error()
	}
	r.appendLocked(recFinish, p)
	if r.log != nil {
		if err := r.log.Sync(); err != nil {
			log.Printf("jobs: wal sync: %v", err)
		}
	}
}

// snapshotLocked writes the full registry state as the log's snapshot
// and truncates the WAL. Terminal order is preserved so retention
// replays in completion order.
func (r *Registry) snapshotLocked() {
	if r.log == nil {
		return
	}
	jobs := make([]persistedJob, 0, len(r.jobs))
	seen := make(map[string]bool, len(r.jobs))
	// Terminal jobs first, oldest-completion first — the replay seeds
	// r.terminal in append order.
	for _, j := range r.terminal {
		if r.jobs[j.id] == j && !seen[j.id] {
			seen[j.id] = true
			jobs = append(jobs, persistLocked(j))
		}
	}
	live := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		if !seen[j.id] {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	for _, j := range live {
		jobs = append(jobs, persistLocked(j))
	}
	payload, err := json.Marshal(jobs)
	if err == nil {
		err = r.log.Snapshot(payload)
	}
	if err != nil {
		log.Printf("jobs: wal snapshot: %v", err)
	}
}

// replayLocked rebuilds the registry from a recovery: snapshot state
// plus the record suffix, folded per job, then materialized. Called by
// New before the registry is shared; r.mu is held for the dispatch it
// ends with.
func (r *Registry) replayLocked(rec joblog.Recovery) {
	byID := make(map[string]*persistedJob)
	var order []string
	upsert := func(p persistedJob) *persistedJob {
		if have, ok := byID[p.ID]; ok {
			return have
		}
		cp := p
		byID[p.ID] = &cp
		order = append(order, p.ID)
		return &cp
	}
	if rec.Snapshot != nil {
		var jobs []persistedJob
		if err := json.Unmarshal(rec.Snapshot, &jobs); err != nil {
			log.Printf("jobs: wal snapshot unreadable, replaying records only: %v", err)
		} else {
			for _, p := range jobs {
				upsert(p)
			}
		}
	}
	for _, wr := range rec.Records {
		var p persistedJob
		if err := json.Unmarshal(wr.Payload, &p); err != nil || p.ID == "" {
			continue // one bad record loses one transition, not the log
		}
		switch wr.Type {
		case recSubmit:
			if have, ok := byID[p.ID]; ok && have.State.Terminal() {
				// A later submit registered a fresh job over a
				// terminal one (failed, expired or pruned).
				delete(byID, p.ID)
				order = slices.DeleteFunc(order, func(id string) bool { return id == p.ID })
			}
			upsert(p)
		case recStart:
			if j, ok := byID[p.ID]; ok && !j.State.Terminal() {
				j.State = StateRunning
				j.StartedNS = p.StartedNS
			}
		case recFinish:
			if j, ok := byID[p.ID]; ok && !j.State.Terminal() {
				j.State = p.State
				j.Cached = p.Cached
				j.Err = p.Err
				j.FinishedNS = p.FinishedNS
			}
		}
	}

	now := r.clock()
	restored, requeued, interrupted := 0, 0, 0
	for _, id := range order {
		switch r.materializeLocked(*byID[id], now) {
		case replayRestored:
			restored++
		case replayRequeued:
			requeued++
		case replayInterrupted:
			interrupted++
		}
	}
	if len(order) > 0 {
		log.Printf("jobs: replayed %d jobs from log (%d terminal restored, %d requeued, %d interrupted)",
			len(order), restored, requeued, interrupted)
	}
	if rec.DroppedBytes > 0 || rec.DroppedSnapshot {
		log.Printf("jobs: wal recovery dropped %d torn bytes (snapshot dropped: %v)",
			rec.DroppedBytes, rec.DroppedSnapshot)
	}
	// Compact: the rebuilt state becomes the new snapshot and the old
	// WAL is truncated, so restarts do not re-pay ever-longer replays.
	r.snapshotLocked()
	r.dispatchLocked()
}

type replayOutcome int

const (
	replayRestored replayOutcome = iota
	replayRequeued
	replayInterrupted
)

// materializeLocked installs one replayed job. Terminal done jobs
// re-materialize their result from the content-addressed store; a
// vanished result (evicted, or the cache directory was lost) re-queues
// the job — same ID, same content, a recompute converges on the same
// result. Queued and crash-interrupted running jobs re-enter the heap;
// only a job that cannot re-run fails, attributably, as interrupted.
func (r *Registry) materializeLocked(p persistedJob, now time.Time) replayOutcome {
	j := &job{
		id: p.ID, priority: p.Priority, specJSON: p.Spec,
		owner: p.Owner, class: p.Class, maxRun: p.MaxRun,
		deadline:  fromUnixNS(p.DeadlineNS),
		submitted: fromUnixNS(p.SubmittedNS),
		started:   fromUnixNS(p.StartedNS),
		done:      make(chan struct{}), qidx: -1,
	}
	r.seq++
	j.seq = r.seq

	installTerminal := func(state State, cached bool, err error) {
		j.state = state
		j.cached = cached
		j.err = err
		j.finished = fromUnixNS(p.FinishedNS)
		if j.finished.IsZero() {
			j.finished = now
		}
		r.jobs[j.id] = j
		r.terminal = append(r.terminal, j)
		close(j.done)
	}

	switch {
	case p.State == StateDone:
		if v, ok := r.eng.Store().Get(p.ID); ok {
			if a, ok := v.(*thermflow.Answer); ok {
				// Served from the disk tier: the answer the pre-crash
				// process served, marked cached like any store hit.
				installTerminal(StateDone, true, nil)
				j.answer = a
				return replayRestored
			}
		}
	case p.State.Terminal():
		var err error
		if p.Err != "" {
			err = errors.New(p.Err)
		}
		installTerminal(p.State, p.Cached, err)
		return replayRestored
	}

	// Queued, running at crash time, or done with a vanished result:
	// the job must run (again). Past-deadline jobs expire rather than
	// restart, and a spec that cannot be re-parsed fails attributably.
	if !j.deadline.IsZero() && now.After(j.deadline) {
		installTerminal(StateExpired, false,
			fmt.Errorf("deadline passed across restart: %w", ErrInterrupted))
		return replayInterrupted
	}
	cjob, err := r.reparseSpec(p)
	if err != nil {
		installTerminal(StateFailed, false, fmt.Errorf("%w: %v", ErrInterrupted, err))
		return replayInterrupted
	}
	j.cjob = cjob
	j.state = StateQueued
	j.started = time.Time{} // restarting: the old start time is void
	r.jobs[j.id] = j
	heap.Push(&r.queue, j)
	r.ownerDeltaLocked(j.owner, +1, 0)
	return replayRequeued
}

// reparseSpec rebuilds a runnable CompileJob from a persisted spec.
func (r *Registry) reparseSpec(p persistedJob) (thermflow.CompileJob, error) {
	if len(p.Spec) == 0 {
		return thermflow.CompileJob{}, fmt.Errorf("no spec recorded")
	}
	var spec thermflow.JobSpec
	if err := json.Unmarshal(p.Spec, &spec); err != nil {
		return thermflow.CompileJob{}, fmt.Errorf("spec unreadable: %v", err)
	}
	return spec.CompileJob()
}
