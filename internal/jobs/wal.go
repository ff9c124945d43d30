package jobs

import (
	"cmp"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"thermflow"
	"thermflow/internal/joblog"
)

// This file is the registry's durability layer: a log of work, not of
// lifecycles. A job's ID hashes its spec and its answer is a
// deterministic function of that spec, so the only record the registry
// writes is the submit: the spec, its scheduling hints and its
// submit time. What is done is what the engine's answer store holds
// under the job's ID. New replays the log by one rule: a job whose
// answer is in the store comes back done, every other job runs again,
// and only a job that cannot (its deadline passed, or its spec no
// longer parses) comes back terminal, with ErrInterrupted.
//
// Durability: a submit record is appended before the submit is
// answered, and it reaches stable storage before the job shows done
// (run syncs the log between storing the answer and finishing the
// job). So a process kill loses no accepted job, and a power loss loses
// at most the jobs not yet done among the last unsynced fsync batch.

// recSubmit is the one WAL record type: a job entered the registry
// (payload: persistedJob). An earlier release also wrote start (2) and
// finish (3) records; replay skips them.
const recSubmit uint32 = 1

// compactMin is the fewest records appended since the last snapshot
// that trigger a compaction; the count must also reach the number of
// retained jobs, which the snapshot rewrites, so compaction costs O(1)
// per submit, amortized.
const compactMin = 512

// ErrInterrupted marks a job that could not be carried across a
// backend restart: its deadline passed, or its logged spec no longer
// parses. Jobs that can re-run simply re-enter the queue instead.
var ErrInterrupted = errors.New("jobs: interrupted by backend restart")

// persistedJob is the wire form of one submit, in a WAL record and in
// the snapshot alike. Fields an earlier release also wrote (state,
// cached, error, start and finish times) are ignored on replay.
type persistedJob struct {
	ID          string          `json:"id"`
	Spec        json.RawMessage `json:"spec,omitempty"` // thermflow.JobSpec wire form
	Priority    int             `json:"priority,omitempty"`
	Owner       string          `json:"owner,omitempty"`
	Class       string          `json:"class,omitempty"`
	MaxRun      int             `json:"max_run,omitempty"`
	DeadlineNS  int64           `json:"deadline_ns,omitempty"`
	SubmittedNS int64           `json:"submitted_ns,omitempty"`
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

// persistLocked renders a job's submit record.
func persistLocked(j *job) persistedJob {
	return persistedJob{
		ID: j.id, Spec: j.specJSON, Priority: j.priority,
		Owner: j.owner, Class: j.class, MaxRun: j.maxRun,
		DeadlineNS:  unixNS(j.deadline),
		SubmittedNS: unixNS(j.submitted),
	}
}

// logSubmitLocked appends j's submit record, then compacts once the
// records since the last snapshot reach both compactMin and the
// retained jobs. Failures are logged, never fatal: a broken disk
// degrades durability, not availability.
func (r *Registry) logSubmitLocked(j *job) {
	if r.log == nil {
		return
	}
	payload, err := json.Marshal(persistLocked(j))
	if err == nil {
		err = r.log.Append(recSubmit, payload)
	}
	if err != nil {
		log.Printf("jobs: wal append: %v", err)
		return
	}
	if n := r.log.Records(); n >= compactMin && n >= len(r.jobs) {
		r.snapshotLocked()
	}
}

// snapshotLocked writes the submit record of every retained job as the
// log's snapshot and truncates the WAL. Done jobs stay in it: the disk
// tier does not fsync answers, so after a power loss a done job's
// submit record is what runs it again.
func (r *Registry) snapshotLocked() {
	if r.log == nil {
		return
	}
	jobs := make([]persistedJob, 0, len(r.jobs))
	for _, j := range r.jobs {
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

// replayLocked rebuilds the registry from a recovery: the snapshot's
// submit records, then the WAL's, the last one of an ID winning.
// Called by New before the registry is shared; r.mu is held for the
// dispatch it ends with.
func (r *Registry) replayLocked(rec joblog.Recovery) {
	var submits []persistedJob
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &submits); err != nil {
			log.Printf("jobs: wal snapshot unreadable, replaying records only: %v", err)
			submits = nil
		}
	}
	for _, wr := range rec.Records {
		var p persistedJob
		if wr.Type != recSubmit || json.Unmarshal(wr.Payload, &p) != nil {
			continue // an earlier release's start or finish record, or a bad one
		}
		submits = append(submits, p)
	}
	last := make(map[string]int, len(submits))
	for i, p := range submits {
		if p.ID != "" {
			last[p.ID] = i
		}
	}
	order := make([]int, 0, len(last))
	for _, i := range last {
		order = append(order, i)
	}
	// Submission order, log order within a tie: the queue keeps its
	// FIFO, and retention, which dates a replayed terminal job from its
	// submission, prunes oldest first.
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(submits[a].SubmittedNS, submits[b].SubmittedNS), cmp.Compare(a, b))
	})

	now := r.clock()
	var done, requeued, interrupted int
	for _, i := range order {
		switch r.materializeLocked(submits[i], now) {
		case StateDone:
			done++
		case StateQueued:
			requeued++
		default:
			interrupted++
		}
	}
	if len(order) > 0 {
		log.Printf("jobs: replayed %d jobs from log (%d done, %d requeued, %d interrupted)",
			len(order), done, requeued, interrupted)
	}
	if rec.DroppedBytes > 0 || rec.DroppedSnapshot {
		log.Printf("jobs: wal recovery dropped %d torn bytes (snapshot dropped: %v)",
			rec.DroppedBytes, rec.DroppedSnapshot)
	}
	// Compact: the replayed jobs still retained become the new
	// snapshot, so restarts do not re-pay ever-longer replays.
	r.pruneLocked(now)
	r.snapshotLocked()
	r.dispatchLocked()
}

// materializeLocked installs one replayed job and returns the state it
// entered. A job whose answer is in the store is done and cached; one
// whose deadline passed expires and one whose spec no longer parses
// fails, both with ErrInterrupted; every other job is queued, so a job
// that failed, expired or was cancelled by a shutdown runs again. A
// job installed terminal is dated from its submission, so a restart
// never extends its retention.
func (r *Registry) materializeLocked(p persistedJob, now time.Time) State {
	j := &job{
		id: p.ID, priority: p.Priority, specJSON: p.Spec,
		owner: p.Owner, class: p.Class, maxRun: p.MaxRun,
		deadline:  fromUnixNS(p.DeadlineNS),
		submitted: fromUnixNS(p.SubmittedNS),
		done:      make(chan struct{}), qidx: -1,
	}
	if j.submitted.IsZero() {
		j.submitted = now
	}
	r.seq++
	j.seq = r.seq
	r.jobs[j.id] = j

	terminal := func(state State, err error) State {
		j.state = state
		j.err = err
		j.finished = j.submitted
		r.terminal = append(r.terminal, j)
		close(j.done)
		return state
	}
	if v, ok := r.eng.Store().Get(j.id); ok {
		if a, ok := v.(*thermflow.Answer); ok {
			j.answer = a
			j.cached = true
			return terminal(StateDone, nil)
		}
	}
	if !j.deadline.IsZero() && now.After(j.deadline) {
		return terminal(StateExpired, fmt.Errorf("deadline passed across restart: %w", ErrInterrupted))
	}
	cjob, err := reparseSpec(p.Spec)
	if err != nil {
		return terminal(StateFailed, fmt.Errorf("%w: %v", ErrInterrupted, err))
	}
	j.cjob = cjob
	j.state = StateQueued
	heap.Push(&r.queue, j)
	r.ownerDeltaLocked(j.owner, +1, 0)
	return StateQueued
}

// reparseSpec rebuilds a runnable CompileJob from a logged spec.
func reparseSpec(raw json.RawMessage) (thermflow.CompileJob, error) {
	if len(raw) == 0 {
		return thermflow.CompileJob{}, fmt.Errorf("no spec recorded")
	}
	var spec thermflow.JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return thermflow.CompileJob{}, fmt.Errorf("spec unreadable: %v", err)
	}
	return spec.CompileJob()
}
