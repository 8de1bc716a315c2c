// Package service is the zenspecd robustness layer: a durable, crash-safe
// job queue over the experiment harness. Suite jobs are journaled to a
// write-ahead log at submission, split into shards — one experiment, or one
// trial range [lo, hi) of a rangeable experiment — and executed by lease-pull
// workers (the daemon's in-process pool and remote zenspec-worker processes
// are the same consumer). Per-shard PartialReport fragments are persisted
// idempotently as they complete. A daemon killed at any point replays the
// journal on the next Open and resumes exactly the shards that had not
// completed; because every trial is deterministic in (seed, experiment,
// trial), the resumed job's merged StableJSON is byte-identical to an
// uninterrupted run's at any shard split and any worker count.
package service

import (
	"fmt"
	"time"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
)

// JobSpec is what a client submits: the same knobs cmd/experiments takes on
// its command line, plus service-side scheduling parameters.
type JobSpec struct {
	// Seed is the experiment seed; with Quick and Only it fully determines
	// every shard's Report.
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick,omitempty"`
	// Only selects experiment IDs (nil means the whole registry), resolved
	// against the registry at submission and journaled explicitly so a replay
	// does not depend on the registry staying unchanged.
	Only []string `json:"only,omitempty"`
	// Faults is a fault-plan spec in fault.Parse syntax ("", "none", "mild",
	// "default", "harsh", or inline JSON).
	Faults string `json:"faults,omitempty"`
	// Metrics and Profile request the per-experiment micro/profile sections,
	// exactly like the cmd/experiments flags.
	Metrics bool `json:"metrics,omitempty"`
	Profile bool `json:"profile,omitempty"`
	// Split asks the daemon to cut each rangeable experiment into up to this
	// many trial-range shards, so several workers (or machines) drain one
	// experiment concurrently. 0 or 1 keeps whole-experiment shards;
	// experiments without a range decomposition always stay whole. The merged
	// report is byte-identical at any Split.
	Split int `json:"split,omitempty"`
	// Priority orders the queue: higher-priority jobs' shards are leased
	// first; ties go to submission order.
	Priority int `json:"priority,omitempty"`
	// Deadline bounds one shard attempt's wall clock (nanoseconds in JSON).
	// An overrunning attempt is cooperatively cancelled and retried with
	// deterministic backoff, up to Retries times; exhausting the budget fails
	// the shard. Zero means unbounded.
	Deadline time.Duration `json:"deadline,omitempty"`
	// Retries is the per-shard retry budget for deadline overruns.
	Retries int `json:"retries,omitempty"`
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Shard states.
const (
	ShardPending = "pending"
	ShardRunning = "running"
	ShardDone    = "done"
	ShardFailed  = "failed"
)

// ShardRef names one unit of leased work: an experiment, or the trial range
// [Lo, Hi) of one. Lo == Hi == 0 means the whole experiment (the harness's
// whole-shard convention).
type ShardRef struct {
	Exp string `json:"exp"`
	Lo  int    `json:"lo,omitempty"`
	Hi  int    `json:"hi,omitempty"`
}

// Whole reports whether the ref names the whole experiment.
func (r ShardRef) Whole() bool { return r.Lo == 0 && r.Hi == 0 }

// ID renders the shard's stable identifier: the bare experiment ID for a
// whole-experiment shard, "exp[lo:hi]" for a trial range.
func (r ShardRef) ID() string {
	if r.Whole() {
		return r.Exp
	}
	return fmt.Sprintf("%s[%d:%d]", r.Exp, r.Lo, r.Hi)
}

// shard is the in-memory execution state of one unit of a job. Lease and
// attempt bookkeeping is volatile by design: a crash loses leases, and replay
// simply re-queues every unresolved shard.
type shard struct {
	def     ShardRef
	id      string // def.ID(), precomputed
	state   string
	attempt int // deadline-overrun retries consumed
	lease   string
	// notBefore delays re-leasing after a retry: the deterministic backoff
	// window.
	notBefore   time.Time
	trialsDone  int
	trialsTotal int
	err         string
	// wallMS is the completed shard's host wall clock, lifted from its
	// journaled PartialReport — the raw material of the per-experiment timing
	// distributions a split-factor scheduler consumes. Host-dependent, so it
	// never feeds the merged report.
	wallMS float64
	// enqueuedAt is when the shard last became pending (submission, retry,
	// revocation — or journal replay, where the reopen moment is the truthful
	// start of its wait); it feeds the queue-wait observability only.
	enqueuedAt time.Time
}

// job is one submitted suite with its shard table.
type job struct {
	id  string
	seq int // submission order, the priority tiebreak
	// trace is the job's observability correlation ID (journaled with the
	// submit record; empty when the job was submitted without observability).
	trace  string
	spec   JobSpec
	plan   fault.Plan
	state  string
	err    string
	exps   []string // experiment order = registry selection order at submit time
	order  []string // shard IDs in lease order
	shards map[string]*shard
	// partials holds completed shard fragments, keyed by shard ID; the
	// coordinator assembles them commutatively (MergeTrialRanges per
	// experiment, then Assemble) into the SuiteReport.
	partials map[string]*harness.PartialReport
	// merged memoizes fully-assembled per-experiment reports. A done shard's
	// partial never changes (first completion wins), so once every shard of
	// an experiment resolved done its merged report is final.
	merged map[string]harness.Report
}

func (j *job) active() bool { return j.state == JobQueued || j.state == JobRunning }

func (j *job) nextPending(now time.Time) *shard {
	for _, id := range j.order {
		if s := j.shards[id]; s.state == ShardPending && !now.Before(s.notBefore) {
			return s
		}
	}
	return nil
}

func (j *job) counts() (done, failed, total int) {
	for _, s := range j.shards {
		switch s.state {
		case ShardDone:
			done++
		case ShardFailed:
			failed++
		}
	}
	return done, failed, len(j.shards)
}

// expComplete reports whether every shard of the experiment resolved done.
func (j *job) expComplete(exp string) bool {
	any := false
	for _, id := range j.order {
		if s := j.shards[id]; s.def.Exp == exp {
			any = true
			if s.state != ShardDone {
				return false
			}
		}
	}
	return any
}

// finalize moves the job to its terminal state once every shard resolved.
func (j *job) finalize() {
	done, failed, total := j.counts()
	if done+failed < total {
		return
	}
	if failed > 0 {
		j.state = JobFailed
		if j.err == "" {
			for _, id := range j.order {
				if s := j.shards[id]; s.state == ShardFailed {
					j.err = fmt.Sprintf("shard %s: %s", s.id, s.err)
					break
				}
			}
		}
		return
	}
	j.state = JobDone
}

// ShardStatus is the public per-shard view.
type ShardStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	// TrialsDone/TrialsTotal stream the running shard's trial-loop progress
	// (zero for experiments that do not report it).
	TrialsDone  int    `json:"trials_done,omitempty"`
	TrialsTotal int    `json:"trials_total,omitempty"`
	Error       string `json:"error,omitempty"`
	// WallMS is the done shard's host wall clock (from its journaled
	// fragment). Host-dependent: present in status views only, never in the
	// merged report's StableJSON.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// ExpTiming summarizes one experiment's completed-shard wall-clock
// distribution within a job — the observed-timing surface a split-factor
// scheduler reads back to size the next submission's Split.
type ExpTiming struct {
	Shards  int     `json:"shards"`
	TotalMS float64 `json:"total_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// JobStatus is the public job view served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Trace is the job's observability correlation ID; its stitched Perfetto
	// trace is served at GET /v1/jobs/{id}/trace while the daemon holds it.
	Trace  string        `json:"trace,omitempty"`
	Done   int           `json:"done"`
	Failed int           `json:"failed,omitempty"`
	Total  int           `json:"total"`
	Shards []ShardStatus `json:"shards"`
	// Timings is the per-experiment wall-clock distribution over completed
	// shards, persisted via the journaled shard fragments (it survives
	// restarts) and keyed by experiment ID.
	Timings map[string]ExpTiming `json:"timings,omitempty"`
	Error   string               `json:"error,omitempty"`
}

func (j *job) status() JobStatus {
	done, failed, total := j.counts()
	st := JobStatus{
		ID: j.id, State: j.state, Spec: j.spec, Trace: j.trace,
		Done: done, Failed: failed, Total: total, Error: j.err,
	}
	for _, id := range j.order {
		s := j.shards[id]
		st.Shards = append(st.Shards, ShardStatus{
			ID: s.id, State: s.state, Attempt: s.attempt,
			TrialsDone: s.trialsDone, TrialsTotal: s.trialsTotal, Error: s.err,
			WallMS: s.wallMS,
		})
		if s.state == ShardDone {
			if st.Timings == nil {
				st.Timings = map[string]ExpTiming{}
			}
			t := st.Timings[s.def.Exp]
			if t.Shards == 0 || s.wallMS < t.MinMS {
				t.MinMS = s.wallMS
			}
			if s.wallMS > t.MaxMS {
				t.MaxMS = s.wallMS
			}
			t.Shards++
			t.TotalMS += s.wallMS
			t.MeanMS = t.TotalMS / float64(t.Shards)
			st.Timings[s.def.Exp] = t
		}
	}
	return st
}

// Terminal reports whether the job reached a final state.
func (s JobStatus) Terminal() bool { return s.State == JobDone || s.State == JobFailed }

// jobTable is the replayable state: everything in it is a pure fold of the
// journal records, so replaying a journal reconstructs it exactly. apply is
// idempotent — duplicate records (possible when a crash lands between a
// record's fsync and the next state read, or when a compaction snapshot
// replays after the history it summarizes) are no-ops.
type jobTable struct {
	jobs  map[string]*job
	order []string
	seq   int
}

func newJobTable() *jobTable {
	return &jobTable{jobs: map[string]*job{}}
}

// apply folds one journal record into the table. Unknown job or shard
// references (a journal from a newer layout, or records orphaned by manual
// edits) are skipped rather than fatal: the journal heals forward.
func (t *jobTable) apply(rec record) {
	switch rec.Type {
	case recSubmit:
		if rec.Spec == nil || rec.Job == "" {
			return
		}
		if _, dup := t.jobs[rec.Job]; dup {
			return
		}
		t.seq++
		j := &job{
			id: rec.Job, seq: t.seq, trace: rec.Trace, spec: *rec.Spec, state: JobQueued,
			shards:   map[string]*shard{},
			partials: map[string]*harness.PartialReport{},
			merged:   map[string]harness.Report{},
		}
		now := time.Now() // volatile queue-wait origin, not replayed state
		seenExp := map[string]bool{}
		for _, def := range rec.Defs {
			id := def.ID()
			if _, dup := j.shards[id]; dup {
				continue
			}
			j.shards[id] = &shard{def: def, id: id, state: ShardPending, enqueuedAt: now}
			j.order = append(j.order, id)
			if !seenExp[def.Exp] {
				seenExp[def.Exp] = true
				j.exps = append(j.exps, def.Exp)
			}
		}
		if plan, err := fault.Parse(j.spec.Faults); err != nil {
			j.state = JobFailed
			j.err = err.Error()
		} else {
			j.plan = plan
		}
		if len(j.shards) == 0 && j.state == JobQueued {
			j.state = JobDone
		}
		t.jobs[rec.Job] = j
		t.order = append(t.order, rec.Job)
	case recShardDone:
		j := t.jobs[rec.Job]
		p := rec.Partial
		if j == nil || p == nil {
			return
		}
		s := j.shards[rec.Shard]
		if s == nil || s.state == ShardDone || s.state == ShardFailed {
			return // idempotent: the first completion wins
		}
		s.state = ShardDone
		s.lease = ""
		s.wallMS = p.WallMS
		j.partials[rec.Shard] = p
		if j.state == JobQueued {
			j.state = JobRunning
		}
		j.finalize()
	case recShardFailed:
		j := t.jobs[rec.Job]
		if j == nil {
			return
		}
		s := j.shards[rec.Shard]
		if s == nil || s.state == ShardDone || s.state == ShardFailed {
			return
		}
		s.state = ShardFailed
		s.lease = ""
		s.err = rec.Error
		if j.state == JobQueued {
			j.state = JobRunning
		}
		j.finalize()
	case recJobDone:
		if j := t.jobs[rec.Job]; j != nil && j.active() {
			j.state = JobDone
		}
	case recJobFailed:
		if j := t.jobs[rec.Job]; j != nil && j.active() {
			j.state = JobFailed
			if j.err == "" {
				j.err = rec.Error
			}
		}
	case recJobArchive:
		j := t.jobs[rec.Job]
		if j == nil || j.active() {
			return // never archive live work
		}
		delete(t.jobs, rec.Job)
		for i, id := range t.order {
			if id == rec.Job {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
}

// records renders the table back into a minimal equivalent journal — the
// snapshot a compaction or clean-shutdown checkpoint writes. Archived jobs
// are simply absent.
func (t *jobTable) records() []record {
	var out []record
	for _, id := range t.order {
		j := t.jobs[id]
		spec := j.spec
		defs := make([]ShardRef, 0, len(j.order))
		for _, sid := range j.order {
			defs = append(defs, j.shards[sid].def)
		}
		out = append(out, record{Type: recSubmit, Job: j.id, Trace: j.trace, Spec: &spec, Defs: defs})
		for _, sid := range j.order {
			s := j.shards[sid]
			switch s.state {
			case ShardDone:
				out = append(out, record{Type: recShardDone, Job: j.id, Shard: sid, Partial: j.partials[sid]})
			case ShardFailed:
				out = append(out, record{Type: recShardFailed, Job: j.id, Shard: sid, Error: s.err})
			}
		}
		switch j.state {
		case JobDone:
			out = append(out, record{Type: recJobDone, Job: j.id})
		case JobFailed:
			out = append(out, record{Type: recJobFailed, Job: j.id, Error: j.err})
		}
	}
	return out
}
