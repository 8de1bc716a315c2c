package service

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/kernel"
	"zenspec/internal/pipeline"
	"zenspec/internal/prof"
	"zenspec/internal/svcobs"
)

// APIVersion is the daemon's wire protocol version, served by GET /v1/meta
// and asserted by Client before its first real request.
const APIVersion = "v1"

// defaultKeepJobs bounds how many terminal (done or failed) jobs the daemon
// retains before archiving the oldest; see Config.KeepJobs.
const defaultKeepJobs = 256

// Config configures a Daemon.
type Config struct {
	// Dir is the daemon's durable state directory (created if absent); the
	// journal lives under it as wal-*.seg segments guarded by wal.lock.
	Dir string
	// Registry supplies the experiments; nil panics — callers pass
	// suite.Registry() (cmd/zenspecd does) or a test registry.
	Registry *harness.Registry
	// Workers is the in-process shard worker pool size; 0 runs no workers (a
	// queue-only daemon whose shards are drained entirely by remote
	// zenspec-worker processes, or by tests driving leases by hand).
	Workers int
	// Parallelism is each shard's inner trial-loop parallelism (the
	// kernel.Config knob); 0 means 1, keeping worker count and machine count
	// aligned. Results are byte-identical at any value.
	Parallelism int
	// Lease is the shard lease TTL; a lease not heartbeaten within it is
	// revoked and its shard re-queued. 0 means 5s.
	Lease time.Duration
	// Backoff and MaxBackoff shape the deterministic retry delay after a
	// deadline overrun; defaults 100ms and 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// SegmentBytes is the journal segment size limit — an append pushing the
	// active segment past it seals the segment and starts a new one, and the
	// daemon compacts once enough segments pile up. 0 means 4MiB.
	SegmentBytes int64
	// KeepJobs bounds how many terminal jobs the daemon retains: beyond it the
	// oldest terminal jobs are archived (journaled, then dropped at the next
	// compaction), so a long-lived daemon's state stays bounded. 0 means 256;
	// negative keeps everything.
	KeepJobs int
	// Obs is the service observability hub: job-lifecycle traces, the
	// zenspec_service_* metrics on /metrics, and the daemon's structured log.
	// Nil disables all three (every emission site is nil-safe). Observability
	// is strictly off the report path: job StableJSON is byte-identical with
	// Obs set or nil.
	Obs *svcobs.Hub
}

// Lease is one granted unit of work: run the shard — RunTrialRange(Shard.Exp,
// Shard.Lo, Shard.Hi) under the spec's configuration — heartbeat the token
// before TTL elapses, and Complete with the resulting PartialReport. The
// same struct serves the in-process pool and the remote /v1/leases wire.
type Lease struct {
	Token string        `json:"token"`
	Job   string        `json:"job"`
	Shard ShardRef      `json:"shard"`
	Spec  JobSpec       `json:"spec"`
	TTL   time.Duration `json:"ttl"`
	// Trace is the job's observability correlation ID: the worker tags its
	// log records and attempt spans with it, so a remote attempt stitches
	// into the daemon's trace. Empty when the job predates tracing.
	Trace string `json:"trace,omitempty"`
	// Attempt numbers this lease's shard attempt (1-based).
	Attempt int `json:"attempt,omitempty"`
	// cancel is the daemon-side revocation flag, wired in-process only; remote
	// workers learn of revocation from Heartbeat returning ErrLeaseNotFound.
	cancel *atomic.Bool
}

// leaseInfo is the daemon's ledger entry for one outstanding lease. The
// cancel flag is shared with the in-process worker's pipeline.Config.Stop, so
// revoking a lease actually stops the simulation rather than orphaning it.
type leaseInfo struct {
	token  string
	worker string
	jobID  string
	shard  string
	expiry time.Time
	cancel *atomic.Bool
	// Observability bookkeeping: the job's trace, the shard's experiment and
	// attempt number, the grant time (lease round-trip = grant to first
	// heartbeat), and whether that first heartbeat arrived.
	trace        string
	exp          string
	attempt      int
	grantedAt    time.Time
	sawHeartbeat bool
}

// Meta is the daemon's self-description, served by GET /v1/meta.
type Meta struct {
	APIVersion  string   `json:"api_version"`
	GoVersion   string   `json:"go_version"`
	Revision    string   `json:"revision,omitempty"`
	Experiments []string `json:"experiments"`
}

// Daemon is the zenspecd core: the journaled job table, the lease ledger and
// the in-process worker pool (itself just a lease consumer, interchangeable
// with remote zenspec-worker processes). All public methods are safe for
// concurrent use.
type Daemon struct {
	cfg Config
	reg *harness.Registry
	tel *prof.Telemetry
	obs *svcobs.Hub  // nil when observability is off; all uses are nil-safe
	log *slog.Logger // never nil (discard logger when obs is off)
	// epoch is this daemon incarnation's token prefix: a token minted before a
	// crash can never collide with a successor's, so a worker completing
	// against a restarted daemon gets ErrLeaseNotFound, not silent corruption.
	epoch int64

	mu       sync.Mutex
	cond     *sync.Cond
	jnl      *journal
	tab      *jobTable
	leases   map[string]*leaseInfo
	nextID   int
	nextTok  int64
	draining bool
	killed   bool
	closed   bool

	stop    chan struct{}
	workers sync.WaitGroup
	monitor sync.WaitGroup
}

// Open replays the journal under cfg.Dir (healing a corrupt tail), resumes
// every unfinished job at shard granularity, and starts the worker pool.
func Open(cfg Config) (*Daemon, error) {
	if cfg.Registry == nil {
		panic("service: Config.Registry is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 5 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	jnl, recs, err := openJournal(cfg.Dir, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	tab := newJobTable()
	for _, rec := range recs {
		tab.apply(rec)
	}
	d := &Daemon{
		cfg:    cfg,
		reg:    cfg.Registry,
		tel:    prof.NewTelemetry(),
		obs:    cfg.Obs,
		log:    cfg.Obs.Logger(),
		epoch:  time.Now().UnixNano(),
		jnl:    jnl,
		tab:    tab,
		leases: map[string]*leaseInfo{},
		nextID: len(tab.order) + tab.seq,
		stop:   make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	d.initObs()
	d.tel.RegisterGauge("service_queue_depth", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		n := 0
		for _, id := range d.tab.order {
			j := d.tab.jobs[id]
			if !j.active() {
				continue
			}
			for _, s := range j.shards {
				if s.state == ShardPending {
					n++
				}
			}
		}
		return float64(n)
	})
	d.tel.RegisterGauge("service_leases_active", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.leases))
	})
	d.tel.RegisterGauge("service_jobs_active", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		n := 0
		for _, j := range d.tab.jobs {
			if j.active() {
				n++
			}
		}
		return float64(n)
	})
	d.mu.Lock()
	d.gcLocked()
	d.mu.Unlock()
	d.publishProgress()
	d.monitor.Add(1)
	go d.monitorLoop()
	for i := 0; i < cfg.Workers; i++ {
		w := NewWorker(d, WorkerConfig{
			Name:        fmt.Sprintf("local-%d", i+1),
			Registry:    cfg.Registry,
			Parallelism: cfg.Parallelism,
			Poll:        time.Hour,
			Heartbeat:   cfg.Lease / 3,
			ExitOnDrain: true,
		})
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			w.Run(context.Background())
		}()
	}
	return d, nil
}

// initObs wires the observability plane: metric descriptions and volatility
// marks, the zenspec_service_* collector on the telemetry /metrics endpoint,
// and the journal's timing hooks. Every emission is nil-safe, so a daemon
// opened without Config.Obs pays one nil check per event and nothing else.
func (d *Daemon) initObs() {
	m := d.obs.Metrics()
	m.Describe("jobs_submitted_total", "Jobs accepted by Submit.")
	m.Describe("jobs_completed_total", "Jobs that finalized done.")
	m.Describe("jobs_failed_total", "Jobs that finalized failed.")
	m.Describe("jobs_archived_total", "Terminal jobs archived past the retention bound.")
	m.Describe("shards_completed_total", "Shard attempts that completed with a report, by experiment.")
	m.Describe("shards_retried_total", "Shard attempts requeued after a deadline overrun, by experiment.")
	m.Describe("shards_failed_total", "Shards that resolved failed, by experiment.")
	m.Describe("shards_abandoned_total", "Running shards requeued by a lease revocation, by experiment.")
	m.Describe("leases_granted_total", "Shard leases handed out.")
	m.Describe("lease_revocations_total", "Leases revoked after missing heartbeats.")
	m.Describe("journal_rotations_total", "Journal segment seals.")
	m.Describe("journal_checkpoints_total", "Journal compactions.")
	m.Describe("readyz_draining_total", "Readiness probes answered 503 while draining.")
	m.Describe("watch_requests_total", "NDJSON watch streams served.")
	m.Describe("shard_wall_ms", "Completed shard wall clock in ms, by experiment.")
	m.Describe("queue_wait_ms", "Shard wait from enqueue to lease grant in ms.")
	m.Describe("lease_rtt_ms", "Lease grant to first heartbeat in ms.")
	m.Describe("fsync_ms", "Journal record write+fsync latency in ms.")
	m.Describe("checkpoint_ms", "Journal compaction latency in ms.")
	m.Describe("watch_fanout", "Status snapshots emitted per watch stream.")
	// Host-timing-shaped series: their very observation counts depend on
	// heartbeat races, segment boundaries and probe cadence, so they are
	// excluded from the deterministic StableSnapshot the cross-worker
	// identity tests compare.
	m.MarkVolatile("lease_rtt_ms", "fsync_ms", "checkpoint_ms",
		"journal_rotations_total", "journal_checkpoints_total",
		"readyz_draining_total", "watch_requests_total", "watch_fanout")
	d.tel.RegisterCollector("service", m.WritePrometheus)

	// Journal hooks run under d.mu (every append does); a submit record's
	// job is not in the table yet, so prefer the record's own trace.
	d.jnl.onAppend = func(rec *record, dur time.Duration) {
		m.Observe("fsync_ms", float64(dur.Microseconds())/1000)
		trace := rec.Trace
		if trace == "" && rec.Job != "" {
			if j := d.tab.jobs[rec.Job]; j != nil {
				trace = j.trace
			}
		}
		if trace != "" {
			d.obs.Traces().Span(trace, svcobs.ActorDaemon, "journal", "fsync "+rec.Type,
				time.Now().Add(-dur), dur, nil)
		}
	}
	d.jnl.onRotate = func(seq int) {
		m.Inc("journal_rotations_total", 1)
		d.log.Info("journal segment rotated", "segment", seq)
	}
	d.jnl.onCheckpoint = func(recs int, dur time.Duration) {
		m.Inc("journal_checkpoints_total", 1)
		m.Observe("checkpoint_ms", float64(dur.Microseconds())/1000)
		d.log.Info("journal checkpointed", "records", recs, "ms", dur.Milliseconds())
	}
}

// spanX records one completed daemon-actor span on the job's trace.
func (d *Daemon) spanX(trace, track, name string, start time.Time, args map[string]any) {
	d.obs.Traces().Span(trace, svcobs.ActorDaemon, track, name, start, time.Since(start), args)
}

// Obs returns the daemon's observability hub (nil when disabled).
func (d *Daemon) Obs() *svcobs.Hub { return d.obs }

// TracePerfetto renders the job's stitched daemon+worker trace as Chrome
// trace-event JSON (GET /v1/jobs/{id}/trace). Jobs without a trace — tracing
// disabled at submission or now, or a trace already evicted — return an error.
func (d *Daemon) TracePerfetto(id string) ([]byte, error) {
	d.mu.Lock()
	j := d.tab.jobs[id]
	if j == nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrJobNotFound, id)
	}
	trace := j.trace
	d.mu.Unlock()
	if d.obs == nil || trace == "" {
		return nil, fmt.Errorf("service: job %q has no trace (observability disabled?)", id)
	}
	return d.obs.Traces().Perfetto(trace)
}

// Telemetry returns the daemon's telemetry hub (queue gauges pre-registered)
// for mounting on the service mux.
func (d *Daemon) Telemetry() *prof.Telemetry { return d.tel }

// Meta describes this daemon: API version, build, and the experiments its
// registry can run.
func (d *Daemon) Meta() Meta {
	m := Meta{APIVersion: APIVersion, GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Revision = s.Value
			}
		}
	}
	for _, e := range d.reg.All() {
		m.Experiments = append(m.Experiments, e.ID)
	}
	return m
}

// shardRunCtx lowers a job spec onto the harness context one shard runs with.
// The pipeline SQSize mirrors the facade's default so service reports are
// byte-identical to cmd/experiments runs of the same spec; parallelism only
// changes wall clock, never bytes.
func shardRunCtx(spec JobSpec, plan fault.Plan, parallelism int) harness.Ctx {
	if parallelism <= 0 {
		parallelism = 1
	}
	return harness.Ctx{
		Config: kernel.Config{
			Seed:        spec.Seed,
			Faults:      plan,
			Parallelism: parallelism,
			Pipeline:    pipeline.Config{SQSize: 48},
		},
		Quick:   spec.Quick,
		Metrics: spec.Metrics,
		Profile: spec.Profile,
	}
}

// Submit validates the spec against the live registry, cuts it into shards
// (trial ranges when the spec asks for a split and the experiment is
// rangeable), journals the job, and queues it. The returned ID is stable
// across restarts.
func (d *Daemon) Submit(spec JobSpec) (string, error) {
	exps, err := d.reg.Select(spec.Only, "")
	if err != nil {
		return "", err // wraps harness.ErrUnknownExperiment
	}
	plan, err := fault.Parse(spec.Faults)
	if err != nil {
		return "", fmt.Errorf("service: faults: %w", err)
	}
	ctx := shardRunCtx(spec, plan, d.cfg.Parallelism)
	defs := make([]ShardRef, 0, len(exps))
	for _, e := range exps {
		if spec.Split > 1 {
			if n, err := d.reg.Trials(ctx, e.ID); err == nil && n >= 2 {
				k := spec.Split
				if k > n {
					k = n
				}
				for i := 0; i < k; i++ {
					defs = append(defs, ShardRef{Exp: e.ID, Lo: i * n / k, Hi: (i + 1) * n / k})
				}
				continue
			}
		}
		defs = append(defs, ShardRef{Exp: e.ID})
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining || d.killed || d.closed {
		return "", ErrDraining
	}
	d.nextID++
	id := fmt.Sprintf("job-%d", d.nextID)
	for d.tab.jobs[id] != nil {
		d.nextID++
		id = fmt.Sprintf("job-%d", d.nextID)
	}
	// The correlation ID is minted here and journaled with the job: it is
	// stable across restarts, unique across daemon incarnations (the epoch),
	// and carried in every lease so remote workers stitch into it.
	trace := ""
	if d.obs.Enabled() {
		trace = fmt.Sprintf("%s.%x", id, d.epoch)
	}
	rec := record{Type: recSubmit, Job: id, Trace: trace, Spec: &spec, Defs: defs}
	if err := d.jnl.append(rec); err != nil {
		return "", err
	}
	d.tab.apply(rec)
	d.obs.Metrics().Inc("jobs_submitted_total", 1)
	d.obs.Traces().Begin(trace, svcobs.ActorDaemon, "job", "job "+id,
		map[string]any{"job": id, "shards": len(defs), "split": spec.Split, "seed": spec.Seed})
	d.log.Info("job submitted", "job", id, "trace", trace,
		"shards", len(defs), "experiments", len(exps), "split", spec.Split)
	d.compactLocked()
	d.publishProgress()
	d.cond.Broadcast()
	return id, nil
}

// Status returns the public view of one job.
func (d *Daemon) Status(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.tab.jobs[id]
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w %q", ErrJobNotFound, id)
	}
	return j.status(), nil
}

// Jobs lists every known job in submission order.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.tab.order))
	for _, id := range d.tab.order {
		out = append(out, d.tab.jobs[id].status())
	}
	return out
}

// Report assembles the job's merged SuiteReport from its completed shard
// fragments — the same suite an uninterrupted Registry.Run would have
// produced once every shard is done, with skipped stubs for shards still
// outstanding (the partial-report view of a running or failed job).
// Per-experiment merges are memoized: a done shard's fragment never changes,
// so once every shard of an experiment resolved its merged report is final.
func (d *Daemon) Report(id string) (harness.SuiteReport, error) {
	d.mu.Lock()
	j := d.tab.jobs[id]
	if j == nil {
		d.mu.Unlock()
		return harness.SuiteReport{}, fmt.Errorf("%w %q", ErrJobNotFound, id)
	}
	spec, plan := j.spec, j.plan
	merged := make(map[string]harness.Report, len(j.exps))
	type pending struct {
		exp   string
		parts []harness.PartialReport
	}
	var todo []pending
	for _, exp := range j.exps {
		if r, ok := j.merged[exp]; ok {
			merged[exp] = r
			continue
		}
		if !j.expComplete(exp) {
			continue
		}
		var parts []harness.PartialReport
		for _, sid := range j.order {
			if s := j.shards[sid]; s.def.Exp == exp {
				if p := j.partials[sid]; p != nil {
					parts = append(parts, *p)
				}
			}
		}
		todo = append(todo, pending{exp: exp, parts: parts})
	}
	d.mu.Unlock()

	ctx := shardRunCtx(spec, plan, d.cfg.Parallelism)
	for _, p := range todo {
		r, err := d.reg.MergeTrialRanges(ctx, p.exp, p.parts)
		if err != nil {
			r = harness.Report{ID: p.exp, Status: harness.StatusFailed, Error: err.Error()}
		}
		merged[p.exp] = r
	}

	d.mu.Lock()
	if jj := d.tab.jobs[id]; jj != nil {
		for _, p := range todo {
			if _, ok := jj.merged[p.exp]; !ok {
				jj.merged[p.exp] = merged[p.exp]
			}
		}
	}
	d.mu.Unlock()
	return d.reg.Assemble(ctx, spec.Only, merged)
}

// Lease claims the next pending shard, blocking up to wait for one to become
// available. A nil Lease with a nil error means the wait elapsed with nothing
// to do (poll again); ErrDraining means the daemon is shutting down and will
// hand out no more work. worker names the claimant for bookkeeping only.
func (d *Daemon) Lease(worker string, wait time.Duration) (*Lease, error) {
	deadline := time.Now().Add(wait)
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.draining || d.killed || d.closed {
			return nil, ErrDraining
		}
		now := time.Now()
		if li := d.leaseLocked(now, worker); li != nil {
			j := d.tab.jobs[li.jobID]
			s := j.shards[li.shard]
			return &Lease{
				Token: li.token, Job: li.jobID, Shard: s.def,
				Spec: j.spec, TTL: d.cfg.Lease, cancel: li.cancel,
				Trace: li.trace, Attempt: li.attempt,
			}, nil
		}
		remaining := deadline.Sub(now)
		if remaining <= 0 {
			return nil, nil
		}
		// cond has no timed wait: arm a wakeup for the deadline (or the next
		// retry-backoff expiry, whichever the monitor notices first).
		t := time.AfterFunc(remaining, d.cond.Broadcast)
		d.cond.Wait()
		t.Stop()
	}
}

// leaseLocked leases the next pending shard of the best active job: highest
// priority first, then submission order. Shards inside their retry-backoff
// window are skipped.
func (d *Daemon) leaseLocked(now time.Time, worker string) *leaseInfo {
	var best *job
	var bestShard *shard
	for _, id := range d.tab.order {
		j := d.tab.jobs[id]
		if !j.active() {
			continue
		}
		s := j.nextPending(now)
		if s == nil {
			continue
		}
		if best == nil || j.spec.Priority > best.spec.Priority {
			best, bestShard = j, s
		}
	}
	if best == nil {
		return nil
	}
	d.nextTok++
	li := &leaseInfo{
		token:  fmt.Sprintf("t%x-%d", d.epoch, d.nextTok),
		worker: worker, jobID: best.id, shard: bestShard.id,
		expiry: now.Add(d.cfg.Lease), cancel: new(atomic.Bool),
		trace: best.trace, exp: bestShard.def.Exp,
		attempt: bestShard.attempt + 1, grantedAt: now,
	}
	bestShard.state = ShardRunning
	bestShard.lease = li.token
	if best.state == JobQueued {
		best.state = JobRunning
	}
	d.leases[li.token] = li
	d.obs.Metrics().Inc("leases_granted_total", 1)
	if !bestShard.enqueuedAt.IsZero() {
		wait := now.Sub(bestShard.enqueuedAt)
		d.obs.Metrics().Observe("queue_wait_ms", float64(wait.Microseconds())/1000)
		d.obs.Traces().Span(li.trace, svcobs.ActorDaemon, bestShard.id, "queue-wait",
			bestShard.enqueuedAt, wait, nil)
	}
	d.obs.Traces().Begin(li.trace, svcobs.ActorDaemon, bestShard.id, "lease",
		map[string]any{"token": li.token, "worker": worker, "attempt": li.attempt})
	d.log.Info("lease granted", "job", best.id, "shard", bestShard.id,
		"lease", li.token, "worker", worker, "attempt", li.attempt, "trace", li.trace)
	return li
}

// Heartbeat extends a live lease and records trial progress (when total > 0).
// ErrLeaseNotFound tells the worker its lease was revoked — another lease
// owns the shard now, and the worker must abandon its run. Heartbeats are
// honored while draining: in-flight shards finish under their leases.
func (d *Daemon) Heartbeat(token string, trialsDone, trialsTotal int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	li := d.leases[token]
	if li == nil {
		return ErrLeaseNotFound
	}
	li.expiry = time.Now().Add(d.cfg.Lease)
	if !li.sawHeartbeat {
		// Grant-to-first-heartbeat is the lease round-trip: scheduler lock,
		// wire, and worker startup, before any simulation work.
		li.sawHeartbeat = true
		d.obs.Metrics().Observe("lease_rtt_ms", float64(time.Since(li.grantedAt).Microseconds())/1000)
	}
	if j := d.tab.jobs[li.jobID]; j != nil {
		if s := j.shards[li.shard]; s != nil && s.lease == token && trialsTotal > 0 {
			s.trialsDone, s.trialsTotal = trialsDone, trialsTotal
		}
	}
	return nil
}

// Complete applies a finished shard attempt under its lease token: journal +
// state transition for a durable outcome, deterministic retry scheduling for
// a deadline overrun, ErrLeaseNotFound for tokens the daemon no longer holds
// (revoked, or minted by a crashed predecessor). The partial's shard
// coordinates are overridden from the lease's own definition, so a confused
// worker cannot mislabel a fragment. The completion's worker spans are
// stitched into the job's trace under its own correlation ID.
func (d *Daemon) Complete(token string, comp Completion) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	li := d.leases[token]
	if li == nil {
		return ErrLeaseNotFound
	}
	delete(d.leases, token)
	j := d.tab.jobs[li.jobID]
	if j == nil {
		return nil
	}
	s := j.shards[li.shard]
	if s == nil || s.lease != token || s.state != ShardRunning {
		return nil
	}
	if d.killed {
		return nil // crash simulation: the result dies with the process
	}
	if j.trace != "" && len(comp.Spans) > 0 {
		// The trace ID is authoritative daemon-side: a worker cannot file
		// spans under someone else's trace.
		for i := range comp.Spans {
			comp.Spans[i].Trace = j.trace
		}
		d.obs.Traces().Add(comp.Spans...)
	}
	p, errText, overrun := comp.Partial, comp.Error, comp.Overrun
	lg := d.log.With("job", j.id, "shard", s.id, "lease", token,
		"worker", li.worker, "attempt", li.attempt, "trace", j.trace)
	endLease := func(outcome string) {
		d.obs.Traces().End(j.trace, svcobs.ActorDaemon, s.id, "lease",
			map[string]any{"outcome": outcome})
	}
	switch {
	case overrun && s.attempt < j.spec.Retries:
		// Deadline overrun with retry budget left: back off deterministically
		// — the delay is a pure function of (seed, job/shard, attempt), so a
		// replayed schedule is reproducible. Checked before errText because a
		// cancelled ranged run surfaces its cancellation as an error too.
		b := fault.Backoff{
			Base: d.cfg.Backoff, Max: d.cfg.MaxBackoff,
			Seed: j.spec.Seed, Key: j.id + "/" + s.id,
		}
		delay := b.Delay(s.attempt)
		s.attempt++
		s.state = ShardPending
		s.lease = ""
		s.notBefore = time.Now().Add(delay)
		s.enqueuedAt = time.Now()
		endLease("retry")
		d.obs.Metrics().IncL("shards_retried_total", svcobs.Label("exp", s.def.Exp), 1)
		d.obs.Traces().Span(j.trace, svcobs.ActorDaemon, s.id, "backoff",
			time.Now(), delay, map[string]any{"attempt": s.attempt, "delay_ms": delay.Milliseconds()})
		lg.Warn("shard overran deadline, retrying", "delay_ms", delay.Milliseconds(),
			"retries_left", j.spec.Retries-s.attempt)
	case overrun:
		endLease("failed")
		d.obs.Metrics().IncL("shards_failed_total", svcobs.Label("exp", s.def.Exp), 1)
		lg.Error("shard failed", "error", "deadline overrun, retry budget exhausted")
		d.resolveLocked(j, s, record{
			Type: recShardFailed, Job: j.id, Shard: s.id,
			Error: fmt.Sprintf("%v after %d attempts", harness.ErrDeadline, s.attempt+1),
		})
	case errText != "":
		// Permanent infrastructure failure (e.g. the experiment was
		// deregistered between submit and replay): the shard fails with the
		// error's text, the job will finalize failed.
		endLease("failed")
		d.obs.Metrics().IncL("shards_failed_total", svcobs.Label("exp", s.def.Exp), 1)
		lg.Error("shard failed", "error", errText)
		d.resolveLocked(j, s, record{Type: recShardFailed, Job: j.id, Shard: s.id, Error: errText})
	case p == nil:
		endLease("failed")
		d.obs.Metrics().IncL("shards_failed_total", svcobs.Label("exp", s.def.Exp), 1)
		lg.Error("shard failed", "error", "shard completed without a report")
		d.resolveLocked(j, s, record{Type: recShardFailed, Job: j.id, Shard: s.id, Error: "shard completed without a report"})
	default:
		// A completed shard — including one whose Report says the experiment
		// failed its bands or panicked: direct suite runs include those
		// reports too, and byte-identity demands we keep them.
		pp := *p
		pp.Exp, pp.Lo, pp.Hi = s.def.Exp, s.def.Lo, s.def.Hi
		endLease("done")
		d.obs.Metrics().IncL("shards_completed_total", svcobs.Label("exp", s.def.Exp), 1)
		d.obs.Metrics().ObserveL("shard_wall_ms", svcobs.Label("exp", s.def.Exp), pp.WallMS)
		lg.Info("shard done", "wall_ms", int64(pp.WallMS))
		d.resolveLocked(j, s, record{Type: recShardDone, Job: j.id, Shard: s.id, Partial: &pp})
	}
	d.compactLocked()
	d.publishProgress()
	d.cond.Broadcast()
	return nil
}

// resolveLocked journals a terminal shard record, applies it, journals the
// job's own terminal record when the shard was the last one out, and archives
// old terminal jobs past the retention bound.
func (d *Daemon) resolveLocked(j *job, s *shard, rec record) {
	wasActive := j.active()
	if err := d.jnl.append(rec); err != nil {
		// A failed append means the outcome is not durable; leave the shard
		// pending so it reruns (deterministically identical) rather than
		// recording state the journal cannot replay.
		s.state = ShardPending
		s.lease = ""
		return
	}
	d.tab.apply(rec)
	if wasActive && !j.active() {
		term := record{Type: recJobDone, Job: j.id}
		if j.state == JobFailed {
			term = record{Type: recJobFailed, Job: j.id, Error: j.err}
		}
		d.jnl.append(term)
		d.obs.Traces().End(j.trace, svcobs.ActorDaemon, "job", "job "+j.id,
			map[string]any{"state": j.state})
		if j.state == JobFailed {
			d.obs.Metrics().Inc("jobs_failed_total", 1)
			d.log.Error("job failed", "job", j.id, "trace", j.trace, "error", j.err)
		} else {
			d.obs.Metrics().Inc("jobs_completed_total", 1)
			d.log.Info("job done", "job", j.id, "trace", j.trace)
		}
		d.gcLocked()
	}
}

// gcLocked archives the oldest terminal jobs beyond the retention bound. The
// archive record makes the drop durable; the data itself leaves disk at the
// next compaction, which snapshots the table without the archived jobs.
func (d *Daemon) gcLocked() {
	keep := d.cfg.KeepJobs
	if keep < 0 {
		return
	}
	if keep == 0 {
		keep = defaultKeepJobs
	}
	terminal := 0
	for _, j := range d.tab.jobs {
		if !j.active() {
			terminal++
		}
	}
	for terminal > keep {
		victim := ""
		for _, id := range d.tab.order {
			if !d.tab.jobs[id].active() {
				victim = id
				break
			}
		}
		if victim == "" {
			return
		}
		trace := d.tab.jobs[victim].trace
		rec := record{Type: recJobArchive, Job: victim}
		if err := d.jnl.append(rec); err != nil {
			return
		}
		d.tab.apply(rec)
		d.obs.Metrics().Inc("jobs_archived_total", 1)
		d.obs.Traces().Drop(trace)
		d.log.Info("job archived", "job", victim, "trace", trace)
		terminal--
	}
}

// compactLocked rewrites the journal as the live table's snapshot once enough
// segments have accumulated, bounding the WAL's disk footprint. A failed
// compaction is harmless — the appended history is still durable and the
// next trigger retries.
func (d *Daemon) compactLocked() {
	if d.jnl.segments() >= compactSegments {
		d.jnl.checkpoint(d.tab.records())
	}
}

// monitorLoop revokes expired leases: the dead worker's shard goes back to
// pending (its zombie simulation, if any, is cooperatively cancelled) and
// the pool is woken. It also wakes waiters whose retry-backoff windows may
// have elapsed.
func (d *Daemon) monitorLoop() {
	defer d.monitor.Done()
	tick := d.cfg.Lease / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case now := <-t.C:
			d.mu.Lock()
			woke := false
			for tok, li := range d.leases {
				if now.Before(li.expiry) {
					continue
				}
				li.cancel.Store(true)
				delete(d.leases, tok)
				d.obs.Metrics().Inc("lease_revocations_total", 1)
				d.obs.Traces().End(li.trace, svcobs.ActorDaemon, li.shard, "lease",
					map[string]any{"outcome": "revoked", "worker": li.worker})
				d.log.Warn("lease revoked", "job", li.jobID, "shard", li.shard,
					"lease", tok, "worker", li.worker, "attempt", li.attempt,
					"trace", li.trace, "reason", "heartbeat deadline missed")
				if j := d.tab.jobs[li.jobID]; j != nil {
					if s := j.shards[li.shard]; s != nil && s.lease == tok && s.state == ShardRunning {
						s.state = ShardPending
						s.lease = ""
						s.enqueuedAt = now
						d.obs.Metrics().IncL("shards_abandoned_total", svcobs.Label("exp", s.def.Exp), 1)
					}
				}
				woke = true
			}
			if woke || d.anyBackoffReady(now) {
				d.cond.Broadcast()
			}
			d.mu.Unlock()
		}
	}
}

func (d *Daemon) anyBackoffReady(now time.Time) bool {
	for _, id := range d.tab.order {
		j := d.tab.jobs[id]
		if j.active() && j.nextPending(now) != nil {
			return true
		}
	}
	return false
}

// publishProgress pushes aggregate shard progress to the telemetry plane.
// Callers hold d.mu (or, in Open, exclusive access).
func (d *Daemon) publishProgress() {
	done, total := 0, 0
	current := ""
	for _, id := range d.tab.order {
		j := d.tab.jobs[id]
		dn, fl, tot := j.counts()
		done += dn + fl
		total += tot
		if j.active() {
			for _, sid := range j.order {
				if j.shards[sid].state == ShardRunning && current == "" {
					current = j.id + "/" + sid
				}
			}
		}
	}
	d.tel.Progress(done, total, current)
}

// Ready reports whether the daemon is accepting submissions (the /v1/readyz
// verdict).
func (d *Daemon) Ready() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.draining && !d.killed && !d.closed
}

// Shutdown drains gracefully: no new leases are handed out, in-flight shards
// run to completion (their results are journaled as usual; remote workers'
// heartbeats and completions stay honored), and the journal is compacted to
// a clean checkpoint. If ctx expires first, in-flight shards are
// cooperatively cancelled and the journal is closed uncompacted — still a
// consistent crash-equivalent state — and ctx's error is returned.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.log.Info("draining", "reason", "shutdown requested")

	drained := make(chan struct{})
	go func() {
		d.workers.Wait()
		close(drained)
	}()
	var timedOut bool
	select {
	case <-drained:
	case <-ctx.Done():
		timedOut = true
		d.mu.Lock()
		d.killed = true
		for _, li := range d.leases {
			li.cancel.Store(true)
		}
		d.cond.Broadcast()
		d.mu.Unlock()
		<-drained
	}
	close(d.stop)
	d.monitor.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	if timedOut {
		d.jnl.close()
		return ctx.Err()
	}
	err := d.jnl.checkpoint(d.tab.records())
	// checkpoint keeps the compacted segment open (and the directory flock
	// held) so the journal is never unlocked mid-swap; release it now that the
	// daemon is done.
	d.jnl.close()
	return err
}

// Kill simulates a crash (the in-process stand-in for kill -9): in-flight
// shards are cancelled and their results discarded, nothing is checkpointed,
// and the journal is abandoned exactly as a dying process would leave it —
// every fsynced record intact, everything after the last one lost. Open on
// the same directory resumes from there.
func (d *Daemon) Kill() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.killed = true
	for _, li := range d.leases {
		li.cancel.Store(true)
	}
	d.cond.Broadcast()
	d.mu.Unlock()

	d.workers.Wait()
	close(d.stop)
	d.monitor.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.jnl.close()
}
