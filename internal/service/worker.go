package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/svcobs"
)

// Completion is one shard attempt's outcome, handed back under its lease
// token — the body of POST /v1/leases/{token}/complete. Spans carries the
// worker's wall-clock trace spans for the attempt; the daemon stitches them
// into the job's trace by correlation ID, which is how a remote worker's
// execution shows up inside the daemon's Perfetto timeline.
type Completion struct {
	Partial *harness.PartialReport `json:"partial,omitempty"`
	Error   string                 `json:"error,omitempty"`
	Spans   []svcobs.Span          `json:"spans,omitempty"`
}

// LeaseSource is the pull side of the job API: claim a shard, keep its lease
// alive, hand back the result. *Daemon implements it in-process; *Client
// implements it over /v1, so the daemon's own pool and remote zenspec-worker
// processes are the same consumer pointed at different transports.
type LeaseSource interface {
	// Lease claims the next pending shard, blocking up to wait. (nil, nil)
	// means nothing was available; ErrDraining means the source is shutting
	// down and will hand out no more work.
	Lease(worker string, wait time.Duration) (*Lease, error)
	// Heartbeat extends the lease and reports trial progress.
	// ErrLeaseNotFound means the lease was revoked: abandon the shard.
	Heartbeat(token string, trialsDone, trialsTotal int) error
	// Complete hands back the shard attempt's outcome.
	Complete(token string, c Completion) error
}

// WorkerConfig configures one Worker.
type WorkerConfig struct {
	// Name identifies the worker to the daemon (bookkeeping only). Defaults
	// to "worker".
	Name string
	// Registry supplies the experiments; it must register the IDs the daemon
	// hands out, or those shards fail with harness.ErrUnknownExperiment.
	Registry *harness.Registry
	// Parallelism is the shard's inner trial-loop parallelism; 0 means 1.
	// Results are byte-identical at any value.
	Parallelism int
	// Poll is how long each Lease call blocks waiting for work; 0 means 2s.
	Poll time.Duration
	// ExitOnDrain makes Run return nil when the source reports ErrDraining
	// (the in-process pool's shutdown path). Remote workers leave it false and
	// ride out daemon restarts instead.
	ExitOnDrain bool
	// Logger receives one structured record per lease event (claimed, done,
	// failed, abandoned) with consistent job/shard/lease/worker/attempt/trace
	// fields. Nil means silent.
	Logger *slog.Logger
}

// A worker waits between failed calls to its lease source with a backoff
// that starts at retryBase and doubles up to retryMax.
const (
	retryBase = 100 * time.Millisecond
	retryMax  = 5 * time.Second
)

// retryDelay is the wait before retry attempt (0 is the first) of the calls
// named by key: the capped step retryBase<<attempt with equal jitter, at
// least half the step and at most all of it, the fraction drawn from an FNV
// hash of (key, attempt). It is a pure function, so one worker waits the same
// on every run while two workers keyed by their names never wait in
// lockstep.
func retryDelay(key string, attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d <<= 1
	}
	d = min(d, retryMax)
	// 53 uniform bits of the hash, exactly representable in a float64: the
	// same construction as fault.Plan's trial faults.
	h := fnv.New64a()
	h.Write([]byte(key))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	u := float64(h.Sum64()>>11) / float64(1<<53)
	half := d / 2
	return half + time.Duration(u*float64(d-half))
}

// Worker pulls leases from a source and runs the shards on its own registry:
// the execution half of the service, with the scheduling half left entirely
// to the daemon. A worker that dies mid-shard simply stops heartbeating —
// the daemon re-leases the shard, and determinism makes the rerun identical.
type Worker struct {
	src LeaseSource
	cfg WorkerConfig
}

// NewWorker builds a worker over the given lease source.
func NewWorker(src LeaseSource, cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Logger == nil {
		cfg.Logger = svcobs.Discard()
	}
	if cfg.Registry == nil {
		panic("service: WorkerConfig.Registry is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	return &Worker{src: src, cfg: cfg}
}

// Run pulls and executes leases until ctx is cancelled (returning ctx's
// error) or — with ExitOnDrain — the source drains (returning nil).
// Transport outages are ridden out with jittered exponential backoff: a
// remote worker started before its daemon, or surviving a daemon restart,
// reconnects by itself.
func (w *Worker) Run(ctx context.Context) error {
	outages := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		l, err := w.src.Lease(w.cfg.Name, w.cfg.Poll)
		switch {
		case err == nil && l == nil:
			outages = 0 // idle poll: the source is healthy, just empty
		case err == nil:
			outages = 0
			w.execute(ctx, l)
		case errors.Is(err, ErrDraining) && w.cfg.ExitOnDrain:
			return nil
		default:
			// Draining (for a persistent worker) and transport failures alike:
			// back off and try again.
			if !sleepCtx(ctx, retryDelay("worker/"+w.cfg.Name, outages)) {
				return ctx.Err()
			}
			outages++
		}
	}
}

// execute runs one leased shard: cancel flag threaded into the machines,
// lease heartbeats carrying trial progress, and the completion handshake.
// The attempt's wall-clock span rides back to the daemon inside the
// Completion, stitched into the job's trace there.
func (w *Worker) execute(ctx context.Context, l *Lease) {
	lg := w.cfg.Logger.With(
		"worker", w.cfg.Name, "job", l.Job, "shard", l.Shard.ID(),
		"lease", l.Token, "attempt", l.Attempt, "trace", l.Trace)
	lg.Info("lease claimed")
	actor := svcobs.ActorWorker(w.cfg.Name)
	span := func(name string, start time.Time, args map[string]any) svcobs.Span {
		return svcobs.Span{
			Trace: l.Trace, Actor: actor, Track: l.Shard.ID(), Name: name,
			Phase: "X", StartUS: start.UnixMicro(),
			DurUS: time.Since(start).Microseconds(), Args: args,
		}
	}
	plan, err := fault.Parse(l.Spec.Faults)
	if err != nil {
		lg.Error("shard failed", "error", "faults: "+err.Error())
		w.complete(ctx, l, Completion{Error: fmt.Sprintf("faults: %v", err)})
		return
	}
	rctx := shardRunCtx(l.Spec, plan, w.cfg.Parallelism)

	// Local cancellation composed with the daemon's in-process revocation
	// flag when present; remote workers learn of revocation from Heartbeat.
	cancel := new(atomic.Bool)
	stop := cancel.Load
	if l.cancel != nil {
		remote := l.cancel
		stop = func() bool { return cancel.Load() || remote.Load() }
	}
	rctx.Config.Pipeline.Stop = stop

	var done64, total64 atomic.Int64
	rctx.TrialProgress = func(done, total int) {
		done64.Store(int64(done))
		total64.Store(int64(total))
	}

	hb := l.TTL / 3
	if hb <= 0 {
		hb = time.Second
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				cancel.Store(true)
				return
			case <-t.C:
				if err := w.src.Heartbeat(l.Token, int(done64.Load()), int(total64.Load())); errors.Is(err, ErrLeaseNotFound) {
					// Revoked: another lease owns the shard. Stop burning CPU.
					cancel.Store(true)
					return
				}
			}
		}
	}()

	runStart := time.Now()
	p, runErr := w.cfg.Registry.RunTrialRange(rctx, l.Shard.Exp, l.Shard.Lo, l.Shard.Hi)
	close(hbStop)
	hbWG.Wait()
	if ctx.Err() != nil {
		lg.Warn("lease abandoned", "reason", "worker stopping")
		return // abandoned: the lease expires and the daemon re-leases
	}
	comp := Completion{Partial: &p}
	outcome := "done"
	if runErr != nil {
		comp.Partial, comp.Error = nil, runErr.Error()
		outcome = "failed"
		lg.Error("shard failed", "error", comp.Error, "wall_ms", time.Since(runStart).Milliseconds())
	} else {
		lg.Info("shard done", "wall_ms", time.Since(runStart).Milliseconds())
	}
	comp.Spans = append(comp.Spans, span("run "+l.Shard.ID(), runStart, map[string]any{
		"worker": w.cfg.Name, "attempt": l.Attempt, "outcome": outcome,
	}))
	w.complete(ctx, l, comp)
}

// complete hands the outcome back, retrying transient failures so one
// dropped connection does not discard a finished shard. ErrLeaseNotFound and
// ErrDraining are terminal: the result has no home anymore.
func (w *Worker) complete(ctx context.Context, l *Lease, c Completion) {
	for attempt := 0; attempt < 5; attempt++ {
		err := w.src.Complete(l.Token, c)
		if err == nil || errors.Is(err, ErrLeaseNotFound) || errors.Is(err, ErrDraining) {
			return
		}
		if !sleepCtx(ctx, retryDelay("complete/"+w.cfg.Name, attempt)) {
			return
		}
	}
}

// sleepCtx sleeps d unless ctx is cancelled first; it reports whether the
// caller should continue.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
