package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/obs"
)

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

// fakeRegistry builds a registry of trivial deterministic experiments: each
// report carries the seed so merged output is checkable, and each boots
// nothing, so tests stay fast.
func fakeRegistry(ids ...string) *harness.Registry {
	reg := harness.NewRegistry()
	for _, id := range ids {
		id := id
		reg.Register(harness.Experiment{
			ID: id, Title: "fake " + id, Paper: "test fixture", Tags: []string{"fake"},
			Run: func(ctx harness.Ctx) harness.Report {
				var r harness.Report
				r.Add("seed", float64(ctx.Config.Seed), 0, 1e9)
				r.Detail = fmt.Sprintf("%s@%d", id, ctx.Config.Seed)
				return r
			},
		})
	}
	return reg
}

// spinRegistry registers one experiment whose first run simulates forever
// until the cooperative cancel flag stops it; every later run returns at
// once, so a re-leased shard completes.
func spinRegistry(id string) *harness.Registry {
	var gate atomic.Int64
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: id, Title: "spinner", Paper: "test fixture", Tags: []string{"fake"},
		Run: func(ctx harness.Ctx) harness.Report {
			var r harness.Report
			if gate.Add(1) > 1 {
				r.Add("ok", 1, 1, 1)
				return r
			}
			k := kernel.New(ctx.Config)
			p := k.NewProcess("spin", kernel.DomainUser)
			b := asm.NewBuilder()
			b.Movi(isa.RAX, 1)
			b.Label("spin")
			b.Jnz(isa.RAX, "spin")
			p.MapCode(0x400000, b.MustAssemble(0x400000))
			k.Run(p, 0x400000, 1<<40)
			r.Add("ok", 1, 1, 1)
			return r
		},
	})
	return reg
}

func waitStatus(t *testing.T, d *Daemon, id string, pred func(JobStatus) bool, what string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := d.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; status %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	reg := fakeRegistry("a", "b", "c")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 2, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Seed: 42}
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, d, id, JobStatus.Terminal, "job completion")
	if st.State != JobDone || st.Done != 3 {
		t.Fatalf("job finished %+v", st)
	}
	got, err := d.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reg.Run(harness.Ctx{Config: shardRunCtx(spec, d.tab.jobs[id].plan, d.cfg.Parallelism).Config, Quick: spec.Quick}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.StableJSON()
	wb, _ := want.StableJSON()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("service report differs from direct run:\n%s\nvs\n%s", gb, wb)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	if _, err := d.Submit(JobSpec{Only: []string{"nope"}}); !errors.Is(err, harness.ErrUnknownExperiment) {
		t.Fatalf("unknown experiment error = %v", err)
	}
	for _, plan := range []string{"bogus", "{broken"} {
		if _, err := d.Submit(JobSpec{Faults: plan}); !errors.Is(err, ErrBadFaults) {
			t.Fatalf("fault plan %q error = %v", plan, err)
		}
	}
	if _, err := d.Status("ghost"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown job error = %v", err)
	}
}

// TestReplayDeregisteredExperiment: a journaled job referencing an
// experiment the registry no longer has must fail that shard with the typed
// error — job marked failed, no panic, other shards unaffected.
func TestReplayDeregisteredExperiment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, Registry: fakeRegistry("a", "b"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Submit(JobSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d.Kill() // crash before anything ran

	d2, err := Open(Config{Dir: dir, Registry: fakeRegistry("a"), Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown(context.Background())
	st := waitStatus(t, d2, id, JobStatus.Terminal, "replayed job")
	if st.State != JobFailed {
		t.Fatalf("job state %q, want failed: %+v", st.State, st)
	}
	if !strings.Contains(st.Error, "unknown experiment") {
		t.Fatalf("job error %q does not carry the typed cause", st.Error)
	}
	byID := map[string]ShardStatus{}
	for _, s := range st.Shards {
		byID[s.ID] = s
	}
	if byID["a"].State != ShardDone {
		t.Fatalf("surviving shard a: %+v", byID["a"])
	}
	if byID["b"].State != ShardFailed || !strings.Contains(byID["b"].Error, "unknown experiment") {
		t.Fatalf("deregistered shard b: %+v", byID["b"])
	}
	// The partial report still assembles, with the failed shard skipped.
	rep, err := d2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "a" {
		t.Fatalf("partial report experiments: %+v", rep.Experiments)
	}
}

// TestLeaseExpiryRequeues: a lease that stops heartbeating (its worker died)
// is revoked by the monitor, its zombie run is cancelled, its shard is
// re-queued, and a completion arriving on the stale token is discarded. The
// re-lease is the shard's second attempt.
func TestLeaseExpiryRequeues(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"), Workers: 0, Lease: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	id, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Lease by hand, as a worker would, then never heartbeat.
	li, err := d.Lease("zombie", 0)
	if err != nil || li == nil {
		t.Fatalf("no lease available: %v", err)
	}
	if li.Attempt != 1 {
		t.Fatalf("first lease is attempt %d, want 1", li.Attempt)
	}
	waitStatus(t, d, id, func(st JobStatus) bool { return st.Shards[0].State == ShardPending }, "lease revocation")
	if !li.cancel.Load() {
		t.Fatal("revoked lease's run was not cancelled")
	}
	// The revocation is an observable event: counted globally and attributed
	// to the abandoned shard's experiment.
	if got := scraped(d, "lease_revocations_total", ""); got != 1 {
		t.Fatalf("lease_revocations_total = %d, want 1", got)
	}
	if got := scraped(d, "shards_abandoned_total", obs.PromLabel("exp", "a")); got != 1 {
		t.Fatalf(`shards_abandoned_total{exp="a"} = %d, want 1`, got)
	}
	// The stale completion must be refused: the token is gone and the shard
	// stays pending.
	var rep harness.Report
	rep.Add("stale", 1, 1, 1)
	p := &harness.PartialReport{Report: &rep}
	if err := d.Complete(li.Token, Completion{Partial: p}); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("stale completion = %v, want ErrLeaseNotFound", err)
	}
	st, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[0].State != ShardPending || st.Done != 0 {
		t.Fatalf("stale completion applied: %+v", st)
	}
	// A stale heartbeat likewise tells the worker its lease is gone.
	if err := d.Heartbeat(li.Token, 1, 2); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("stale heartbeat = %v, want ErrLeaseNotFound", err)
	}
	// A fresh lease owns the shard and completes it for real.
	li2, err := d.Lease("healthy", 0)
	if err != nil || li2 == nil {
		t.Fatalf("re-lease failed: %v, %+v", err, li2)
	}
	if li2.Token == li.Token {
		t.Fatal("re-lease reused the revoked token")
	}
	if li2.Attempt != 2 {
		t.Fatalf("re-lease is attempt %d, want 2", li2.Attempt)
	}
	if err := d.Complete(li2.Token, Completion{Partial: p}); err != nil {
		t.Fatal(err)
	}
	st, _ = d.Status(id)
	if st.State != JobDone {
		t.Fatalf("job after real completion: %+v", st)
	}
	if st.Shards[0].Attempt != 2 {
		t.Fatalf("done shard reports attempt %d, want 2", st.Shards[0].Attempt)
	}
}

// TestLeasesGoInSubmissionOrder: every shard of an earlier job is leased
// before any shard of a later one, and a job's shards go in shard order.
func TestLeasesGoInSubmissionOrder(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a", "b"), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	first, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Submit(JobSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{first + "/a", first + "/b", second + "/a", second + "/b"}
	for i, w := range want {
		l, err := d.Lease("w", 0)
		if err != nil || l == nil {
			t.Fatalf("lease %d: %+v, %v", i, l, err)
		}
		if got := l.Job + "/" + l.Shard.ID(); got != w {
			t.Fatalf("lease %d went to %s, want %s", i, got, w)
		}
	}
}

// TestShutdownDrainsAndCheckpoints: Shutdown lets queued work finish, then
// compacts the journal; a reopened daemon sees the completed job without
// replaying per-append history, and Submit after drain is refused.
func TestShutdownDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	reg := fakeRegistry("a", "b")
	d, err := Open(Config{Dir: dir, Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Submit(JobSpec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, d, id, JobStatus.Terminal, "job completion")
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(JobSpec{Seed: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
	if d.Ready() {
		t.Fatal("daemon still ready after shutdown")
	}
	d2, err := Open(Config{Dir: dir, Registry: reg, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown(context.Background())
	st, err := d2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Done != 2 {
		t.Fatalf("checkpointed job replayed as %+v", st)
	}
}
