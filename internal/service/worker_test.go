package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
)

// rangeRegistry registers one rangeable experiment (trial values derived from
// TrialSeed, merge sums them) plus one plain one-trial experiment, so a split
// submission mixes trial-range and all-trials shards exactly like a real
// suite would.
func rangeRegistry(trials int) *harness.Registry {
	reg := fakeRegistry("plain")
	type frag struct {
		Vals []int64 `json:"vals"`
	}
	reg.Register(harness.Experiment{
		ID: "rsum", Title: "range sum", Paper: "test fixture", Tags: []string{"fake"},
		Range: &harness.RangeSpec{
			Trials: func(harness.Ctx) int { return trials },
			Run: func(ctx harness.Ctx, lo, hi int) ([]byte, error) {
				var vals []int64
				for tr := lo; tr < hi; tr++ {
					vals = append(vals, harness.TrialSeed(ctx.Config.Seed, "rsum", tr)%9973)
				}
				return json.Marshal(frag{Vals: vals})
			},
			Merge: func(ctx harness.Ctx, frags []harness.Fragment) harness.Report {
				var sum int64
				for _, f := range frags {
					var p frag
					if err := json.Unmarshal(f.Data, &p); err != nil {
						return harness.Report{Status: harness.StatusFailed, Error: err.Error()}
					}
					for _, v := range p.Vals {
						sum += v
					}
				}
				var r harness.Report
				r.Add("sum", float64(sum), 0, 1e18)
				return r
			},
		},
	})
	return reg
}

// TestWorkersDrainSplitJob is the tentpole at service level: a job split into
// trial-range shards, drained concurrently by two pull workers, merges to the
// byte-identical StableJSON of a direct unsharded registry run.
func TestWorkersDrainSplitJob(t *testing.T) {
	reg := rangeRegistry(12)
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 0, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	spec := JobSpec{Seed: 11, Split: 4}
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	// rsum splits 4 ways; plain is one trial and stays one shard.
	if st.Total != 5 {
		t.Fatalf("split job has %d shards, want 5: %+v", st.Total, st.Shards)
	}
	ranged := 0
	for _, s := range st.Shards {
		if s.ID == "plain" {
			continue
		}
		ranged++
	}
	if ranged != 4 {
		t.Fatalf("rsum cut into %d range shards, want 4", ranged)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(d, WorkerConfig{
			Name: fmt.Sprintf("w%d", i+1), Registry: reg, Poll: 20 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	st = waitStatus(t, d, id, JobStatus.Terminal, "split job drain")
	cancel()
	wg.Wait()
	if st.State != JobDone || st.Done != 5 {
		t.Fatalf("split job finished %+v", st)
	}

	rep, err := d.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := reg.Run(shardRunCtx(spec, fault.Plan{}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("split-drained report differs from direct run:\n%s\nvs\n%s", got, want)
	}
}

// failRegistry registers a healthy experiment beside the three ways one can
// die: a range whose trial 2 panics, a range whose Merge panics, and a plain
// Run that panics.
func failRegistry() *harness.Registry {
	reg := fakeRegistry("ok")
	count := func(_ harness.Ctx, lo, hi int) ([]byte, error) { return json.Marshal(hi - lo) }
	reg.Register(harness.Experiment{
		ID: "boom", Title: "trial 2 panics", Paper: "test fixture",
		Range: &harness.RangeSpec{
			Trials: func(harness.Ctx) int { return 4 },
			Run: func(ctx harness.Ctx, lo, hi int) ([]byte, error) {
				if lo <= 2 && 2 < hi {
					panic("trial 2")
				}
				return count(ctx, lo, hi)
			},
			Merge: func(harness.Ctx, []harness.Fragment) harness.Report { return harness.Report{} },
		},
	})
	reg.Register(harness.Experiment{
		ID: "badmerge", Title: "Merge panics", Paper: "test fixture",
		Range: &harness.RangeSpec{
			Trials: func(harness.Ctx) int { return 4 },
			Run:    count,
			Merge:  func(harness.Ctx, []harness.Fragment) harness.Report { panic("merge") },
		},
	})
	reg.Register(harness.Experiment{
		ID: "plainboom", Title: "Run panics", Paper: "test fixture",
		Run: func(harness.Ctx) harness.Report { panic("plain") },
	})
	return reg
}

// TestFailuresCrossTheWire: experiments that panic in a range, in Merge or
// in a plain Run fail their own reports and nothing else. Jobs at split 1
// and split 2, drained by a remote worker over /v1, end done, and their
// StableJSON is a direct run's.
func TestFailuresCrossTheWire(t *testing.T) {
	reg := failRegistry()
	direct, err := reg.Run(shardRunCtx(JobSpec{Seed: 5}, fault.Plan{}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := map[string]string{
		"ok": "", "boom": "experiment panicked: trial 2",
		"badmerge": "experiment panicked: merge", "plainboom": "experiment panicked: plain",
	}
	for _, r := range direct.Experiments {
		failed := r.Status == harness.StatusFailed && !r.Pass
		if r.Error != wantErr[r.ID] || failed != (r.Error != "") {
			t.Fatalf("direct run of %s: status %q, error %q; want error %q", r.ID, r.Status, r.Error, wantErr[r.ID])
		}
	}
	want, err := direct.StableJSON()
	if err != nil {
		t.Fatal(err)
	}

	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 0, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := &Client{Base: "http://" + addr.String()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go NewWorker(&Client{Base: c.Base}, WorkerConfig{
		Name: "w", Registry: reg, Poll: 20 * time.Millisecond,
	}).Run(ctx)

	for _, job := range []struct{ split, shards int }{{1, 4}, {2, 6}} {
		split, shards := job.split, job.shards
		id, err := c.Submit(JobSpec{Seed: 5, Split: split})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(context.Background(), id, 10*time.Millisecond)
		if err != nil || st.State != JobDone || st.Done != shards {
			t.Fatalf("split %d: job = %+v, %v; want done with %d shards", split, st, err, shards)
		}
		got, err := c.StableReport(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("split %d: report differs from a direct run:\n%s\nvs\n%s", split, got, want)
		}
	}
}

// TestRemoteWorkerSurvivesAbandon exercises the full wire path: workers pull
// leases over /v1 through the Client; one is killed mid-shard, the daemon
// revokes its silent lease, and a second worker finishes the job.
func TestRemoteWorkerSurvivesAbandon(t *testing.T) {
	reg := spinRegistry("spin")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 0, Lease: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()
	c := &Client{Base: base}

	id, err := c.Submit(JobSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 leases the spinning shard, then dies mid-run.
	ctx1, cancel1 := context.WithCancel(context.Background())
	w1 := NewWorker(&Client{Base: base}, WorkerConfig{
		Name: "doomed", Registry: reg, Poll: 20 * time.Millisecond,
	})
	done1 := make(chan error, 1)
	go func() { done1 <- w1.Run(ctx1) }()
	waitStatus(t, d, id, func(st JobStatus) bool { return st.Shards[0].State == ShardRunning }, "lease pickup")
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker returned %v", err)
	}
	// Worker 2 picks the shard back up once the abandoned lease expires; the
	// re-leased run returns immediately.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := NewWorker(&Client{Base: base}, WorkerConfig{
		Name: "survivor", Registry: reg, Poll: 20 * time.Millisecond,
	})
	go w2.Run(ctx2)
	st, err := c.Wait(context.Background(), id, 10*time.Millisecond)
	if err != nil || st.State != JobDone {
		t.Fatalf("job after abandon/retry = %+v, %v", st, err)
	}
}

// TestArchivedJobGC: terminal jobs beyond KeepJobs are archived — durably
// gone across a crash — while live jobs and the newest terminal ones survive
// replay intact, and the segmented WAL compacts along the way.
func TestArchivedJobGC(t *testing.T) {
	dir := t.TempDir()
	reg := fakeRegistry("a")
	cfg := Config{Dir: dir, Registry: reg, Workers: 0, KeepJobs: 2, SegmentBytes: 512}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The live job's shard is leased and held, so it cannot finish and must
	// never be archived.
	liveID, err := d.Submit(JobSpec{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	liveLease, err := d.Lease("holder", 0)
	if err != nil || liveLease == nil || liveLease.Job != liveID {
		t.Fatalf("live lease = %+v, %v", liveLease, err)
	}
	frag, err := json.Marshal(harness.Report{Metrics: []harness.Metric{{Name: "seed", Value: 1, Max: 1e9, Pass: true}}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := d.Submit(JobSpec{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		l, err := d.Lease("drainer", 0)
		if err != nil || l == nil || l.Job != id {
			t.Fatalf("lease for %s = %+v, %v", id, l, err)
		}
		if err := d.Complete(l.Token, Completion{Partial: &harness.PartialReport{Frag: frag}}); err != nil {
			t.Fatal(err)
		}
	}
	// 5 terminal jobs against KeepJobs=2: the oldest 3 are archived.
	for _, id := range ids[:3] {
		if _, err := d.Status(id); !errors.Is(err, ErrJobNotFound) {
			t.Fatalf("archived job %s still present: %v", id, err)
		}
	}
	if jobs := d.Jobs(); len(jobs) != 3 {
		t.Fatalf("daemon retains %d jobs, want 3 (1 live + 2 terminal)", len(jobs))
	}
	if _, err := d.Status(liveID); err != nil {
		t.Fatalf("live job archived: %v", err)
	}

	// Crash and replay: the archive records are durable, the live job's shard
	// is re-queued, and the retained terminal jobs come back whole.
	d.Kill()
	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown(context.Background())
	for _, id := range ids[:3] {
		if _, err := d2.Status(id); !errors.Is(err, ErrJobNotFound) {
			t.Fatalf("archived job %s resurrected by replay: %v", id, err)
		}
	}
	for _, id := range ids[3:] {
		st, err := d2.Status(id)
		if err != nil || st.State != JobDone {
			t.Fatalf("retained job %s replayed as %+v, %v", id, st, err)
		}
	}
	st, err := d2.Status(liveID)
	if err != nil || st.State == JobDone || st.Shards[0].State != ShardPending {
		t.Fatalf("live job replayed as %+v, %v", st, err)
	}
	// Finish it on the successor daemon.
	l, err := d2.Lease("finisher", 0)
	if err != nil || l == nil || l.Job != liveID {
		t.Fatalf("post-replay lease = %+v, %v", l, err)
	}
	if err := d2.Complete(l.Token, Completion{Partial: &harness.PartialReport{Frag: frag}}); err != nil {
		t.Fatal(err)
	}
	// Now terminal — and, as the oldest terminal job of three against
	// KeepJobs=2, immediately archived by the same GC it was immune to while
	// live.
	if _, err := d2.Status(liveID); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("finished oldest job not archived: %v", err)
	}
	if jobs := d2.Jobs(); len(jobs) != 2 {
		t.Fatalf("daemon retains %d jobs, want KeepJobs=2", len(jobs))
	}
}

func TestRetryDelayDeterministic(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		first := retryDelay("worker/a", attempt)
		if again := retryDelay("worker/a", attempt); again != first {
			t.Fatalf("attempt %d not deterministic: %v then %v", attempt, first, again)
		}
	}
}

func TestRetryDelayEqualJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 16; attempt++ {
		step := min(retryBase<<attempt, retryMax)
		if d := retryDelay("k", attempt); d < step/2 || d > step {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", attempt, d, step/2, step)
		}
	}
}

// TestRetryDelayGrowsThenCaps: the step doubles from retryBase, 100 ms, to
// the retryMax cap of 5 s, which attempt 6 reaches; equal jitter keeps every
// wait above the previous step's most.
func TestRetryDelayGrowsThenCaps(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		d := retryDelay("k", attempt)
		if d > retryMax {
			t.Fatalf("attempt %d delay %v exceeds cap %v", attempt, d, retryMax)
		}
		if attempt <= 5 && d <= prev {
			t.Fatalf("attempt %d delay %v did not grow past %v", attempt, d, prev)
		}
		prev = d
	}
}

func TestRetryDelayKeysDecorrelate(t *testing.T) {
	same := 0
	for attempt := 0; attempt < 16; attempt++ {
		if retryDelay("worker/a", attempt) == retryDelay("worker/c", attempt) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("distinct keys wait in lockstep")
	}
}
