package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"zenspec/internal/svcobs"
)

// perfettoDoc mirrors the Chrome trace-event JSON the trace endpoint serves,
// just deep enough for assertions.
type perfettoDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		PID   int            `json:"pid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestSplitJobStitchedTrace is the observability tentpole at service level: a
// split job drained by two remote workers over /v1 must yield one stitched
// trace — daemon spans and both workers' shipped spans under a single
// correlation ID — whose span tree covers every shard of the job.
func TestSplitJobStitchedTrace(t *testing.T) {
	reg := rangeRegistry(12)
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 0,
		Lease: 10 * time.Second, Obs: svcobs.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	c := &Client{Base: base}
	id, err := c.Submit(JobSpec{Seed: 11, Split: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(&Client{Base: base}, WorkerConfig{
			Name: fmt.Sprintf("w%d", i+1), Registry: reg, Poll: 20 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	st := waitStatus(t, d, id, JobStatus.Terminal, "split job drain")
	cancel()
	wg.Wait()
	if st.State != JobDone {
		t.Fatalf("split job finished %+v", st)
	}
	if st.Trace == "" {
		t.Fatal("terminal job status carries no trace ID")
	}

	// The stitched trace, fetched over the wire like a human would.
	raw, err := c.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// One Perfetto process per actor, the daemon pinned first; both workers
	// shipped spans home, so both appear.
	actors := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			actors[ev.Args["name"].(string)] = ev.PID
		}
	}
	if actors[svcobs.ActorDaemon] != 1 {
		t.Fatalf("daemon actor not pinned as pid 1: %v", actors)
	}
	for _, w := range []string{"w1", "w2"} {
		if _, ok := actors[svcobs.ActorWorker(w)]; !ok {
			t.Fatalf("worker %s shipped no spans into the trace; actors %v", w, actors)
		}
	}

	// The span tree covers every shard: a worker-side run span and a
	// daemon-side lease span per shard, plus the job umbrella span.
	names := map[string]bool{}
	leases := 0
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Name == "lease" && ev.Phase == "B" {
			leases++
		}
	}
	for _, s := range st.Shards {
		if !names["run "+s.ID] {
			t.Fatalf("trace has no run span for shard %s; names %v", s.ID, names)
		}
	}
	if leases < st.Total {
		t.Fatalf("trace has %d lease spans for %d shards", leases, st.Total)
	}
	if !names["job "+id] {
		t.Fatal("trace has no job umbrella span")
	}

	// Per-experiment wall-clock distributions land in the final status for
	// the split-factor scheduler: every shard's journaled wall clock rolls up.
	if len(st.Timings) == 0 {
		t.Fatal("terminal status has no per-experiment timings")
	}
	ti, ok := st.Timings["rsum"]
	if !ok || ti.Shards != 4 {
		t.Fatalf("rsum timings = %+v, want 4 shards", st.Timings)
	}
	if ti.MinMS > ti.MeanMS || ti.MeanMS > ti.MaxMS || ti.TotalMS < ti.MaxMS {
		t.Fatalf("rsum timing stats inconsistent: %+v", ti)
	}
}

// drainWithWorkers runs one split job to completion on n in-process pull
// workers and returns the daemon's stable metrics snapshot and the job's
// StableJSON report.
func drainWithWorkers(t *testing.T, n int, obs bool) (snapshot, report []byte) {
	t.Helper()
	reg := rangeRegistry(12)
	cfg := Config{Dir: t.TempDir(), Registry: reg, Workers: 0, Lease: 10 * time.Second}
	if obs {
		cfg.Obs = svcobs.New(nil)
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	id, err := d.Submit(JobSpec{Seed: 11, Split: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := NewWorker(d, WorkerConfig{
			Name: fmt.Sprintf("w%d", i+1), Registry: reg, Poll: 20 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	st := waitStatus(t, d, id, JobStatus.Terminal, "metrics drain")
	cancel()
	wg.Wait()
	if st.State != JobDone {
		t.Fatalf("drain with %d workers finished %+v", n, st)
	}
	rep, err := d.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := rep.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	return d.Obs().Metrics().StableSnapshot(), sj
}

// TestStableMetricsAcrossWorkerCounts pins the volatile-vs-stable metric
// discipline: the deterministic projection of the service metrics registry is
// byte-identical however many workers drain the job, and the job's StableJSON
// is byte-identical with observability on or off.
func TestStableMetricsAcrossWorkerCounts(t *testing.T) {
	snap1, rep1 := drainWithWorkers(t, 1, true)
	snap2, rep2 := drainWithWorkers(t, 2, true)
	snap8, rep8 := drainWithWorkers(t, 8, true)
	if len(snap1) == 0 {
		t.Fatal("stable snapshot is empty")
	}
	if !bytes.Equal(snap1, snap2) || !bytes.Equal(snap1, snap8) {
		t.Fatalf("stable snapshots differ across worker counts:\n1: %s\n2: %s\n8: %s", snap1, snap2, snap8)
	}
	// The snapshot must carry the deterministic series the scheduler reads...
	for _, want := range []string{
		`shard_wall_ms_count{exp="rsum"} 4`,
		`shard_wall_ms_count{exp="plain"} 1`,
		"leases_granted_total 5",
		`shards_completed_total{exp="rsum"} 4`,
		"queue_wait_ms_count 5",
		"jobs_completed_total 1",
	} {
		if !strings.Contains(string(snap1), want) {
			t.Fatalf("stable snapshot missing %q:\n%s", want, snap1)
		}
	}
	// ...and none of the host-timing series marked volatile.
	for _, banned := range []string{"fsync_ms", "lease_rtt_ms", "journal_"} {
		if strings.Contains(string(snap1), banned) {
			t.Fatalf("volatile series %q leaked into the stable snapshot:\n%s", banned, snap1)
		}
	}
	if !bytes.Equal(rep1, rep2) || !bytes.Equal(rep1, rep8) {
		t.Fatal("job StableJSON differs across worker counts")
	}
	_, repOff := drainWithWorkers(t, 2, false)
	if !bytes.Equal(rep1, repOff) {
		t.Fatalf("observability changed the report bytes:\n on: %s\noff: %s", rep1, repOff)
	}
}

// TestReadyzDrainingObserved: the draining readiness response is itself an
// observable event — a 503 from /v1/readyz increments the (volatile) probe
// counter and the drain is logged.
func TestReadyzDrainingObserved(t *testing.T) {
	d, err := Open(Config{Dir: t.TempDir(), Registry: fakeRegistry("a"),
		Workers: 0, Obs: svcobs.New(nil)})
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

	resp, err := http.Get(base + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d", resp.StatusCode)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d", resp.StatusCode)
	}
	if got := d.Obs().Metrics().Counter("readyz_draining_total", ""); got != 1 {
		t.Fatalf("readyz_draining_total = %d, want 1", got)
	}
}

// TestTraceSurvivesRestart: the correlation ID is journaled with the job, so
// a daemon killed after submit resumes the job under the same trace and the
// post-restart drain still produces a renderable span tree.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Config{Dir: dir, Registry: fakeRegistry("a"), Workers: 0,
		Obs: svcobs.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Submit(JobSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == "" {
		t.Fatal("submitted job has no trace ID")
	}
	d.Kill() // crash before anything ran

	d2, err := Open(Config{Dir: dir, Registry: fakeRegistry("a"), Workers: 1,
		Lease: time.Second, Obs: svcobs.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown(context.Background())
	st2 := waitStatus(t, d2, id, JobStatus.Terminal, "post-restart drain")
	if st2.Trace != st.Trace {
		t.Fatalf("trace ID changed across restart: %q vs %q", st2.Trace, st.Trace)
	}
	raw, err := d2.TracePerfetto(id)
	if err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("post-restart trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "run a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-restart trace has no run span for the replayed shard")
	}
}
