package svcobs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"zenspec/internal/obs"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
	}{
		{"", slog.LevelInfo},
		{"debug", slog.LevelDebug},
		{"INFO", slog.LevelInfo},
		{"warn", slog.LevelWarn},
		{"warning", slog.LevelWarn},
		{" error ", slog.LevelError},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatalf("ParseLevel(loud) accepted")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, FormatJSON, "info")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("lease claimed", "job", "j1", "shard", "fig2[0:8)", "attempt", 1)
	lg.Debug("hidden")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 line (debug filtered), got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v", err)
	}
	if rec["msg"] != "lease claimed" || rec["job"] != "j1" {
		t.Fatalf("unexpected record: %v", rec)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "", "")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "worker", "w1")
	if !strings.Contains(buf.String(), "msg=hello") || !strings.Contains(buf.String(), "worker=w1") {
		t.Fatalf("text handler output unexpected: %q", buf.String())
	}

	if _, err := NewLogger(&buf, "yaml", ""); err == nil {
		t.Fatal("NewLogger accepted bad format")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("NewLogger accepted bad level")
	}
}

// TestGaugeSampledOutsideLock is the lock-order contract of Gauge: the
// daemon's samplers take the daemon lock, under which the daemon updates
// this registry, so a scrape that sampled under the registry lock would
// deadlock against an update made under that lock.
func TestGaugeSampledOutsideLock(t *testing.T) {
	r := NewRegistry()
	var daemonMu sync.Mutex
	sampling := make(chan struct{})
	r.Gauge("queue_depth", func() float64 {
		close(sampling)
		daemonMu.Lock()
		defer daemonMu.Unlock()
		r.mu.Lock() // as reading a counter would
		defer r.mu.Unlock()
		return float64(r.counters["jobs_submitted_total"][""])
	})
	daemonMu.Lock()
	go func() {
		defer daemonMu.Unlock()
		<-sampling
		r.Inc("jobs_submitted_total", 1) // an update under the daemon lock
	}()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		done <- buf.String()
	}()
	select {
	case out := <-done:
		for _, want := range []string{
			"# TYPE zenspec_service_queue_depth gauge\nzenspec_service_queue_depth 1\n",
			"zenspec_service_jobs_submitted_total 1\n",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("scrape missing %q:\n%s", want, out)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WritePrometheus deadlocked against a counter update made under the sampler's lock")
	}
}

// blockingWriter stalls its first Write until release is closed, like a
// scraper that stops reading.
type blockingWriter struct {
	entered, release chan struct{}
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	close(b.entered)
	<-b.release
	return len(p), nil
}

// TestSlowScrapeDoesNotBlockUpdates: a scraper that stops reading must not
// hold the registry lock, under which the daemon's counter updates (made
// while it holds its own lock) wait.
func TestSlowScrapeDoesNotBlockUpdates(t *testing.T) {
	r := NewRegistry()
	r.Inc("leases_granted_total", 1)
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		r.WritePrometheus(w)
		close(scraped)
	}()
	<-w.entered
	updated := make(chan struct{})
	go func() {
		r.Inc("leases_granted_total", 1)
		close(updated)
	}()
	select {
	case <-updated:
	case <-time.After(10 * time.Second):
		t.Error("a counter update waited on a scrape stalled in its writer")
	}
	close(w.release)
	<-scraped
}

// TestGaugesScrapeButStayUnstable: gauges scrape first with their HELP
// text, a re-registered sampler replaces the old one, and no gauge reaches
// the stable snapshot.
func TestGaugesScrapeButStayUnstable(t *testing.T) {
	r := NewRegistry()
	r.Describe("leases_active", "Leases outstanding.")
	r.Gauge("leases_active", func() float64 { return 7 })
	r.Gauge("leases_active", func() float64 { return 2 })
	r.Gauge("jobs_active", func() float64 { return 0.5 })
	r.Inc("leases_granted_total", 4)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `# TYPE zenspec_service_jobs_active gauge
zenspec_service_jobs_active 0.5
# HELP zenspec_service_leases_active Leases outstanding.
# TYPE zenspec_service_leases_active gauge
zenspec_service_leases_active 2
# TYPE zenspec_service_leases_granted_total counter
zenspec_service_leases_granted_total 4
`
	if got := buf.String(); got != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", got, want)
	}
	if snap := string(r.StableSnapshot()); snap != "leases_granted_total 4\n" {
		t.Fatalf("stable snapshot = %q", snap)
	}
}

// TestLabelEscaping: a label value's quote, backslash and newline scrape
// escaped.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.IncL("shards_failed_total", obs.PromLabel("exp", "a\"b\\c\nd"), 1)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `zenspec_service_shards_failed_total{exp="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("scrape missing %s:\n%s", want, buf.String())
	}
}

func TestStableSnapshotDeterministicAndVolatile(t *testing.T) {
	build := func(order []float64) *Registry {
		r := NewRegistry()
		r.MarkVolatile("fsync_ms", "journal_rotations_total")
		r.Inc("shards_completed_total", 5)
		r.Inc("journal_rotations_total", 2) // volatile counter: excluded
		for _, v := range order {
			r.ObserveL("shard_wall_ms", obs.PromLabel("exp", "fig2"), v)
			r.Observe("fsync_ms", v) // volatile histogram: excluded
		}
		return r
	}
	a := build([]float64{1, 900, 33})
	b := build([]float64{4000, 2, 2}) // same counts, wildly different values
	if !bytes.Equal(a.StableSnapshot(), b.StableSnapshot()) {
		t.Fatalf("stable snapshots differ:\n%s--\n%s", a.StableSnapshot(), b.StableSnapshot())
	}
	snap := string(a.StableSnapshot())
	if strings.Contains(snap, "fsync_ms") || strings.Contains(snap, "journal_rotations_total") {
		t.Fatalf("volatile series leaked into stable snapshot:\n%s", snap)
	}
	for _, want := range []string{"shards_completed_total 5", `shard_wall_ms_count{exp="fig2"} 3`} {
		if !strings.Contains(snap, want) {
			t.Fatalf("stable snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestTraceLogPerfetto(t *testing.T) {
	tl := NewTraceLog()
	start := time.Unix(1000, 0)
	tl.Span("tr1", ActorDaemon, "jobs", "job j1", start, 5*time.Second, map[string]any{"job": "j1"})
	tl.Span("tr1", ActorDaemon, "fig2[0:8)", "queue-wait", start, 100*time.Millisecond, nil)
	tl.Span("tr1", ActorWorker("w1"), "fig2[0:8)", "run fig2[0:8)", start.Add(time.Second), 2*time.Second, nil)
	tl.Add(Span{Trace: "tr1", Actor: ActorWorker("w1"), Track: "fig2[0:8)", Name: "trials", Phase: "i", StartUS: start.Add(2 * time.Second).UnixMicro()})
	tl.Add(Span{Trace: "other", Actor: ActorDaemon, Name: "x", StartUS: 1})
	tl.Add(Span{Actor: ActorDaemon, Name: "no trace id"}) // dropped

	if n := len(tl.traces["tr1"]); n != 4 {
		t.Fatalf("%d spans buffered, want 4", n)
	}

	raw, err := tl.Perfetto("tr1")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Perfetto output is not JSON: %v", err)
	}
	var procNames []string
	minTS := int64(1 << 60)
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
		if ev.Phase == "M" && ev.Name == "process_name" {
			procNames = append(procNames, ev.Args["name"].(string))
		}
		if ev.Phase != "M" && ev.TS < minTS {
			minTS = ev.TS
		}
	}
	if len(procNames) != 2 || procNames[0] != ActorDaemon || procNames[1] != ActorWorker("w1") {
		t.Fatalf("process metadata wrong: %v", procNames)
	}
	if minTS != 0 {
		t.Fatalf("timestamps not normalized to origin: min ts = %d", minTS)
	}
	for _, want := range []string{"job j1", "queue-wait", "run fig2[0:8)", "trials"} {
		if !seen[want] {
			t.Fatalf("trace missing event %q", want)
		}
	}
	// Spans from the other trace must not leak in.
	if seen["x"] {
		t.Fatal("foreign trace event leaked")
	}

	if _, err := tl.Perfetto("nope"); err == nil {
		t.Fatal("Perfetto accepted unknown trace")
	}
	tl.Drop("tr1")
	if len(tl.traces["tr1"]) != 0 {
		t.Fatal("Drop left spans behind")
	}
}

func TestTraceLogBounds(t *testing.T) {
	tl := NewTraceLog()
	for i := 0; i < maxTraces+3; i++ {
		tl.Add(Span{Trace: string(rune('a'+i%26)) + "-" + string(rune('0'+i/26)), Actor: "a", Name: "n"})
	}
	tl.mu.Lock()
	n := len(tl.traces)
	tl.mu.Unlock()
	if n != maxTraces {
		t.Fatalf("retained %d traces, want %d", n, maxTraces)
	}
}

// goldenSpans is a fixed trace of the daemon and two workers: begin/end
// pairs, complete spans, instants, a worker's default lane, args of every
// JSON kind, and two spans sharing one timestamp so the stable sort shows.
func goldenSpans() *TraceLog {
	tl := NewTraceLog()
	const tr = "job-1.5"
	t0 := time.Unix(1700000000, 0)
	us := func(d time.Duration) int64 { return t0.Add(d).UnixMicro() }
	w1, w2 := ActorWorker("w1"), ActorWorker("w2")
	tl.Add(
		Span{Trace: tr, Actor: ActorDaemon, Track: "job", Name: "job job-1", Phase: "B", StartUS: us(0),
			Args: map[string]any{"job": "job-1", "shards": 2, "split": 2, "seed": int64(11)}},
		Span{Trace: tr, Actor: ActorDaemon, Track: "journal", Name: "fsync submit", StartUS: us(100 * time.Microsecond), DurUS: 850},
		Span{Trace: tr, Actor: w2, Track: "rsum[6:12)", Name: "run rsum[6:12)", Phase: "X", StartUS: us(4 * time.Millisecond), DurUS: 2500,
			Args: map[string]any{"attempt": 1, "wall_ms": 2.5}},
		Span{Trace: tr, Actor: ActorDaemon, Track: "rsum[0:6)", Name: "queue-wait", Phase: "X", StartUS: us(0), DurUS: 1200},
		Span{Trace: tr, Actor: ActorDaemon, Track: "rsum[0:6)", Name: "lease", Phase: "B", StartUS: us(1200 * time.Microsecond),
			Args: map[string]any{"token": "t5-1", "worker": "w1", "attempt": 1}},
		Span{Trace: tr, Actor: w1, Track: "rsum[0:6)", Name: "run rsum[0:6)", Phase: "X", StartUS: us(1500 * time.Microsecond), DurUS: 3000,
			Args: map[string]any{"attempt": 1, "overrun": false}},
		Span{Trace: tr, Actor: w1, Track: "rsum[0:6)", Name: "trials", Phase: "i", StartUS: us(3 * time.Millisecond),
			Args: map[string]any{"done": 3, "total": 6}},
		Span{Trace: tr, Actor: w1, Name: "heartbeat", Phase: "i", StartUS: us(3 * time.Millisecond)},
		Span{Trace: tr, Actor: ActorDaemon, Track: "rsum[0:6)", Name: "lease", Phase: "E", StartUS: us(4600 * time.Microsecond),
			Args: map[string]any{"outcome": "done"}},
		Span{Trace: tr, Actor: ActorDaemon, Track: "job", Name: "job job-1", Phase: "E", StartUS: us(7 * time.Millisecond),
			Args: map[string]any{"state": "done"}},
	)
	return tl
}

// TestTraceLogPerfettoGolden pins the service trace export byte for byte:
// testdata/trace_golden.json is the rendering of goldenSpans, and a change
// to it changes every trace /v1/jobs/{id}/trace serves.
func TestTraceLogPerfettoGolden(t *testing.T) {
	got, err := goldenSpans().Perfetto("job-1.5")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from testdata/trace_golden.json:\n%s", got)
	}
}

// TestRegistryExposition pins the registry's scrape byte for byte: HELP
// only where described, unlabeled series before labeled ones, escaped
// multi-pair labels, cumulative buckets, a value past the last bound, and
// float sums.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("shards_completed_total", "Shards that completed, by experiment.")
	r.Inc("shards_completed_total", 3)
	r.IncL("shards_completed_total", obs.PromLabel("exp", "fig2"), 2)
	r.IncL("shards_completed_total", obs.PromLabel("exp", `a"b\c`)+","+obs.PromLabel("worker", "w1"), 1)
	r.Inc("leases_granted_total", 5)
	r.Describe("shard_wall_ms", "Completed shard wall clock in ms.")
	r.ObserveL("shard_wall_ms", obs.PromLabel("exp", "fig2"), 7)
	r.ObserveL("shard_wall_ms", obs.PromLabel("exp", "fig2"), 120.5)
	r.Observe("fsync_ms", 0.25)
	r.Observe("fsync_ms", 400000)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if got := buf.String(); got != goldenExposition {
		t.Fatalf("exposition differs:\n%s\nwant:\n%s", got, goldenExposition)
	}
}

const goldenExposition = `# TYPE zenspec_service_leases_granted_total counter
zenspec_service_leases_granted_total 5
# HELP zenspec_service_shards_completed_total Shards that completed, by experiment.
# TYPE zenspec_service_shards_completed_total counter
zenspec_service_shards_completed_total 3
zenspec_service_shards_completed_total{exp="a\"b\\c",worker="w1"} 1
zenspec_service_shards_completed_total{exp="fig2"} 2
# TYPE zenspec_service_fsync_ms histogram
zenspec_service_fsync_ms_bucket{le="1"} 1
zenspec_service_fsync_ms_bucket{le="2"} 1
zenspec_service_fsync_ms_bucket{le="5"} 1
zenspec_service_fsync_ms_bucket{le="10"} 1
zenspec_service_fsync_ms_bucket{le="25"} 1
zenspec_service_fsync_ms_bucket{le="50"} 1
zenspec_service_fsync_ms_bucket{le="100"} 1
zenspec_service_fsync_ms_bucket{le="250"} 1
zenspec_service_fsync_ms_bucket{le="500"} 1
zenspec_service_fsync_ms_bucket{le="1000"} 1
zenspec_service_fsync_ms_bucket{le="2500"} 1
zenspec_service_fsync_ms_bucket{le="5000"} 1
zenspec_service_fsync_ms_bucket{le="10000"} 1
zenspec_service_fsync_ms_bucket{le="30000"} 1
zenspec_service_fsync_ms_bucket{le="60000"} 1
zenspec_service_fsync_ms_bucket{le="300000"} 1
zenspec_service_fsync_ms_bucket{le="+Inf"} 2
zenspec_service_fsync_ms_sum 400000.25
zenspec_service_fsync_ms_count 2
# HELP zenspec_service_shard_wall_ms Completed shard wall clock in ms.
# TYPE zenspec_service_shard_wall_ms histogram
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="1"} 0
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="2"} 0
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="5"} 0
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="10"} 1
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="25"} 1
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="50"} 1
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="100"} 1
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="250"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="500"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="1000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="2500"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="5000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="10000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="30000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="60000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="300000"} 2
zenspec_service_shard_wall_ms_bucket{exp="fig2",le="+Inf"} 2
zenspec_service_shard_wall_ms_sum{exp="fig2"} 127.5
zenspec_service_shard_wall_ms_count{exp="fig2"} 2
`
