package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
)

// bootRegistry registers one experiment that actually simulates a bounded
// program, so profile-enabled jobs carry real samples through the journal.
func bootRegistry(id string) *harness.Registry {
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: id, Title: "boot " + id, Paper: "test fixture", Tags: []string{"fake"},
		Run: func(ctx harness.Ctx) harness.Report {
			k := kernel.New(ctx.Config)
			p := k.NewProcess("boot", kernel.DomainUser)
			b := asm.NewBuilder()
			b.Movi(isa.RAX, 1)
			b.Label("spin")
			b.Jnz(isa.RAX, "spin")
			p.MapCode(0x400000, b.MustAssemble(0x400000))
			res := k.Run(p, 0x400000, 2000) // stops at the instruction limit
			var r harness.Report
			r.Add("insts", float64(res.Insts), 1, 1e9)
			return r
		},
	})
	return reg
}

func TestServerEndToEnd(t *testing.T) {
	reg := bootRegistry("boot")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	c := &Client{Base: base}

	// Liveness and readiness.
	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	// Submit through the client, watch the NDJSON stream to completion.
	spec := JobSpec{Seed: 5, Profile: true}
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := http.Get(base + "/v1/jobs/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	var lastLine JobStatus
	lines := 0
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &lastLine); err != nil {
			t.Fatalf("watch line %d: %v (%q)", lines, err, sc.Text())
		}
		lines++
	}
	watch.Body.Close()
	if lines == 0 || !lastLine.Terminal() {
		t.Fatalf("watch streamed %d lines, last %+v", lines, lastLine)
	}

	st, err := c.Wait(context.Background(), id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job %+v", st)
	}

	// The fetched stable report matches a direct run of the same spec.
	got, err := c.StableReport(id)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := reg.Run(shardRunCtx(spec, d.tab.jobs[id].plan, d.cfg.Parallelism), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.StableJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("fetched stable report differs from direct run:\n%s\nvs\n%s", got, want)
	}

	// Status, list, text report, merged profile.
	if cst, err := c.Status(id); err != nil || cst.ID != id {
		t.Fatalf("client status %+v err %v", cst, err)
	}
	if rep, err := c.Report(id); err != nil || len(rep.Experiments) != 1 {
		t.Fatalf("client report %+v err %v", rep, err)
	}
	if txt, err := c.request("GET", "/v1/jobs/"+id+"/report?text=1", nil); err != nil || !strings.Contains(string(txt), "boot") {
		t.Fatalf("text report %q err %v", txt, err)
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(prof) == 0 {
		t.Fatalf("profile endpoint status %d, %d bytes", resp.StatusCode, len(prof))
	}

	// One registry serves /metrics: the queue gauges beside the counters,
	// and none of the suite telemetry's series.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE zenspec_service_queue_depth gauge\nzenspec_service_queue_depth 0\n",
		"# TYPE zenspec_service_leases_active gauge\nzenspec_service_leases_active 0\n",
		"# TYPE zenspec_service_jobs_active gauge\nzenspec_service_jobs_active 0\n",
		"zenspec_service_jobs_submitted_total 1\n",
		"zenspec_service_jobs_completed_total 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(string(metrics), "zenspec_trials_") {
		t.Errorf("daemon scrape carries suite progress gauges:\n%s", metrics)
	}
	// The host profiler rides the same mux; the suite telemetry's routes
	// do not.
	for path, code := range map[string]int{
		"/debug/pprof/cmdline": http.StatusOK,
		"/progress":            http.StatusNotFound,
		"/profile":             http.StatusNotFound,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("GET %s status %d, want %d", path, resp.StatusCode, code)
		}
	}

	// Unknown jobs and bad specs map to typed client errors, not 500s — the
	// structured {"error", "code"} body carries the sentinel across the wire.
	if _, err := c.Status("ghost"); !errors.Is(err, ErrJobNotFound) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job error = %v", err)
	}
	if _, err := c.Submit(JobSpec{Only: []string{"nope"}}); !errors.Is(err, harness.ErrUnknownExperiment) || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad submit error = %v", err)
	}
	for _, plan := range []string{"bogus", "{broken"} {
		if _, err := c.Submit(JobSpec{Faults: plan}); !errors.Is(err, ErrBadFaults) || !strings.Contains(err.Error(), "400") {
			t.Fatalf("fault plan %q submit error = %v", plan, err)
		}
	}
	// A spec naming a field JobSpec does not have is refused whole, never
	// queued without it: "priority" no longer orders anything.
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"seed":1,"priority":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ae.Code != "bad_request" || !strings.Contains(ae.Error, "priority") {
		t.Fatalf("submit with an unknown field = %d %+v, want 400 bad_request", resp.StatusCode, ae)
	}

	// The meta endpoint names the protocol and the registered experiments.
	meta, err := c.Meta()
	if err != nil || meta.APIVersion != APIVersion || len(meta.Experiments) != 1 || meta.Experiments[0] != "boot" {
		t.Fatalf("meta = %+v, %v", meta, err)
	}

	// A client pinned to a version the daemon does not speak fails typed.
	strict := &Client{Base: base, APIVersion: "v2"}
	if _, err := strict.Status(id); !errors.Is(err, ErrAPIVersion) {
		t.Fatalf("version-mismatch error = %v", err)
	}

	// Every job route answers under /v1, and only there.
	for _, path := range []string{
		"/v1/jobs",
		"/v1/jobs/" + id,
		"/v1/jobs/" + id + "/report",
		"/v1/healthz",
		"/v1/readyz",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s status %d", path, resp.StatusCode)
		}
	}
	resp, err = http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pre-/v1 GET /jobs status %d, want 404", resp.StatusCode)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Ready() {
		t.Fatal("daemon ready after server shutdown")
	}
}

// flakyTransport fails the first n round-trips at the transport level —
// what a client sees while the daemon is down between crash and restart.
type flakyTransport struct{ fails atomic.Int32 }

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.fails.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestWaitPollsThroughOutage(t *testing.T) {
	reg := bootRegistry("boot")
	d, err := Open(Config{Dir: t.TempDir(), Registry: reg, Workers: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	flaky := &flakyTransport{}
	flaky.fails.Store(3)
	c := &Client{Base: "http://" + addr.String(), HTTP: &http.Client{Transport: flaky}}
	id, err := d.Submit(JobSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The first three polls hit the dead-daemon window; Wait rides them out.
	st, err := c.Wait(context.Background(), id, time.Millisecond)
	if err != nil || st.State != JobDone {
		t.Fatalf("Wait through outage = %+v, %v", st, err)
	}
	// API-level errors still fail fast: an unknown job is typed, not a retry.
	if _, err := c.Wait(context.Background(), "ghost", time.Millisecond); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown-job wait error = %v", err)
	}
}
