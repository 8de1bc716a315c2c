package prof

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/obs"
	"zenspec/internal/pmc"
)

func telemetryFixture() *Telemetry {
	t := NewTelemetry()
	m := obs.NewMetrics()
	var counts pmc.Counters
	counts.Add(pmc.SQStallCycles, 120)
	m.HandleEvent(obs.PMCEvent{Counts: counts})
	for range 3 {
		m.HandleEvent(obs.SquashEvent{Kind: obs.SquashBypass, Insts: 2})
	}
	m.HandleEvent(obs.ProbeEvent{Hit: true, Cycles: 42})
	t.SetMetrics(m)
	p := New()
	p.HandleEvent(inst(0x400028, isa.LOAD, 10, 12, 40, 20, 0, 45))
	t.SetProfile(p)
	t.Progress(3, 12, "spectre-stl")
	return t
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// TestMetricsEndpoint pins the /metrics scrape of cmd/experiments -serve
// byte for byte: the progress gauges, then the obs counters, then one
// summary per histogram.
func TestMetricsEndpoint(t *testing.T) {
	code, body := get(t, telemetryFixture().Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	const want = `# TYPE zenspec_trials_done gauge
zenspec_trials_done 3
# TYPE zenspec_trials_total gauge
zenspec_trials_total 12
# TYPE zenspec_pmc_sq_stall_cycles counter
zenspec_pmc_sq_stall_cycles 120
# TYPE zenspec_probe_hit counter
zenspec_probe_hit 1
# TYPE zenspec_squash_stl_bypass counter
zenspec_squash_stl_bypass 3
# TYPE zenspec_squash_total counter
zenspec_squash_total 3
# TYPE zenspec_probe_cycles summary
zenspec_probe_cycles_count 1
zenspec_probe_cycles_sum 42
# TYPE zenspec_squash_window_insts summary
zenspec_squash_window_insts_count 3
zenspec_squash_window_insts_sum 6
`
	if body != want {
		t.Fatalf("scrape differs:\n%s\nwant:\n%s", body, want)
	}
}

func TestProgressEndpoint(t *testing.T) {
	h := telemetryFixture().Handler()
	code, body := get(t, h, "/progress")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, `"done":3`) || !strings.Contains(body, `"current":"spectre-stl"`) {
		t.Errorf("progress = %s", body)
	}
}

func TestProfileEndpoints(t *testing.T) {
	h := telemetryFixture().Handler()
	code, body := get(t, h, "/profile")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	vals, err := parsePprof(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("served profile does not parse: %v", err)
	}
	if _, ok := vals["load@0x400028"]; !ok {
		t.Errorf("served profile missing the load sample: %v", vals)
	}

	code, txt := get(t, h, "/profile.txt")
	if code != 200 || !strings.Contains(txt, "0x400028") {
		t.Errorf("profile.txt status %d body %q", code, txt)
	}
}

func TestProfileEndpointWithoutSource(t *testing.T) {
	h := NewTelemetry().Handler()
	if code, _ := get(t, h, "/profile"); code != http.StatusNotFound {
		t.Errorf("status %d, want 404", code)
	}
}

func TestHostPprofMounted(t *testing.T) {
	h := telemetryFixture().Handler()
	if code, body := get(t, h, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("host pprof cmdline status %d", code)
	}
}
