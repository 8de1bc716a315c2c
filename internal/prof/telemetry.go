package prof

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"zenspec/internal/obs"
)

// Telemetry is a live view of a running experiment suite, served over HTTP:
//
//	/metrics      Prometheus text exposition of the obs metrics registry
//	              plus suite-progress gauges
//	/progress     JSON {done, total, current}
//	/profile      current simulated-machine profile, pprof protobuf
//	              (go tool pprof http://host:port/profile)
//	/profile.txt  current profile as the Top table
//	/debug/pprof/ the Go runtime's own profiler, for the host process
//
// The simulated profile and the host pprof endpoints deliberately live on the
// same mux: one is the machine under study, the other the simulator studying
// it.
type Telemetry struct {
	mu         sync.Mutex
	metrics    *obs.Metrics
	profile    *Profile
	done       int
	total      int
	current    string
	gauges     map[string]func() float64
	collectors map[string]func(io.Writer)
	srv        *http.Server
}

// NewTelemetry returns an empty telemetry hub; wire in sources with
// SetMetrics/SetProfile and drive Progress from the harness callback.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// SetMetrics publishes a live metrics registry.
func (t *Telemetry) SetMetrics(m *obs.Metrics) {
	t.mu.Lock()
	t.metrics = m
	t.mu.Unlock()
}

// SetProfile publishes a live profile.
func (t *Telemetry) SetProfile(p *Profile) {
	t.mu.Lock()
	t.profile = p
	t.mu.Unlock()
}

// Progress records suite progress; the harness calls it after every trial.
func (t *Telemetry) Progress(done, total int, id string) {
	t.mu.Lock()
	t.done, t.total, t.current = done, total, id
	t.mu.Unlock()
}

// RegisterGauge publishes a named gauge on /metrics, sampled by calling fn at
// scrape time (the name goes through the usual zenspec_ prefixing). This is
// how the service plane exposes queue depth, lease counts and the like without
// the telemetry hub knowing about jobs. Re-registering a name replaces its
// sampler; fn must be safe for concurrent calls and is invoked without the
// hub's lock held, so it may call back into the hub.
func (t *Telemetry) RegisterGauge(name string, fn func() float64) {
	t.mu.Lock()
	if t.gauges == nil {
		t.gauges = map[string]func() float64{}
	}
	t.gauges[name] = fn
	t.mu.Unlock()
}

// RegisterCollector publishes a raw Prometheus-text collector on /metrics:
// fn is called at scrape time (outside the hub's lock) and writes its own
// fully-formed exposition lines — HELP/TYPE included — after the gauge and
// obs sections. This is how the service plane mounts its zenspec_service_*
// counter and histogram registry without the telemetry hub knowing about
// jobs. Re-registering a name replaces its collector.
func (t *Telemetry) RegisterCollector(name string, fn func(io.Writer)) {
	t.mu.Lock()
	if t.collectors == nil {
		t.collectors = map[string]func(io.Writer){}
	}
	t.collectors[name] = fn
	t.mu.Unlock()
}

// Handler returns the telemetry mux.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.HandleFunc("/progress", t.serveProgress)
	mux.HandleFunc("/profile", t.serveProfile)
	mux.HandleFunc("/profile.txt", t.serveProfileText)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the telemetry mux in
// the background. It returns the bound address; the server lives until the
// process exits or Shutdown is called.
func (t *Telemetry) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: t.Handler()}
	t.mu.Lock()
	t.srv = srv
	t.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server started by Serve: the listener closes
// immediately (new connections are refused) while requests already in flight
// run to completion, bounded by ctx. It is a no-op when nothing is serving,
// and safe to call more than once.
func (t *Telemetry) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	srv := t.srv
	t.srv = nil
	t.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// promName maps a dotted metrics key to a Prometheus metric name.
func promName(key string) string {
	var b strings.Builder
	b.WriteString("zenspec_")
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (t *Telemetry) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	m := t.metrics
	done, total := t.done, t.total
	gnames := make([]string, 0, len(t.gauges))
	for k := range t.gauges {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	gfns := make([]func() float64, len(gnames))
	for i, k := range gnames {
		gfns[i] = t.gauges[k]
	}
	cnames := make([]string, 0, len(t.collectors))
	for k := range t.collectors {
		cnames = append(cnames, k)
	}
	sort.Strings(cnames)
	cfns := make([]func(io.Writer), len(cnames))
	for i, k := range cnames {
		cfns[i] = t.collectors[k]
	}
	t.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE zenspec_trials_done gauge\nzenspec_trials_done %d\n", done)
	fmt.Fprintf(w, "# TYPE zenspec_trials_total gauge\nzenspec_trials_total %d\n", total)
	for i, k := range gnames {
		n := promName(k)
		// Sampled outside the lock: a gauge may consult the hub itself.
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, gfns[i]())
	}
	for _, fn := range cfns {
		// Likewise outside the lock; collectors write their own exposition.
		fn(w)
	}
	if m == nil {
		return
	}
	s := m.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		fmt.Fprintf(w, "%s_count %d\n%s_sum %d\n", n, h.Count, n, h.Sum)
	}
}

func (t *Telemetry) serveProgress(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	out := struct {
		Done    int    `json:"done"`
		Total   int    `json:"total"`
		Current string `json:"current,omitempty"`
	}{t.done, t.total, t.current}
	t.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (t *Telemetry) serveProfile(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	p := t.profile
	t.mu.Unlock()
	if p == nil {
		http.Error(w, "no profile source attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="zenspec.pb.gz"`)
	p.Snapshot().WritePprof(w)
}

func (t *Telemetry) serveProfileText(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	p := t.profile
	t.mu.Unlock()
	if p == nil {
		http.Error(w, "no profile source attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, p.Snapshot().Text(30))
}
