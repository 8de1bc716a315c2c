package prof

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"zenspec/internal/obs"
)

// Telemetry is the live view of a running experiment suite that
// cmd/experiments -serve exposes over HTTP:
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
	mu      sync.Mutex
	metrics *obs.Metrics
	profile *Profile
	done    int
	total   int
	current string
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
// the background until the process exits. It returns the bound address.
func (t *Telemetry) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, t.Handler())
	return ln.Addr(), nil
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
	t.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WritePromFamily(w, "zenspec_trials_done", "gauge", "")
	obs.WritePromUint(w, "zenspec_trials_done", "", uint64(done))
	obs.WritePromFamily(w, "zenspec_trials_total", "gauge", "")
	obs.WritePromUint(w, "zenspec_trials_total", "", uint64(total))
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
		obs.WritePromFamily(w, n, "counter", "")
		obs.WritePromUint(w, n, "", s.Counters[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		n := promName(k)
		obs.WritePromFamily(w, n, "summary", "")
		obs.WritePromSummary(w, n, h.Count, h.Sum)
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
