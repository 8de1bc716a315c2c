package svcobs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"zenspec/internal/obs"
)

// Prefix is the Prometheus namespace every Registry series is exported
// under: a metric registered as "shards_completed_total" scrapes as
// zenspec_service_shards_completed_total.
const Prefix = "zenspec_service_"

// histBounds are the histogram bucket upper bounds. Values are host
// milliseconds for the *_ms latency series; the dimensionless series (watch
// fan-out) reuse them as plain counts. The range spans a sub-millisecond
// journal fsync to a multi-minute shard.
var histBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}

// hist is one histogram series.
type hist struct {
	count   uint64
	sum     float64
	buckets []uint64 // per bucket, len(histBounds)+1, +Inf last
}

func newHist() *hist { return &hist{buckets: make([]uint64, len(histBounds)+1)} }

func (h *hist) observe(v float64) {
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(histBounds, v)
	h.buckets[i]++
}

// Registry is the service metrics registry: monotonic counters and
// cumulative histograms, optionally labeled, plus gauges sampled at scrape
// time, with Prometheus text exposition. All methods are safe for concurrent
// use.
//
// Series carrying host wall-clock values are inherently nondeterministic;
// MarkVolatile excludes a series (its values always, its very presence and
// count too) from StableSnapshot, the deterministic view the cross-worker
// identity tests compare. Gauges sample live state and never appear there.
type Registry struct {
	mu       sync.Mutex
	counters map[string]map[string]uint64
	hists    map[string]map[string]*hist
	gauges   map[string]func() float64
	help     map[string]string
	volatile map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]map[string]uint64{},
		hists:    map[string]map[string]*hist{},
		gauges:   map[string]func() float64{},
		help:     map[string]string{},
		volatile: map[string]bool{},
	}
}

// Describe attaches HELP text to a metric name (shown on /metrics).
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// MarkVolatile excludes the named metric from StableSnapshot: its counts are
// functions of host timing (heartbeat races, journal segment boundaries),
// not of the job's deterministic execution.
func (r *Registry) MarkVolatile(names ...string) {
	r.mu.Lock()
	for _, n := range names {
		r.volatile[n] = true
	}
	r.mu.Unlock()
}

// Gauge publishes an unlabeled gauge whose value fn samples at every scrape;
// registering a name again replaces its sampler. fn runs without the
// registry's lock held, so it may take locks under which other goroutines
// update this registry.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Inc adds n to the unlabeled counter series of name.
func (r *Registry) Inc(name string, n uint64) { r.IncL(name, "", n) }

// IncL adds n to the counter series of name with the given label set
// (rendered by obs.PromLabel, comma-joined for multiple pairs; "" means
// unlabeled).
func (r *Registry) IncL(name, labels string, n uint64) {
	r.mu.Lock()
	s := r.counters[name]
	if s == nil {
		s = map[string]uint64{}
		r.counters[name] = s
	}
	s[labels] += n
	r.mu.Unlock()
}

// Observe records v in the unlabeled histogram series of name.
func (r *Registry) Observe(name string, v float64) { r.ObserveL(name, "", v) }

// ObserveL records v in the histogram series of name with the given labels.
func (r *Registry) ObserveL(name, labels string, v float64) {
	r.mu.Lock()
	s := r.hists[name]
	if s == nil {
		s = map[string]*hist{}
		r.hists[name] = s
	}
	h := s[labels]
	if h == nil {
		h = newHist()
		s[labels] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// WritePrometheus writes the registry as Prometheus text exposition, every
// name under the zenspec_service_ prefix and sorted for a stable scrape
// layout: gauges, then counters, then histograms. It is what the daemon
// serves on /metrics.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	gnames := sortedKeys(r.gauges)
	gfns := make([]func() float64, len(gnames))
	for i, n := range gnames {
		gfns[i] = r.gauges[n]
	}
	r.mu.Unlock()
	// Sampled with the lock released: a sampler may wait on a lock whose
	// holder is updating this registry.
	gvals := make([]float64, len(gfns))
	for i, fn := range gfns {
		gvals[i] = fn()
	}

	// Rendered under the lock, written after it: a slow reader of w must
	// not hold up the updates the daemon makes under its own lock.
	var buf bytes.Buffer
	r.mu.Lock()
	for i, n := range gnames {
		obs.WritePromFamily(&buf, Prefix+n, "gauge", r.help[n])
		obs.WritePromFloat(&buf, Prefix+n, "", gvals[i])
	}
	for _, n := range sortedKeys(r.counters) {
		obs.WritePromFamily(&buf, Prefix+n, "counter", r.help[n])
		s := r.counters[n]
		for _, l := range sortedKeys(s) {
			obs.WritePromUint(&buf, Prefix+n, l, s[l])
		}
	}
	for _, n := range sortedKeys(r.hists) {
		obs.WritePromFamily(&buf, Prefix+n, "histogram", r.help[n])
		s := r.hists[n]
		for _, l := range sortedKeys(s) {
			h := s[l]
			obs.WritePromHistogram(&buf, Prefix+n, l, histBounds, h.buckets, h.sum, h.count)
		}
	}
	r.mu.Unlock()
	w.Write(buf.Bytes())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StableSnapshot renders the deterministic projection of the registry as
// sorted "series value" lines: every non-volatile counter, and every
// non-volatile histogram's observation *count* — never its sum or bucket
// tallies, which hold host wall-clock values. Two runs of the same
// deterministic job produce byte-identical stable snapshots at any worker
// count; the cross-worker tests compare exactly this.
func (r *Registry) StableSnapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, s := range r.counters {
		if r.volatile[n] {
			continue
		}
		for l, v := range s {
			lines = append(lines, fmt.Sprintf("%s %d", obs.PromSeries(n, l), v))
		}
	}
	for n, s := range r.hists {
		if r.volatile[n] {
			continue
		}
		for l, h := range s {
			lines = append(lines, fmt.Sprintf("%s %d", obs.PromSeries(n+"_count", l), h.count))
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}
