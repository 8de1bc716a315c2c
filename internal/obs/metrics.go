package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"zenspec/internal/pmc"
)

// Metrics is an Observer that folds events into a registry of monotonic
// counters and histograms. It is safe for concurrent HandleEvent calls, so one
// registry can be shared by all parallel trials of an experiment: counter sums
// and histogram bucket sums commute, which keeps Snapshot deterministic at any
// worker count.
//
// Bus.Subscribe gives each bus a shard of its own: a registry kept in this
// one, which only that machine feeds, so parallel machines never wait on
// each other's lock. Snapshot and Counter add the shards up.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
	hists    map[string]*Histogram
	// retired and transient count instruction events outside the mutex and
	// the map: every simulated instruction lands here. Snapshot and Counter
	// report them as inst.retired and inst.transient.
	retired, transient atomic.Uint64
	// shards grows only, so a subscription cancelled keeps its counts.
	shards []*Metrics
}

// Counter names of the values the simulator emits, built once by the first
// NewMetrics, so that folding an event concatenates no string and a process
// that never observes pays nothing at start-up.
var (
	namesOnce sync.Once
	pmcNames  [pmc.NumEvents]string // pmcNames[e] is the counter of pmc event e
	squashNames, trainNames, evictNames, flushNames,
	cacheFillNames, cacheEvictNames, faultNames *nameTable
)

func buildNames() {
	for i := range pmcNames {
		pmcNames[i] = "pmc." + pmc.Event(i).Key()
	}
	squashNames = newNameTable("squash.", "", SquashBranch.String(), SquashBypass.String(), SquashPSF.String(), SquashFault.String())
	trainNames = newNameTable("predict.train_type_", "", "A", "B", "C", "D", "E", "F", "G", "H")
	evictNames = newNameTable("predict.", "_evict", "psfp", "ssbp")
	flushNames = newNameTable("predict.", "_flush", "psfp", "ssbp")
	cacheFillNames = newNameTable("cache.fill.", "", "L1", "L2", "L3")
	cacheEvictNames = newNameTable("cache.evict.", "", "L1", "L2", "L3")
	faultNames = newNameTable("fault.", "", "psfp-evict", "ssbp-flip", "spurious-train", "cache-evict", "trial-error", "trial-panic", "trial-overrun")
}

// nameTable maps a value v to its counter name prefix+v+suffix.
type nameTable struct {
	prefix, suffix string
	values, names  []string
}

func newNameTable(prefix, suffix string, values ...string) *nameTable {
	t := &nameTable{prefix: prefix, suffix: suffix, values: values, names: make([]string, len(values))}
	for i, v := range values {
		t.names[i] = prefix + v + suffix
	}
	return t
}

// name returns v's counter name, prebuilt unless v is outside the table.
func (t *nameTable) name(v string) string {
	for i, known := range t.values {
		if known == v {
			return t.names[i]
		}
	}
	return t.prefix + v + t.suffix
}

// NewMetrics returns an empty registry subscribed to nothing; attach it with
// Bus.Subscribe or a Config.Observer field.
func NewMetrics() *Metrics {
	namesOnce.Do(buildNames)
	return &Metrics{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Histogram),
	}
}

// shard returns an empty registry kept in m, for one bus to feed.
func (m *Metrics) shard() *Metrics {
	s := NewMetrics()
	m.mu.Lock()
	m.shards = append(m.shards, s)
	m.mu.Unlock()
	return s
}

// Inc adds n to the named counter.
func (m *Metrics) Inc(name string, n uint64) {
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// Observe records v in the named histogram.
func (m *Metrics) Observe(name string, v uint64) {
	m.mu.Lock()
	m.observe(name, v)
	m.mu.Unlock()
}

// observe is Observe with m.mu held.
func (m *Metrics) observe(name string, v uint64) {
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.add(v)
}

// HandleInsts implements InstObserver: a batch adds to each instruction
// counter once.
func (m *Metrics) HandleInsts(evs []InstEvent) {
	var transient uint64
	for i := range evs {
		if evs[i].Transient {
			transient++
		}
	}
	if transient != 0 {
		m.transient.Add(transient)
	}
	if retired := uint64(len(evs)) - transient; retired != 0 {
		m.retired.Add(retired)
	}
}

// HandleEvent implements Observer.
func (m *Metrics) HandleEvent(e Event) {
	if ev, ok := e.(InstEvent); ok {
		m.HandleInsts([]InstEvent{ev})
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters
	switch ev := e.(type) {
	case SquashEvent:
		c["squash.total"]++
		c[squashNames.name(ev.Kind.String())]++
		m.observe("squash.window_insts", uint64(ev.Insts))
		if ev.Verify > ev.Start {
			m.observe("squash.window_cycles", uint64(ev.Verify-ev.Start))
		}
	case ForwardEvent:
		if ev.PSF {
			c["forward.psf"]++
		} else {
			c["forward.stlf"]++
		}
	case PredictEvent:
		c["predict.queries"]++
		if ev.PSFPHit {
			c["predict.psfp_hit"]++
		}
		if ev.Aliasing {
			c["predict.aliasing"]++
		}
		if ev.PSF {
			c["predict.psf"]++
		}
	case PSFPTrainEvent:
		c["predict.psfp_train"]++
		c[trainNames.name(ev.Type)]++
		if ev.Allocated {
			c["predict.psfp_alloc"]++
		}
	case SSBPTransitionEvent:
		c["predict.ssbp_transition"]++
		if ev.StateBefore != ev.StateAfter {
			c["predict.ssbp_state_change"]++
		}
	case PredictorEvictEvent:
		c[evictNames.name(ev.Predictor)]++
	case PredictorFlushEvent:
		c[flushNames.name(ev.Predictor)]++
	case CacheEvent:
		switch ev.Kind {
		case "fill":
			c[cacheFillNames.name(ev.Level)]++
		case "evict":
			c[cacheEvictNames.name(ev.Level)]++
		case "flush":
			c["cache.flush"]++
		}
	case ProbeEvent:
		if ev.Hit {
			c["probe.hit"]++
		} else {
			c["probe.miss"]++
		}
		m.observe("probe.cycles", ev.Cycles)
	case ContextSwitchEvent:
		c["kernel.context_switch"]++
		if ev.FromDomain != ev.ToDomain {
			c["kernel.domain_change"]++
		}
	case FaultEvent:
		c["fault.injected"]++
		c[faultNames.name(ev.Kind)]++
	case PMCEvent:
		// Bridge the Fig 2 PMC namespace into the registry: one monotonic
		// counter per pmc event key, summed over runs (commutative, so the
		// snapshot stays deterministic at any worker count).
		for i, name := range pmcNames {
			if n := ev.Counts.Get(pmc.Event(i)); n != 0 {
				c[name] += n
			}
		}
	}
}

// Histogram is a power-of-two-bucketed histogram: bucket i counts values v
// with bitlen(v) == i, i.e. bucket 0 holds v==0, bucket i>0 holds
// 2^(i-1) <= v < 2^i. Exponential buckets keep snapshots tiny while still
// separating e.g. cache-hit from cache-miss probe latencies and short from
// long transient windows.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [65]uint64
}

func (h *Histogram) add(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(v)]++
}

// HistogramSnapshot is the JSON form of a Histogram: sparse buckets keyed by
// their upper bound.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	// Buckets maps the bucket's inclusive upper bound ("0", "1", "3", "7",
	// ... "2^i - 1") to its count; empty buckets are omitted.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// MetricsSnapshot is a point-in-time copy of a registry, shaped for JSON.
// encoding/json sorts map keys, so snapshots of deterministic runs marshal
// byte-identically regardless of accumulation order.
type MetricsSnapshot struct {
	Counters   map[string]uint64             `json:"counters,omitempty"`
	Histograms map[string]*HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry, its shards folded in. Derived rates (e.g.
// PSFP hit rate) are left to consumers: predict.psfp_hit / predict.queries.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	m.mu.Lock()
	s := m.snapshotLocked()
	shards := m.shards
	m.mu.Unlock()
	for _, sh := range shards {
		s.Merge(sh.Snapshot())
	}
	return s
}

// snapshotLocked copies m's own counts, without its shards. m.mu is held.
func (m *Metrics) snapshotLocked() *MetricsSnapshot {
	s := &MetricsSnapshot{}
	retired, transient := m.retired.Load(), m.transient.Load()
	if len(m.counters) > 0 || retired != 0 || transient != 0 {
		s.Counters = make(map[string]uint64, len(m.counters)+2)
		for k, v := range m.counters {
			s.Counters[k] = v
		}
		if retired != 0 {
			s.Counters["inst.retired"] += retired
		}
		if transient != 0 {
			s.Counters["inst.transient"] += transient
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]*HistogramSnapshot, len(m.hists))
		for k, h := range m.hists {
			hs := &HistogramSnapshot{Count: h.Count, Sum: h.Sum, Max: h.Max}
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				if hs.Buckets == nil {
					hs.Buckets = make(map[string]uint64)
				}
				var bound uint64
				if i > 0 {
					bound = 1<<uint(i) - 1
				}
				hs.Buckets[fmt.Sprintf("%d", bound)] = n
			}
			s.Histograms[k] = hs
		}
	}
	return s
}

// Merge folds other into s: counters and histogram fields (counts, sums,
// bucket tallies) are summed, maxima are taken elementwise. Every field is an
// order-independent fold and encoding/json sorts map keys, so merging the
// per-range snapshots of a sharded experiment marshals byte-identically to
// the single snapshot an unsharded run of the same trials would have taken —
// the property the service's trial-range shards rely on.
func (s *MetricsSnapshot) Merge(other *MetricsSnapshot) {
	if other == nil {
		return
	}
	for k, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64, len(other.Counters))
		}
		s.Counters[k] += v
	}
	for k, oh := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]*HistogramSnapshot, len(other.Histograms))
		}
		h := s.Histograms[k]
		if h == nil {
			h = &HistogramSnapshot{}
			s.Histograms[k] = h
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		if oh.Max > h.Max {
			h.Max = oh.Max
		}
		for bound, n := range oh.Buckets {
			if h.Buckets == nil {
				h.Buckets = make(map[string]uint64, len(oh.Buckets))
			}
			h.Buckets[bound] += n
		}
	}
}

// Counter returns the named counter's value (0 when absent), its shards'
// counts included.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	n := m.counters[name]
	shards := m.shards
	m.mu.Unlock()
	switch name {
	case "inst.retired":
		n += m.retired.Load()
	case "inst.transient":
		n += m.transient.Load()
	}
	for _, sh := range shards {
		n += sh.Counter(name)
	}
	return n
}

// Text renders the snapshot as sorted "name value" lines for terminal output.
func (s *MetricsSnapshot) Text() string {
	if s == nil {
		return ""
	}
	var out string
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out += fmt.Sprintf("  %-32s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		mean := float64(0)
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		out += fmt.Sprintf("  %-32s n=%d mean=%.1f max=%d\n", k, h.Count, mean, h.Max)
	}
	return out
}
