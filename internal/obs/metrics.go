package obs

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"zenspec/internal/pmc"
)

// Metrics is an Observer that folds events into a registry of monotonic
// counters and histograms. It is safe for concurrent HandleEvent calls, so one
// registry can be shared by all parallel trials of an experiment: counter sums
// and histogram bucket sums commute, which keeps Snapshot deterministic at any
// worker count.
//
// Every counter the simulator's events produce has a fixed id, and a registry
// counts into one array indexed by it. Names are attached only when Snapshot
// or Counter reads the array, so folding an event hashes no string.
//
// Bus.Subscribe gives each bus a shard of its own: a registry kept in this
// one, which only that machine feeds, so parallel machines never wait on
// each other's lock. Snapshot and Counter add the shards up.
type Metrics struct {
	mu sync.Mutex
	tally
	// shards grows only, so a subscription cancelled keeps its counts.
	shards []*Metrics
}

// tally is what one registry or shard counts, and what Snapshot sums them
// into.
type tally struct {
	counts [numCounters]uint64
	hists  [numHists]Histogram
	// other counts, by name, the values outside the fixed table (a predictor
	// or a cache level the simulator does not model); nil until one arrives.
	other map[string]uint64
}

// Counter ids. A run of ids indexed by a value (a squash kind, a train type,
// a predictor, a cache level, a fault kind, a pmc event) follows the value's
// order.
const (
	cInstRetired = iota
	cInstTransient
	cSquashTotal
	cSquashBranch // + SquashKind
	cSquashBypass
	cSquashPSF
	cSquashFault
	cForwardPSF
	cForwardSTLF
	cPredictQueries
	cPredictPSFPHit
	cPredictAliasing
	cPredictPSF
	cPSFPTrain
	cTrainA // + train type - 'A'
	cTrainB
	cTrainC
	cTrainD
	cTrainE
	cTrainF
	cTrainG
	cTrainH
	cPSFPAlloc
	cSSBPTransition
	cSSBPStateChange
	cPSFPEvict // + place in predictors
	cSSBPEvict
	cPSFPFlush // + place in predictors
	cSSBPFlush
	cFillL1 // + place in levels
	cFillL2
	cFillL3
	cEvictL1 // + place in levels
	cEvictL2
	cEvictL3
	cCacheFlush
	cProbeHit
	cProbeMiss
	cContextSwitch
	cDomainChange
	cFaultInjected
	cFaultPSFPEvict // + place in faultKinds
	cFaultSSBPFlip
	cFaultSpuriousTrain
	cFaultCacheEvict
	cFaultTrialError
	cFaultTrialPanic
	cFaultTrialOverrun
	cPMC        // + pmc.Event
	numCounters = cPMC + pmc.NumEvents
)

// counterNames names every counter id below cPMC; pmc counters are named
// "pmc.<key>" by counterName.
var counterNames = [cPMC]string{
	cInstRetired:        "inst.retired",
	cInstTransient:      "inst.transient",
	cSquashTotal:        "squash.total",
	cSquashBranch:       "squash.branch",
	cSquashBypass:       "squash.stl-bypass",
	cSquashPSF:          "squash.psf-forward",
	cSquashFault:        "squash.fault-window",
	cForwardPSF:         "forward.psf",
	cForwardSTLF:        "forward.stlf",
	cPredictQueries:     "predict.queries",
	cPredictPSFPHit:     "predict.psfp_hit",
	cPredictAliasing:    "predict.aliasing",
	cPredictPSF:         "predict.psf",
	cPSFPTrain:          "predict.psfp_train",
	cTrainA:             "predict.train_type_A",
	cTrainB:             "predict.train_type_B",
	cTrainC:             "predict.train_type_C",
	cTrainD:             "predict.train_type_D",
	cTrainE:             "predict.train_type_E",
	cTrainF:             "predict.train_type_F",
	cTrainG:             "predict.train_type_G",
	cTrainH:             "predict.train_type_H",
	cPSFPAlloc:          "predict.psfp_alloc",
	cSSBPTransition:     "predict.ssbp_transition",
	cSSBPStateChange:    "predict.ssbp_state_change",
	cPSFPEvict:          "predict.psfp_evict",
	cSSBPEvict:          "predict.ssbp_evict",
	cPSFPFlush:          "predict.psfp_flush",
	cSSBPFlush:          "predict.ssbp_flush",
	cFillL1:             "cache.fill.L1",
	cFillL2:             "cache.fill.L2",
	cFillL3:             "cache.fill.L3",
	cEvictL1:            "cache.evict.L1",
	cEvictL2:            "cache.evict.L2",
	cEvictL3:            "cache.evict.L3",
	cCacheFlush:         "cache.flush",
	cProbeHit:           "probe.hit",
	cProbeMiss:          "probe.miss",
	cContextSwitch:      "kernel.context_switch",
	cDomainChange:       "kernel.domain_change",
	cFaultInjected:      "fault.injected",
	cFaultPSFPEvict:     "fault.psfp-evict",
	cFaultSSBPFlip:      "fault.ssbp-flip",
	cFaultSpuriousTrain: "fault.spurious-train",
	cFaultCacheEvict:    "fault.cache-evict",
	cFaultTrialError:    "fault.trial-error",
	cFaultTrialPanic:    "fault.trial-panic",
	cFaultTrialOverrun:  "fault.trial-overrun",
}

// counterName returns counter id's name.
func counterName(id int) string {
	if id >= cPMC {
		return "pmc." + pmc.Event(id-cPMC).Key()
	}
	return counterNames[id]
}

// Histogram ids and names.
const (
	hSquashWindowInsts = iota
	hSquashWindowCycles
	hProbeCycles
	numHists
)

var histNames = [numHists]string{
	hSquashWindowInsts:  "squash.window_insts",
	hSquashWindowCycles: "squash.window_cycles",
	hProbeCycles:        "probe.cycles",
}

// NewMetrics returns an empty registry subscribed to nothing; attach it with
// Bus.Subscribe or a Config.Observer field.
func NewMetrics() *Metrics { return &Metrics{} }

// shard returns an empty registry kept in m, for one bus to feed.
func (m *Metrics) shard() *Metrics {
	s := NewMetrics()
	m.mu.Lock()
	m.shards = append(m.shards, s)
	m.mu.Unlock()
	return s
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
	m.mu.Lock()
	m.counts[cInstTransient] += transient
	m.counts[cInstRetired] += uint64(len(evs)) - transient
	m.mu.Unlock()
}

// HandleEvent implements Observer. It neither keeps e nor passes it on, so a
// caller that converts a concrete event to hand it here keeps the conversion
// on its stack: that is how Emit reaches a registry without boxing.
func (m *Metrics) HandleEvent(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	switch ev := e.(type) {
	case InstEvent:
		if ev.Transient {
			c[cInstTransient]++
		} else {
			c[cInstRetired]++
		}
	case SquashEvent:
		c[cSquashTotal]++
		if ev.Kind <= SquashFault {
			c[cSquashBranch+int(ev.Kind)]++
		} else {
			m.incOther("squash." + ev.Kind.String())
		}
		m.hists[hSquashWindowInsts].add(uint64(ev.Insts))
		if ev.Verify > ev.Start {
			m.hists[hSquashWindowCycles].add(uint64(ev.Verify - ev.Start))
		}
	case ForwardEvent:
		if ev.PSF {
			c[cForwardPSF]++
		} else {
			c[cForwardSTLF]++
		}
	case PredictEvent:
		c[cPredictQueries]++
		if ev.PSFPHit {
			c[cPredictPSFPHit]++
		}
		if ev.Aliasing {
			c[cPredictAliasing]++
		}
		if ev.PSF {
			c[cPredictPSF]++
		}
	case PSFPTrainEvent:
		c[cPSFPTrain]++
		if t := ev.Type; len(t) == 1 && t[0] >= 'A' && t[0] <= 'H' {
			c[cTrainA+int(t[0]-'A')]++
		} else {
			m.incOther("predict.train_type_" + t)
		}
		if ev.Allocated {
			c[cPSFPAlloc]++
		}
	case SSBPTransitionEvent:
		c[cSSBPTransition]++
		if ev.StateBefore != ev.StateAfter {
			c[cSSBPStateChange]++
		}
	case PredictorEvictEvent:
		m.inc(cPSFPEvict, predictors, ev.Predictor, "predict.", "_evict")
	case PredictorFlushEvent:
		m.inc(cPSFPFlush, predictors, ev.Predictor, "predict.", "_flush")
	case CacheEvent:
		switch ev.Kind {
		case "fill":
			m.inc(cFillL1, levels, ev.Level, "cache.fill.", "")
		case "evict":
			m.inc(cEvictL1, levels, ev.Level, "cache.evict.", "")
		case "flush":
			c[cCacheFlush]++
		}
	case ProbeEvent:
		if ev.Hit {
			c[cProbeHit]++
		} else {
			c[cProbeMiss]++
		}
		m.hists[hProbeCycles].add(ev.Cycles)
	case ContextSwitchEvent:
		c[cContextSwitch]++
		if ev.FromDomain != ev.ToDomain {
			c[cDomainChange]++
		}
	case FaultEvent:
		c[cFaultInjected]++
		m.inc(cFaultPSFPEvict, faultKinds, ev.Kind, "fault.", "")
	case PMCEvent:
		// Bridge the Fig 2 PMC namespace into the registry: one monotonic
		// counter per pmc event key, summed over runs (commutative, so the
		// snapshot stays deterministic at any worker count).
		for i := range pmc.NumEvents {
			c[cPMC+i] += ev.Counts.Get(pmc.Event(i))
		}
	}
}

// The values that index the runs of counter ids, in id order.
var (
	predictors = []string{"psfp", "ssbp"}
	levels     = []string{"L1", "L2", "L3"}
	faultKinds = []string{"psfp-evict", "ssbp-flip", "spurious-train", "cache-evict", "trial-error", "trial-panic", "trial-overrun"}
)

// inc adds one to the counter of value v in the run of ids from first, in
// the order of values; a v outside values counts under prefix+v+suffix
// instead. m.mu is held.
func (m *Metrics) inc(first int, values []string, v, prefix, suffix string) {
	if i := slices.Index(values, v); i >= 0 {
		m.counts[first+i]++
	} else {
		m.incOther(prefix + v + suffix)
	}
}

// incOther adds one to the named counter outside the fixed table. m.mu is
// held.
func (m *Metrics) incOther(name string) {
	if m.other == nil {
		m.other = make(map[string]uint64)
	}
	m.other[name]++
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

// merge folds o into h.
func (h *Histogram) merge(o *Histogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
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
	var sum tally
	m.mu.Lock()
	sum.add(&m.tally)
	shards := m.shards
	m.mu.Unlock()
	for _, sh := range shards {
		sh.mu.Lock()
		sum.add(&sh.tally)
		sh.mu.Unlock()
	}
	return sum.snapshot()
}

// add folds o into t.
func (t *tally) add(o *tally) {
	for id, n := range o.counts {
		t.counts[id] += n
	}
	for id := range o.hists {
		t.hists[id].merge(&o.hists[id])
	}
	for name, n := range o.other {
		if t.other == nil {
			t.other = make(map[string]uint64, len(o.other))
		}
		t.other[name] += n
	}
}

// snapshot names t's counters and histograms: those that are not zero.
func (t *tally) snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{}
	for id, n := range t.counts {
		if n != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[counterName(id)] = n
		}
	}
	for name, n := range t.other {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64)
		}
		s.Counters[name] += n
	}
	for id := range t.hists {
		h := &t.hists[id]
		if h.Count == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]*HistogramSnapshot, numHists)
		}
		hs := &HistogramSnapshot{Count: h.Count, Sum: h.Sum, Max: h.Max, Buckets: make(map[string]uint64)}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			var bound uint64
			if i > 0 {
				bound = 1<<uint(i) - 1
			}
			hs.Buckets[fmt.Sprintf("%d", bound)] = n
		}
		s.Histograms[histNames[id]] = hs
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
