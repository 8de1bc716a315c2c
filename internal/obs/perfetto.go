package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"zenspec/internal/pmc"
)

// Perfetto track layout: one fake "process" per subsystem so the UI groups
// tracks the way the simulator is structured. Hardware threads get
// pid=pidCores with tid=CPU index; the other subsystems get one thread each.
const (
	pidCores      = 1
	pidPredictors = 2
	pidCache      = 3
	pidKernel     = 4

	tidPSFP  = 0
	tidSSBP  = 1
	tidCache = 0
	tidOS    = 0
	tidFault = 1
	tidProbe = 2
)

// traceEvent is one Chrome trace-event object (the JSON Perfetto ingests).
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Recorder is an Observer that buffers events and renders them as a Chrome
// trace-event / Perfetto JSON timeline (one microsecond of trace time per
// simulated cycle). It is safe for concurrent HandleEvent calls, but a
// meaningful single timeline needs Parallelism=1 — cmd/experiments forces
// that when -trace is given.
type Recorder struct {
	mu     sync.Mutex
	events []traceEvent
	seq    []int // emission order, for a stable sort tiebreak
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Len returns the number of recorded trace events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func (r *Recorder) push(te traceEvent) {
	r.mu.Lock()
	r.seq = append(r.seq, len(r.events))
	r.events = append(r.events, te)
	r.mu.Unlock()
}

// HandleInsts implements InstObserver. The events are copied into the
// buffer, never retained.
func (r *Recorder) HandleInsts(evs []InstEvent) {
	for i := range evs {
		r.pushInst(&evs[i])
	}
}

func (r *Recorder) pushInst(e *InstEvent) {
	cat := "arch"
	if e.Transient {
		cat = "transient"
	}
	r.push(traceEvent{
		Name: e.Inst.Op.String(), Phase: "X", TS: e.RetiredBy, Dur: 1,
		PID: pidCores, TID: e.CPU, Cat: cat,
		Args: map[string]any{
			"pc":  hex(e.PC),
			"ipa": hex(e.IPA),
		},
	})
}

// HandleEvent implements Observer.
func (r *Recorder) HandleEvent(e Event) {
	switch ev := e.(type) {
	case InstEvent:
		r.pushInst(&ev)
	case SquashEvent:
		dur := ev.Verify - ev.Start
		if dur < 1 {
			dur = 1
		}
		r.push(traceEvent{
			Name: "squash:" + ev.Kind.String(), Phase: "X",
			TS: ev.Start, Dur: dur,
			PID: pidCores, TID: ev.CPU, Cat: "squash",
			Args: map[string]any{
				"pc":    hex(ev.PC),
				"insts": ev.Insts,
			},
		})
	case ForwardEvent:
		r.push(r.instant(ev.EventName(), ev.Cycle, pidCores, ev.CPU, "forward",
			map[string]any{"store_ipa": hex(ev.StoreIPA), "va": hex(ev.VA)}))
	case PredictEvent:
		r.push(r.instant("predict", ev.Cycle, pidPredictors, tidPSFP, "predict",
			map[string]any{
				"store_ipa": hex(ev.StoreIPA),
				"load_ipa":  hex(ev.LoadIPA),
				"aliasing":  ev.Aliasing,
				"psf":       ev.PSF,
				"psfp_hit":  ev.PSFPHit,
			}))
	case PSFPTrainEvent:
		r.push(r.instant("psfp-train:"+ev.Type, ev.Cycle, pidPredictors, tidPSFP, "train",
			map[string]any{
				"store_tag": ev.StoreTag,
				"load_tag":  ev.LoadTag,
				"aliasing":  ev.Aliasing,
				"before":    counterStr(ev.Before),
				"after":     counterStr(ev.After),
				"allocated": ev.Allocated,
			}))
	case SSBPTransitionEvent:
		r.push(r.instant("ssbp:"+ev.StateBefore+">"+ev.StateAfter, ev.Cycle,
			pidPredictors, tidSSBP, "transition",
			map[string]any{
				"load_tag": ev.LoadTag,
				"type":     ev.Type,
				"aliasing": ev.Aliasing,
				"before":   counterStr(ev.Before),
				"after":    counterStr(ev.After),
			}))
	case PredictorEvictEvent:
		tid := tidPSFP
		if ev.Predictor == "ssbp" {
			tid = tidSSBP
		}
		r.push(r.instant(ev.EventName(), ev.Cycle, pidPredictors, tid, "evict",
			map[string]any{"store_tag": ev.StoreTag, "load_tag": ev.LoadTag}))
	case PredictorFlushEvent:
		tid := tidPSFP
		if ev.Predictor == "ssbp" {
			tid = tidSSBP
		}
		r.push(r.instant("flush:"+ev.Cause, ev.Cycle, pidPredictors, tid, "flush",
			map[string]any{"entries": ev.Entries}))
	case CacheEvent:
		args := map[string]any{"line": hex(ev.Line)}
		if ev.Level != "" {
			args["level"] = ev.Level
		}
		if ev.Kind == "evict" {
			args["victim"] = hex(ev.Victim)
		}
		r.push(r.instant(ev.EventName(), ev.Cycle, pidCache, tidCache, "cache", args))
	case ProbeEvent:
		name := "probe:miss"
		if ev.Hit {
			name = "probe:hit"
		}
		r.push(r.instant(name, ev.Cycle, pidCache, tidProbe, "probe",
			map[string]any{
				"slot":      ev.Slot,
				"va":        hex(ev.VA),
				"cycles":    ev.Cycles,
				"threshold": ev.Threshold,
			}))
	case ContextSwitchEvent:
		r.push(r.instant(
			fmt.Sprintf("switch:%s>%s", ev.FromName, ev.ToName),
			ev.Cycle, pidKernel, tidOS, "kernel",
			map[string]any{
				"from_domain":  ev.FromDomain,
				"to_domain":    ev.ToDomain,
				"psfp_flushed": ev.PSFPFlushed,
				"ssbp_flushed": ev.SSBPFlushed,
				"salt_rotated": ev.SaltRotated,
			}))
	case FaultEvent:
		args := map[string]any{"count": ev.Count}
		if ev.Experiment != "" {
			args["experiment"] = ev.Experiment
			args["trial"] = ev.Trial
			args["attempt"] = ev.Attempt
		}
		r.push(r.instant(ev.EventName(), ev.Cycle, pidKernel, tidFault, "fault", args))
	case PMCEvent:
		args := map[string]any{}
		for _, pe := range pmc.Events() {
			if n := ev.Counts.Get(pe); n != 0 {
				args[pe.Key()] = n
			}
		}
		r.push(r.instant("pmc", ev.Cycle, pidCores, ev.CPU, "pmc", args))
	}
}

func (r *Recorder) instant(name string, ts int64, pid, tid int, cat string, args map[string]any) traceEvent {
	return traceEvent{
		Name: name, Phase: "i", TS: ts, PID: pid, TID: tid,
		Scope: "t", Cat: cat, Args: args,
	}
}

func hex(v uint64) string { return fmt.Sprintf("0x%x", v) }

func counterStr(c Counters) string {
	return fmt.Sprintf("%d%d%d%d%d", c.C0, c.C1, c.C2, c.C3, c.C4)
}

// Perfetto renders the recorded events as Chrome trace-event JSON, loadable in
// ui.perfetto.dev or chrome://tracing. Events are stably sorted by timestamp
// (emission order breaks ties), with "M" metadata records naming the tracks.
// Timestamps are microseconds to the viewer; here 1 µs == 1 simulated cycle.
func (r *Recorder) Perfetto() ([]byte, error) {
	r.mu.Lock()
	evs := make([]traceEvent, len(r.events))
	copy(evs, r.events)
	r.mu.Unlock()

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	meta := func(pid, tid int, kind, name string) traceEvent {
		return traceEvent{
			Name: kind, Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		}
	}
	out := []traceEvent{
		meta(pidCores, 0, "process_name", "hw-threads"),
		meta(pidPredictors, 0, "process_name", "predictors"),
		meta(pidPredictors, tidPSFP, "thread_name", "PSFP"),
		meta(pidPredictors, tidSSBP, "thread_name", "SSBP"),
		meta(pidCache, 0, "process_name", "cache"),
		meta(pidCache, tidCache, "thread_name", "hierarchy"),
		meta(pidCache, tidProbe, "thread_name", "flush+reload"),
		meta(pidKernel, 0, "process_name", "kernel"),
		meta(pidKernel, tidOS, "thread_name", "scheduler"),
		meta(pidKernel, tidFault, "thread_name", "fault-injector"),
	}
	// Name each hardware-thread track that actually appears.
	seen := map[int]bool{}
	for _, e := range evs {
		if e.PID == pidCores && !seen[e.TID] {
			seen[e.TID] = true
		}
	}
	tids := make([]int, 0, len(seen))
	for tid := range seen {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out = append(out, meta(pidCores, tid, "thread_name", fmt.Sprintf("cpu%d", tid)))
	}
	out = append(out, evs...)

	return json.MarshalIndent(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		DisplayUnit string       `json:"displayTimeUnit"`
	}{out, "ns"}, "", " ")
}
