package svcobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span is one wall-clock trace record, the wire unit of distributed tracing:
// remote workers record the spans of their shard attempts and ship them back
// to the daemon in the lease-completion body, where they stitch into the
// job's trace by correlation ID. Timestamps are host microseconds since the
// Unix epoch — daemon and workers each stamp their own clock, which is what
// lets one timeline interleave both sides.
type Span struct {
	// Trace is the job correlation ID the span belongs to, minted by the
	// daemon at submission and carried in every lease.
	Trace string `json:"trace"`
	// Actor names the process that produced the span ("zenspecd", or the
	// worker's reported name); each actor renders as its own Perfetto
	// process, so a distributed run reads as one track group per machine.
	Actor string `json:"actor"`
	// Track is the lane within the actor (a shard ID, "journal", "jobs");
	// empty means the actor's default lane.
	Track string `json:"track,omitempty"`
	Name  string `json:"name"`
	// Phase is the Chrome trace-event phase: "X" (complete, the default),
	// "B"/"E" (begin/end pairs for spans whose end is a later call), or "i"
	// (instant).
	Phase string `json:"ph,omitempty"`
	// StartUS is the span's start in Unix microseconds; DurUS its duration
	// (phase "X" only).
	StartUS int64          `json:"ts_us"`
	DurUS   int64          `json:"dur_us,omitempty"`
	Args    map[string]any `json:"args,omitempty"`
}

// NowUS returns the current host time in Unix microseconds, the Span clock.
func NowUS() int64 { return time.Now().UnixMicro() }

// maxSpansPerTrace bounds one trace's buffer; past it new spans are counted
// as dropped rather than buffered, so a runaway job cannot eat the daemon.
const maxSpansPerTrace = 16384

// maxTraces bounds how many traces the log retains; adding a span for a new
// trace beyond it evicts the oldest trace wholesale (jobs are also dropped
// eagerly when archived).
const maxTraces = 64

// TraceLog accumulates spans per trace and renders each trace as Chrome
// trace-event JSON (the Perfetto format). Safe for concurrent use; all
// methods are no-ops on a nil receiver.
type TraceLog struct {
	mu      sync.Mutex
	traces  map[string][]Span
	order   []string
	dropped map[string]int
}

// NewTraceLog returns an empty trace log.
func NewTraceLog() *TraceLog {
	return &TraceLog{traces: map[string][]Span{}, dropped: map[string]int{}}
}

// Add appends spans to their traces. Spans with an empty Trace are ignored
// (a job submitted without observability has no correlation ID).
func (t *TraceLog) Add(spans ...Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.Trace == "" {
			continue
		}
		buf, ok := t.traces[s.Trace]
		if !ok {
			if len(t.order) >= maxTraces {
				oldest := t.order[0]
				t.order = t.order[1:]
				delete(t.traces, oldest)
				delete(t.dropped, oldest)
			}
			t.order = append(t.order, s.Trace)
		}
		if len(buf) >= maxSpansPerTrace {
			t.dropped[s.Trace]++
			continue
		}
		t.traces[s.Trace] = append(buf, s)
	}
}

// Span records a completed span.
func (t *TraceLog) Span(trace, actor, track, name string, start time.Time, dur time.Duration, args map[string]any) {
	t.Add(Span{Trace: trace, Actor: actor, Track: track, Name: name,
		Phase: "X", StartUS: start.UnixMicro(), DurUS: dur.Microseconds(), Args: args})
}

// Begin opens a span on a track; a later End with the same name closes it.
func (t *TraceLog) Begin(trace, actor, track, name string, args map[string]any) {
	t.Add(Span{Trace: trace, Actor: actor, Track: track, Name: name,
		Phase: "B", StartUS: NowUS(), Args: args})
}

// End closes the most recent open span of that name on the track.
func (t *TraceLog) End(trace, actor, track, name string, args map[string]any) {
	t.Add(Span{Trace: trace, Actor: actor, Track: track, Name: name,
		Phase: "E", StartUS: NowUS(), Args: args})
}

// Instant records a point event.
func (t *TraceLog) Instant(trace, actor, track, name string, args map[string]any) {
	t.Add(Span{Trace: trace, Actor: actor, Track: track, Name: name,
		Phase: "i", StartUS: NowUS(), Args: args})
}

// Drop discards a trace (called when its job is archived).
func (t *TraceLog) Drop(trace string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.traces[trace]; !ok {
		return
	}
	delete(t.traces, trace)
	delete(t.dropped, trace)
	for i, id := range t.order {
		if id == trace {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// Spans returns a copy of one trace's buffered spans (nil when unknown).
func (t *TraceLog) Spans(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := t.traces[trace]
	if buf == nil {
		return nil
	}
	out := make([]Span, len(buf))
	copy(out, buf)
	return out
}

// Len returns the number of spans buffered for a trace.
func (t *TraceLog) Len(trace string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces[trace])
}

// traceEvent mirrors the Chrome trace-event JSON object (the same shape
// internal/obs emits for simulated cycles; redeclared here to keep the
// wall-clock plane dependency-free of the simulation observer).
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Perfetto renders one trace as Chrome trace-event JSON, loadable in
// ui.perfetto.dev: one Perfetto "process" per actor (the daemon pinned
// first), one "thread" per track within it, timestamps in real microseconds.
// Unknown traces return an error.
func (t *TraceLog) Perfetto(trace string) ([]byte, error) {
	spans := t.Spans(trace)
	if spans == nil {
		return nil, fmt.Errorf("svcobs: unknown trace %q", trace)
	}
	// Normalize timestamps to the trace's own origin so the viewer opens at
	// t=0 instead of the Unix epoch.
	origin := spans[0].StartUS
	for _, s := range spans {
		if s.StartUS < origin {
			origin = s.StartUS
		}
	}

	// Stable actor ordering: "zenspecd" first, then everyone else sorted.
	actorTracks := map[string]map[string]bool{}
	for _, s := range spans {
		if actorTracks[s.Actor] == nil {
			actorTracks[s.Actor] = map[string]bool{}
		}
		actorTracks[s.Actor][s.Track] = true
	}
	actors := make([]string, 0, len(actorTracks))
	for a := range actorTracks {
		actors = append(actors, a)
	}
	sort.Slice(actors, func(i, j int) bool {
		if (actors[i] == ActorDaemon) != (actors[j] == ActorDaemon) {
			return actors[i] == ActorDaemon
		}
		return actors[i] < actors[j]
	})
	pid := map[string]int{}
	tid := map[string]map[string]int{}
	var out []traceEvent
	meta := func(p, tr int, kind, name string) traceEvent {
		return traceEvent{Name: kind, Phase: "M", PID: p, TID: tr,
			Args: map[string]any{"name": name}}
	}
	for i, a := range actors {
		pid[a] = i + 1
		out = append(out, meta(i+1, 0, "process_name", a))
		tracks := make([]string, 0, len(actorTracks[a]))
		for tr := range actorTracks[a] {
			tracks = append(tracks, tr)
		}
		sort.Strings(tracks)
		tid[a] = map[string]int{}
		for j, tr := range tracks {
			tid[a][tr] = j
			name := tr
			if name == "" {
				name = a
			}
			out = append(out, meta(i+1, j, "thread_name", name))
		}
	}

	evs := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		ph := s.Phase
		if ph == "" {
			ph = "X"
		}
		te := traceEvent{
			Name: s.Name, Phase: ph, TS: s.StartUS - origin, Dur: s.DurUS,
			PID: pid[s.Actor], TID: tid[s.Actor][s.Track], Args: s.Args,
		}
		if ph == "i" {
			te.Scope = "t"
		}
		evs = append(evs, te)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	out = append(out, evs...)

	return json.MarshalIndent(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		DisplayUnit string       `json:"displayTimeUnit"`
	}{out, "ms"}, "", " ")
}

// ActorDaemon is the daemon's span actor name, pinned as the first Perfetto
// process so the scheduling side always tops the trace.
const ActorDaemon = "zenspecd"

// ActorWorker renders a worker's span actor name.
func ActorWorker(name string) string { return "worker:" + name }
