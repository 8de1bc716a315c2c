package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public entry point.
type Span struct {
	// ID is shared by every span of one experiment or one job.
	ID   string
	Name string
	// Lane is the actor that made the call (main, client-1, worker-2); each
	// lane is one Perfetto track.
	Lane       string
	Start, End time.Duration // since the tracer's epoch
	// Parent is the index of the span that caused this one; -1 for a root.
	Parent int
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how untraced runs call the same code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	roots map[string]int // ID -> its root span, for spans whose parent is "the job"
}

// NewTracer starts an empty trace whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), roots: map[string]int{}}
}

// Begin opens a span and returns its index (-1 on a nil tracer).
func (t *Tracer) Begin(id, name, lane string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: id, Name: name, Lane: lane, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Record adds a finished span timed by the caller.
func (t *Tracer) Record(id, name, lane string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: id, Name: name, Lane: lane,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent})
	return len(t.spans) - 1
}

// SetRoot names span i as the root of id, once id is known (a job's ID
// arrives only when its submit returns).
func (t *Tracer) SetRoot(i int, id string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].ID = id
	t.roots[id] = i
	t.mu.Unlock()
}

// RecordUnderRoot adds a finished span whose parent is id's root span. A
// worker can finish a shard before the client has learnt the job's ID, so
// the link is resolved when the spans are read.
func (t *Tracer) RecordUnderRoot(id, name, lane string, start, end time.Time) {
	t.Record(id, name, lane, parentOfRoot, start, end)
}

// parentOfRoot marks a span whose parent is resolved through Tracer.roots.
const parentOfRoot = -2

// Spans returns a copy of every span with root links resolved.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	for i := range out {
		if out[i].Parent == parentOfRoot {
			if r, ok := t.roots[out[i].ID]; ok {
				out[i].Parent = r
			} else {
				out[i].Parent = -1
			}
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (parallel trials, several workers
// on one job), so their intervals are clipped to the parent and merged
// before being subtracted.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Dur() - covered
}

// selfTimes returns the self time in ms of every span named name, counting
// as children only those named child (every child when child is empty).
func selfTimes(spans []Span, name, child string) []float64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 && (child == "" || s.Name == child) {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, ms(selfTime(s, kids[i])))
		}
	}
	return out
}

// durations returns the duration in ms of every span named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// chromeEvent is one Chrome trace-event object, the JSON Perfetto and
// chrome://tracing load.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes every span as a complete ("X") event, one track per
// lane, with the span's ID, index and parent index in its args.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	lanes := map[string]int{}
	var events []chromeEvent
	events = append(events, chromeEvent{Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "perfbench"}})
	for i, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Lane}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
