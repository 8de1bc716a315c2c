// Package obs is the simulator's observability layer: a structured event bus
// threaded through the pipeline, the predictors, the cache hierarchy, the OS
// model, the side channels and the fault injector, plus the consumers built
// on top of it — a metrics registry (monotonic counters and histograms) and a
// Chrome trace-event / Perfetto exporter. It also owns the repo's two
// observability formats, which the service plane (internal/svcobs) and the
// suite telemetry (internal/prof) render through too: the Chrome
// trace-event encoder (EncodeTrace) and the Prometheus text writer
// (WritePromFamily and its siblings).
//
// The design constraint is zero cost when disabled and zero feedback when
// enabled. Every emit site is guarded by Bus.On, which is a branch on a nil
// receiver (or an empty subscriber mask) — a machine booted without an
// observer executes exactly the instructions it did before this package
// existed. An attached observer only ever *reads* simulation state that has
// already been computed; nothing downstream of an event can influence timing,
// predictor state or results, so a run observed and a run unobserved are
// byte-identical (asserted by test).
//
// obs is a leaf package: the simulator's internal packages import it, never
// the other way around (isa and pmc excepted, which import nothing of the
// simulator). Event structs therefore carry plain integers and strings rather
// than simulator types — pmc.Counters rides along as the one typed counter
// namespace (PMCEvent).
package obs

// Class partitions events for subscription filtering. A subscriber names the
// classes it wants; emit sites guard on Bus.On(class) so disabled classes
// cost one mask test.
type Class uint8

// Event classes.
const (
	// ClassInst is one executed instruction, architectural or transient:
	// the instruction trace.
	ClassInst Class = iota
	// ClassSquash is transient-episode bookkeeping: branch mispredictions,
	// memory-speculation rollbacks (types D and G) and fault windows.
	ClassSquash
	// ClassForward is store-to-load data movement: store-queue forwards and
	// predictive store forwards.
	ClassForward
	// ClassPredict is the speculative memory access predictor machinery:
	// PSFP selections and trainings, SSBP counter transitions per the TABLE I
	// state machine, capacity evictions and flushes.
	ClassPredict
	// ClassCache is the cache hierarchy: line fills, capacity evictions and
	// explicit flushes.
	ClassCache
	// ClassProbe is side-channel measurement: Flush+Reload probe verdicts.
	ClassProbe
	// ClassKernel is the OS model: context switches, domain changes and
	// mitigation flushes.
	ClassKernel
	// ClassFault is the deterministic fault injector: one event per injected
	// fault, machine-level and trial-level.
	ClassFault
	// ClassPMC is performance-monitor-counter readout: one delta of the Fig 2
	// counter set per program run, bridging pmc.Counters into the metrics
	// registry and the cycle-attribution profiler.
	ClassPMC
	// NumClasses bounds the class space.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassInst:
		return "inst"
	case ClassSquash:
		return "squash"
	case ClassForward:
		return "forward"
	case ClassPredict:
		return "predict"
	case ClassCache:
		return "cache"
	case ClassProbe:
		return "probe"
	case ClassKernel:
		return "kernel"
	case ClassFault:
		return "fault"
	case ClassPMC:
		return "pmc"
	}
	return "class?"
}

// Event is one structured simulation event. Concrete types live in events.go;
// consumers type-switch on them.
type Event interface {
	// EventClass is the subscription class the event belongs to.
	EventClass() Class
	// EventName is a short stable name ("psfp-train", "squash", ...) used by
	// exporters and metrics keys.
	EventName() string
}

// Observer receives events. Implementations attached to machines that run
// trials in parallel (e.g. one Metrics registry shared by a whole experiment
// suite) must be safe for concurrent HandleEvent calls; the per-machine event
// order within one trial is deterministic, the interleaving across trials is
// not.
type Observer interface {
	HandleEvent(e Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e Event)

// HandleEvent implements Observer.
func (f ObserverFunc) HandleEvent(e Event) { f(e) }

// InstObserver is an optional fast-path extension of Observer for the
// simulator's hottest event. A subscriber that also implements it receives
// ClassInst events through HandleInsts, a batch at a time and unboxed: evs
// holds, in emission order, the instruction events emitted since its last
// delivery. The slice belongs to the bus and is only valid for the duration
// of the call: implementations that retain events must copy them.
//
// HandleInsts(evs) must behave exactly like HandleEvent(evs[i]) for each i
// in order.
type InstObserver interface {
	HandleInsts(evs []InstEvent)
}

// Options filters a subscription.
type Options struct {
	// Classes selects the event classes delivered to the observer; empty
	// means all classes.
	Classes []Class
}

func (o Options) mask() uint32 {
	if len(o.Classes) == 0 {
		return 1<<NumClasses - 1
	}
	var m uint32
	for _, c := range o.Classes {
		if c < NumClasses {
			m |= 1 << c
		}
	}
	return m
}

const instMask = uint32(1) << ClassInst

type subscriber struct {
	obs  Observer
	inst InstObserver // non-nil when obs also implements the fast path
	// metrics is obs when it is a registry shard, which Emit hands events
	// without boxing them.
	metrics *Metrics
	mask    uint32
	id      uint64
	// sent is how many of the bus's staged instruction events this
	// subscriber has received.
	sent int
}

// instBatch is the capacity of a bus's instruction-event staging buffer:
// large enough that delivery costs one call per few hundred instructions,
// small enough (22 KB) to stay in the host's L2.
const instBatch = 256

// Bus is one machine's event fan-out: a subscriber list with a cached OR of
// all subscriber masks. A nil *Bus is a valid, permanently-disabled bus —
// every component holds a *Bus field and guards emission with On, so an
// unobserved machine pays one nil test per potential event and allocates
// nothing.
//
// Instruction events are staged and delivered in batches. Each subscriber
// still sees exactly the event sequence of one-at-a-time delivery: its
// staged instruction events reach it before any later event of another
// class does, when the staging buffer is full, and at Flush, which
// pipeline.Core.Run defers.
//
// Bus is not internally synchronized: a machine emits from its own
// (single-threaded) run loop, and subscriptions are expected to be installed
// between runs, not concurrently with one.
type Bus struct {
	subs   []subscriber
	mask   uint32
	nextID uint64
	// now is the most recent cycle stamp (see StampCycle): components that
	// have no cycle of their own (predictors, caches, the kernel) timestamp
	// their events with it.
	now int64
	// staged holds the instruction events emitted since the last Flush; it
	// is allocated by the first one.
	staged []InstEvent
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// On reports whether any subscriber wants class c. It is the emit-site guard:
// safe on a nil bus, one branch plus one mask test when a bus exists.
func (b *Bus) On(c Class) bool {
	return b != nil && b.mask&(1<<c) != 0
}

// Emit delivers e to every subscriber of b whose mask includes its class,
// each after the instruction events staged for it. Callers guard with On, so
// Emit may assume b is non-nil.
//
// A metrics registry's shard gets the event by a static call that keeps no
// reference to it, so the conversion to Event stays on this stack; only
// other observers get it boxed.
func Emit[E Event](b *Bus, e E) {
	m := uint32(1) << e.EventClass()
	for i := range b.subs {
		s := &b.subs[i]
		if s.mask&m != 0 {
			if s.sent != len(b.staged) && s.mask&instMask != 0 {
				b.catchUp(s)
			}
			if s.metrics != nil {
				s.metrics.HandleEvent(e)
			} else {
				s.obs.HandleEvent(e)
			}
		}
	}
}

// EmitInst stages a copy of an instruction event for delivery. Callers guard
// with On(ClassInst), so EmitInst may assume b is non-nil.
func (b *Bus) EmitInst(e *InstEvent) { *b.NextInst() = *e }

// NextInst stages a new instruction event and returns it for the caller to
// fill in place, sparing EmitInst's copy. The caller must finish writing it
// before its next call on the bus. Callers guard with On(ClassInst), so
// NextInst may assume b is non-nil.
func (b *Bus) NextInst() *InstEvent {
	n := len(b.staged)
	if n == cap(b.staged) {
		if b.staged == nil {
			b.staged = make([]InstEvent, 0, instBatch)
		} else {
			b.Flush()
		}
		n = 0
	}
	b.staged = b.staged[:n+1]
	return &b.staged[n]
}

// Flush delivers every subscriber's staged instruction events and empties
// the staging buffer. Safe on a nil bus.
func (b *Bus) Flush() {
	if b == nil || len(b.staged) == 0 {
		return
	}
	for i := range b.subs {
		b.catchUp(&b.subs[i])
		b.subs[i].sent = 0
	}
	b.staged = b.staged[:0]
}

// catchUp hands s the staged instruction events it has not received yet.
func (b *Bus) catchUp(s *subscriber) {
	if s.mask&instMask == 0 || s.sent == len(b.staged) {
		return
	}
	evs := b.staged[s.sent:]
	s.sent = len(b.staged)
	if s.inst != nil {
		s.inst.HandleInsts(evs)
		return
	}
	for i := range evs {
		s.obs.HandleEvent(evs[i])
	}
}

// Subscribe attaches o with the given options and returns a cancel function
// that detaches exactly this subscription. Subscribing the same observer
// twice creates two independent subscriptions.
//
// A Multi or Filter composition is subscribed member by member, each with
// its own classes, so a member is never handed events it filters out and
// its instruction batches are not cut by classes only other members take.
// A *Metrics is subscribed as a shard of its own (see Metrics), so machines
// sharing one registry do not share its lock. The cancel function delivers
// what is staged for the subscription, then removes every member.
func (b *Bus) Subscribe(o Observer, opts Options) (cancel func()) {
	if o == nil {
		return func() {}
	}
	b.nextID++
	id := b.nextID
	b.add(o, opts.mask(), id)
	b.recomputeMask()
	return func() {
		kept := b.subs[:0]
		for i := range b.subs {
			if s := &b.subs[i]; s.id == id {
				b.catchUp(s)
			} else {
				kept = append(kept, *s)
			}
		}
		clear(b.subs[len(kept):])
		b.subs = kept
		b.recomputeMask()
	}
}

// add subscribes o under mask as subscription id, flattening compositions.
func (b *Bus) add(o Observer, mask uint32, id uint64) {
	if f, ok := o.(fanout); ok {
		for _, s := range f {
			b.add(s.obs, mask&s.mask, id)
		}
		return
	}
	if mask == 0 {
		return
	}
	var shard *Metrics
	if m, ok := o.(*Metrics); ok {
		shard = m.shard()
		o = shard
	}
	inst, _ := o.(InstObserver)
	b.subs = append(b.subs, subscriber{obs: o, inst: inst, metrics: shard, mask: mask, id: id, sent: len(b.staged)})
}

func (b *Bus) recomputeMask() {
	var m uint32
	for _, s := range b.subs {
		m |= s.mask
	}
	b.mask = m
}

// StampCycle records the emitter-side cycle clock. The pipeline stamps it at
// memory operations and predictor verifications so that components without
// their own clock (predictors, caches, kernel, injector) can timestamp the
// events they emit. Safe on a nil bus.
func (b *Bus) StampCycle(cycle int64) {
	if b != nil && cycle > b.now {
		b.now = cycle
	}
}

// Now returns the last stamped cycle (0 on a nil bus).
func (b *Bus) Now() int64 {
	if b == nil {
		return 0
	}
	return b.now
}

// Multi composes observers into one that fans events out in argument order,
// skipping nils. It returns nil when every argument is nil, so callers can
// assign the result directly to an optional Observer field.
//
// Bus.Subscribe takes the composition apart and subscribes each member on
// its own, so members that implement InstObserver keep their batches.
func Multi(obs ...Observer) Observer {
	var live fanout
	for _, o := range obs {
		if o != nil {
			live = append(live, subscriber{obs: o, mask: Options{}.mask()})
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0].obs
	}
	return live
}

// Filter restricts o to the given classes, as a subscription's Options would.
// It lets an observer that shares one subscription with others (a Multi) keep
// its own classes. Empty classes mean every class and return o unchanged; so
// does a nil o.
func Filter(o Observer, classes []Class) Observer {
	if o == nil || len(classes) == 0 {
		return o
	}
	return fanout{{obs: o, mask: Options{Classes: classes}.mask()}}
}

// fanout delivers each event to the subscribers whose mask includes its
// class, in order, as a Bus does: it is what Multi and Filter return.
type fanout []subscriber

// HandleEvent implements Observer.
func (f fanout) HandleEvent(e Event) {
	m := uint32(1) << e.EventClass()
	for _, s := range f {
		if s.mask&m != 0 {
			s.obs.HandleEvent(e)
		}
	}
}
