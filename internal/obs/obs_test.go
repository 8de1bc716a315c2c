package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/pmc"
)

func TestNilBusIsDisabled(t *testing.T) {
	var b *Bus
	for c := range NumClasses {
		if b.On(c) {
			t.Fatalf("nil bus On(%v) = true", c)
		}
	}
	b.StampCycle(100) // must not panic
	if b.Now() != 0 {
		t.Fatalf("nil bus Now = %d", b.Now())
	}
}

func TestEmptyBusIsDisabled(t *testing.T) {
	b := NewBus()
	for c := range NumClasses {
		if b.On(c) {
			t.Fatalf("empty bus On(%v) = true", c)
		}
	}
}

func TestSubscribeFilterAndCancel(t *testing.T) {
	b := NewBus()
	var got []Event
	cancel := b.Subscribe(ObserverFunc(func(e Event) { got = append(got, e) }),
		Options{Classes: []Class{ClassSquash}})

	if !b.On(ClassSquash) {
		t.Fatal("On(ClassSquash) = false after subscribe")
	}
	if b.On(ClassInst) {
		t.Fatal("On(ClassInst) = true with squash-only subscriber")
	}

	Emit(b, SquashEvent{CPU: 1, Kind: SquashBypass, Insts: 3})
	Emit(b, InstEvent{CPU: 1}) // filtered out
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1", len(got))
	}
	sq, ok := got[0].(SquashEvent)
	if !ok || sq.Kind != SquashBypass {
		t.Fatalf("got %#v, want bypass SquashEvent", got[0])
	}

	cancel()
	cancel() // idempotent
	if len(b.subs) != 0 || b.On(ClassSquash) {
		t.Fatal("cancel did not detach subscription")
	}
}

func TestEmptyOptionsMeansAllClasses(t *testing.T) {
	b := NewBus()
	n := 0
	b.Subscribe(ObserverFunc(func(Event) { n++ }), Options{})
	for c := range NumClasses {
		if !b.On(c) {
			t.Fatalf("On(%v) = false with unfiltered subscriber", c)
		}
	}
	Emit(b, InstEvent{})
	Emit(b, FaultEvent{Kind: "psfp-evict"})
	if n != 2 {
		t.Fatalf("delivered %d events, want 2", n)
	}
}

func TestStampCycleMonotonic(t *testing.T) {
	b := NewBus()
	b.StampCycle(10)
	b.StampCycle(5) // older stamp must not rewind
	if b.Now() != 10 {
		t.Fatalf("Now = %d, want 10", b.Now())
	}
	b.StampCycle(20)
	if b.Now() != 20 {
		t.Fatalf("Now = %d, want 20", b.Now())
	}
}

// logObs records, in one shared log, which member got which event and how:
// "name:insts" for a HandleInsts batch, "name:event" for a HandleEvent value.
type logObs struct {
	name    string
	log     *[]string
	batches *[][]InstEvent // copies of the batches received through HandleInsts
	vals    *[]Event       // values received through HandleEvent
}

func (o logObs) HandleEvent(e Event) {
	*o.log = append(*o.log, o.name+":event")
	*o.vals = append(*o.vals, e)
}

// instLogObs is a logObs that also implements InstObserver.
type instLogObs struct{ logObs }

func (o instLogObs) HandleInsts(evs []InstEvent) {
	*o.log = append(*o.log, o.name+":insts")
	*o.batches = append(*o.batches, append([]InstEvent(nil), evs...))
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should be nil")
	}
	var a, c int
	oa := ObserverFunc(func(Event) { a++ })
	oc := ObserverFunc(func(Event) { c++ })
	m := Multi(oa, nil, oc)
	m.HandleEvent(InstEvent{})
	if a != 1 || c != 1 {
		t.Fatalf("Multi fan-out a=%d c=%d, want 1/1", a, c)
	}

	var log []string
	var batches [][]InstEvent
	var vals []Event
	mk := func(name string) logObs { return logObs{name, &log, &batches, &vals} }
	// The bus subscribes the members one by one, in argument order, a Multi
	// nested in a Multi included: InstObserver members get the staged batch,
	// plain ones each event by value. A registry among them gets its events
	// unboxed and logs nothing.
	reg := NewMetrics()
	m = Multi(instLogObs{mk("a")}, mk("b"), reg, Multi(mk("c"), instLogObs{mk("d")}))
	b := NewBus()
	cancel := b.Subscribe(m, Options{})
	if len(b.subs) != 5 {
		t.Fatalf("a composition of five adds %d subscribers, want 5", len(b.subs))
	}
	ev := InstEvent{CPU: 1, PC: 0x400000, Dispatch: 7, Transient: true}
	b.EmitInst(&ev)
	if len(log) != 0 {
		t.Fatalf("EmitInst delivered %v before a flush", log)
	}
	b.Flush()
	want := []string{"a:insts", "b:event", "c:event", "d:insts"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("Flush through Multi called %v, want %v", log, want)
	}
	for i, batch := range batches {
		if len(batch) != 1 || batch[0] != ev {
			t.Errorf("InstObserver member %d got batch %v, want [%v]", i, batch, ev)
		}
	}
	for i, v := range vals {
		if got, ok := v.(InstEvent); !ok || got != ev {
			t.Errorf("plain member %d got %#v, want %#v", i, v, ev)
		}
	}

	// Other classes fan out through HandleEvent, in the same order.
	log = log[:0]
	Emit(b, SquashEvent{Kind: SquashPSF})
	want = []string{"a:event", "b:event", "c:event", "d:event"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("Emit through Multi called %v, want %v", log, want)
	}

	// Cancelling delivers what is staged, then detaches every member.
	log = log[:0]
	b.EmitInst(&ev)
	cancel()
	want = []string{"a:insts", "b:event", "c:event", "d:insts"}
	if fmt.Sprint(log) != fmt.Sprint(want) || len(b.subs) != 0 || b.On(ClassSquash) {
		t.Fatalf("cancel delivered %v and left %d subscriptions; want %v and none", log, len(b.subs), want)
	}

	// The registry counted what the same events fold to one at a time.
	serial := NewMetrics()
	for _, e := range []Event{ev, SquashEvent{Kind: SquashPSF}, ev} {
		serial.HandleEvent(e)
	}
	if got, exp := reg.Snapshot(), serial.Snapshot(); !reflect.DeepEqual(got, exp) || got.Counters["squash.psf-forward"] != 1 {
		t.Fatalf("registry member counted %v, want %v", got.Counters, exp.Counters)
	}
}

func TestFilter(t *testing.T) {
	var log []string
	var batches [][]InstEvent
	var vals []Event
	inst := instLogObs{logObs{"i", &log, &batches, &vals}}
	if Filter(inst, nil) != Observer(inst) || Filter(nil, []Class{ClassInst}) != nil {
		t.Fatal("Filter with no classes or no observer must return its observer")
	}
	ev := InstEvent{PC: 0x1000}
	// A filtered member keeps its own classes on the bus: its staged
	// instructions arrive before the next event of a class it takes, and an
	// event of a class it does not take neither reaches it nor cuts its
	// batch.
	b := NewBus()
	b.Subscribe(Filter(inst, []Class{ClassInst, ClassSquash}), Options{})
	b.EmitInst(&ev)
	Emit(b, CacheEvent{Kind: "fill"})
	b.EmitInst(&ev)
	Emit(b, SquashEvent{})
	if want := "[i:insts i:event]"; fmt.Sprint(log) != want || len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("filtered InstObserver log %v batches %v, want %s with one batch of 2", log, batches, want)
	}
	// Called directly, a filter drops the classes it does not take.
	log = log[:0]
	f := Filter(inst, []Class{ClassSquash})
	f.HandleEvent(ev)
	f.HandleEvent(SquashEvent{})
	if fmt.Sprint(log) != "[i:event]" {
		t.Fatalf("direct filtered log %v, want [i:event]", log)
	}
	// A plain observer gets the instruction by value; without ClassInst it
	// gets nothing, and a subscription's own classes narrow the filter.
	log, vals = log[:0], vals[:0]
	b = NewBus()
	b.Subscribe(Filter(logObs{"p", &log, &batches, &vals}, []Class{ClassInst}), Options{})
	b.Subscribe(Filter(logObs{"q", &log, &batches, &vals}, []Class{ClassSquash}), Options{})
	b.Subscribe(Filter(inst, []Class{ClassInst}), Options{Classes: []Class{ClassSquash}})
	b.EmitInst(&ev)
	b.Flush()
	if fmt.Sprint(log) != "[p:event]" || len(vals) != 1 || vals[0] != Event(ev) {
		t.Fatalf("filtered plain observers log %v vals %v, want [p:event] with the event", log, vals)
	}
}

func TestEventNamesAndClasses(t *testing.T) {
	cases := []struct {
		e     Event
		class Class
		name  string
	}{
		{InstEvent{}, ClassInst, "inst"},
		{SquashEvent{Kind: SquashPSF}, ClassSquash, "squash"},
		{ForwardEvent{PSF: true}, ClassForward, "psf-forward"},
		{ForwardEvent{}, ClassForward, "stlf"},
		{PredictEvent{}, ClassPredict, "predict"},
		{PSFPTrainEvent{}, ClassPredict, "psfp-train"},
		{SSBPTransitionEvent{}, ClassPredict, "ssbp-transition"},
		{PredictorEvictEvent{Predictor: "psfp"}, ClassPredict, "psfp-evict"},
		{PredictorFlushEvent{}, ClassPredict, "predictor-flush"},
		{CacheEvent{Kind: "fill"}, ClassCache, "cache-fill"},
		{ProbeEvent{}, ClassProbe, "probe"},
		{ContextSwitchEvent{}, ClassKernel, "context-switch"},
		{FaultEvent{Kind: "ssbp-flip"}, ClassFault, "fault-ssbp-flip"},
	}
	for _, c := range cases {
		if c.e.EventClass() != c.class {
			t.Errorf("%T class = %v, want %v", c.e, c.e.EventClass(), c.class)
		}
		if c.e.EventName() != c.name {
			t.Errorf("%T name = %q, want %q", c.e, c.e.EventName(), c.name)
		}
	}
}

func TestMetricsFold(t *testing.T) {
	m := NewMetrics()
	m.HandleEvent(InstEvent{})
	m.HandleEvent(InstEvent{Transient: true})
	m.HandleEvent(SquashEvent{Kind: SquashBypass, Start: 10, Verify: 42, Insts: 5})
	m.HandleEvent(PredictEvent{PSFPHit: true, Aliasing: true})
	m.HandleEvent(PredictEvent{})
	m.HandleEvent(PSFPTrainEvent{Type: "G", Allocated: true})
	m.HandleEvent(ProbeEvent{Hit: true, Cycles: 40})
	m.HandleEvent(ProbeEvent{Cycles: 300})
	m.HandleEvent(FaultEvent{Kind: "cache-evict"})
	for _, level := range []string{"L1", "L2", "L3", "L4"} {
		m.HandleEvent(CacheEvent{Kind: "fill", Level: level})
		m.HandleEvent(CacheEvent{Kind: "evict", Level: level})
	}
	m.HandleEvent(CacheEvent{Kind: "fill", Level: "L2"})
	m.HandleEvent(CacheEvent{Kind: "flush"})
	var pc pmc.Counters
	pc.Add(pmc.SQStallCycles, 7)
	pc.Add(pmc.RetiredOps, 30)
	pc.Add(pmc.Bypasses, 2)
	m.HandleEvent(PMCEvent{Counts: pc})
	m.HandleEvent(PMCEvent{Counts: pc})
	m.HandleEvent(PSFPTrainEvent{Type: "D"})
	m.HandleEvent(PredictorEvictEvent{Predictor: "psfp"})
	m.HandleEvent(PredictorEvictEvent{Predictor: "btb"}) // outside the fixed table
	for range 10 {
		m.HandleEvent(InstEvent{})
	}
	m.HandleInsts([]InstEvent{{}})

	want := map[string]uint64{
		"inst.retired":         12,
		"inst.transient":       1,
		"squash.total":         1,
		"squash.stl-bypass":    1,
		"predict.queries":      2,
		"predict.psfp_hit":     1,
		"predict.aliasing":     1,
		"predict.psfp_train":   2,
		"predict.train_type_G": 1,
		"predict.train_type_D": 1,
		"predict.psfp_alloc":   1,
		"probe.hit":            1,
		"probe.miss":           1,
		"fault.injected":       1,
		"fault.cache-evict":    1,
		"cache.fill.L1":        1,
		"cache.fill.L2":        2,
		"cache.fill.L3":        1,
		"cache.fill.L4":        1,
		"cache.evict.L1":       1,
		"cache.evict.L2":       1,
		"cache.evict.L3":       1,
		"cache.evict.L4":       1,
		"cache.flush":          1,
		"predict.psfp_evict":   1,
		"predict.btb_evict":    1,
		"pmc.sq_stall_cycles":  14,
		"pmc.retired_ops":      60,
		"pmc.bypasses":         4,
	}
	s := m.Snapshot()
	for k, v := range want {
		if got := s.Counters[k]; got != v {
			t.Errorf("counter %q = %d, want %d", k, got, v)
		}
	}
	if len(s.Counters) != len(want) {
		t.Errorf("snapshot has %d counters, want %d: %v", len(s.Counters), len(want), s.Counters)
	}
	for k, v := range want {
		if s.Counters[k] != v {
			t.Errorf("snapshot counter %q = %d, want %d", k, s.Counters[k], v)
		}
	}
	h := s.Histograms["squash.window_cycles"]
	if h == nil || h.Count != 1 || h.Sum != 32 || h.Max != 32 {
		t.Fatalf("squash.window_cycles snapshot = %+v", h)
	}
	// 32 has bit length 6 → bucket upper bound 2^6-1 = 63.
	if h.Buckets["63"] != 1 {
		t.Fatalf("bucket 63 = %d, want 1 (buckets %v)", h.Buckets["63"], h.Buckets)
	}
	if s.Text() == "" {
		t.Fatal("Text() empty")
	}
}

// TestMetricsFoldAllocFree pins that folding an event builds no counter
// name: every value the simulator emits has a counter id.
func TestMetricsFoldAllocFree(t *testing.T) {
	m := NewMetrics()
	var pc pmc.Counters
	pc.Add(pmc.RetiredOps, 3)
	pc.Add(pmc.Rollbacks, 1)
	for _, e := range []Event{
		InstEvent{}, CacheEvent{Kind: "fill", Level: "L2"}, CacheEvent{Kind: "evict", Level: "L3"},
		PSFPTrainEvent{Type: "G"}, PredictorEvictEvent{Predictor: "ssbp"},
		PredictorFlushEvent{Predictor: "psfp"}, SquashEvent{Kind: SquashPSF},
		PMCEvent{Counts: pc}, ProbeEvent{Cycles: 3}, FaultEvent{Kind: "ssbp-flip"},
	} {
		if n := testing.AllocsPerRun(100, func() { m.HandleEvent(e) }); n != 0 {
			t.Errorf("folding %T allocates %.1f objects, want 0", e, n)
		}
	}
}

// TestMetricsConcurrentFold emits one event mix from several goroutines into
// one registry while another goroutine reads it, and requires the final
// snapshot to equal a serial fold of the same events. Under -race it also
// checks that folds racing snapshots and counter reads are race-free.
func TestMetricsConcurrentFold(t *testing.T) {
	var pc pmc.Counters
	pc.Add(pmc.LdDispatch, 3)
	pc.Add(pmc.Rollbacks, 1)
	mix := []Event{
		InstEvent{}, InstEvent{Transient: true}, InstEvent{},
		SquashEvent{Kind: SquashBranch, Start: 1, Verify: 20, Insts: 4},
		CacheEvent{Kind: "fill", Level: "L1"}, CacheEvent{Kind: "evict", Level: "L3"},
		PSFPTrainEvent{Type: "B"}, PMCEvent{Counts: pc},
		ProbeEvent{Hit: true, Cycles: 35}, PredictorFlushEvent{Predictor: "ssbp"},
	}
	const workers, rounds = 4, 500
	emit := func(m *Metrics) {
		for r := 0; r < rounds; r++ {
			for _, e := range mix {
				if ie, ok := e.(InstEvent); ok && r%2 == 0 {
					m.HandleInsts([]InstEvent{ie})
				} else {
					m.HandleEvent(e)
				}
			}
		}
	}
	serial := NewMetrics()
	for w := 0; w < workers; w++ {
		emit(serial)
	}

	shared := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit(shared)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			shared.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	want, err := json.Marshal(serial.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(shared.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("concurrent fold differs from serial:\n got %s\nwant %s", got, want)
	}
	if n := shared.Snapshot().Counters["inst.retired"]; n != workers*rounds*2 {
		t.Fatalf("inst.retired = %d, want %d", n, workers*rounds*2)
	}
}

// TestMetricsShardsFoldExactly subscribes one registry to several buses, fed
// from their own goroutines while another goroutine reads the registry, and
// requires the final snapshot to equal a serial fold. Half the subscriptions
// are cancelled with instructions still staged: they keep every count they
// were handed, and the cancel delivers the staged ones.
func TestMetricsShardsFoldExactly(t *testing.T) {
	var pc pmc.Counters
	pc.Add(pmc.LdDispatch, 3)
	pc.Add(pmc.Rollbacks, 1)
	mix := []Event{
		InstEvent{}, InstEvent{Transient: true}, InstEvent{},
		SquashEvent{Kind: SquashBranch, Start: 1, Verify: 20, Insts: 4},
		CacheEvent{Kind: "fill", Level: "L1"}, InstEvent{}, CacheEvent{Kind: "evict", Level: "L3"},
		PSFPTrainEvent{Type: "B"}, PMCEvent{Counts: pc},
		ProbeEvent{Hit: true, Cycles: 35}, PredictorFlushEvent{Predictor: "ssbp"},
	}
	// Enough rounds that the staging buffer fills many times over.
	const buses, rounds = 4, 300
	serial := NewMetrics()
	for i := 0; i < buses*rounds; i++ {
		for _, e := range mix {
			serial.HandleEvent(e)
		}
	}
	serial.HandleEvent(FaultEvent{Kind: "trial-error"})

	shared := NewMetrics()
	// Events handed to the registry itself, as the harness reports trial
	// faults, add to the shards' counts.
	shared.HandleEvent(FaultEvent{Kind: "trial-error"})
	var wg sync.WaitGroup
	for i := 0; i < buses; i++ {
		b := NewBus()
		cancel := b.Subscribe(shared, Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, e := range mix {
					if ie, ok := e.(InstEvent); ok {
						b.EmitInst(&ie)
					} else {
						Emit(b, e)
					}
				}
			}
			b.EmitInst(&InstEvent{})
			if i%2 == 0 {
				cancel()
			} else {
				b.Flush()
			}
			if i%2 == 0 && b.On(ClassInst) {
				t.Error("cancelled bus still takes instructions")
			}
		}()
	}
	serial.HandleEvent(InstEvent{})
	serial.HandleEvent(InstEvent{})
	serial.HandleEvent(InstEvent{})
	serial.HandleEvent(InstEvent{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			shared.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	want, err := json.Marshal(serial.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(shared.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("sharded fold differs from serial:\n got %s\nwant %s", got, want)
	}
	snap := shared.Snapshot()
	if n, want := snap.Counters["inst.retired"], uint64(buses*(rounds*3+1)); n != want {
		t.Fatalf("inst.retired = %d, want %d", n, want)
	}
	if n := snap.Counters["fault.trial-error"]; n != 1 {
		t.Fatalf("fault.trial-error = %d, want 1", n)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func(order []Event) []byte {
		m := NewMetrics()
		for _, e := range order {
			m.HandleEvent(e)
		}
		b, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	evs := []Event{
		InstEvent{}, ProbeEvent{Hit: true, Cycles: 40},
		SquashEvent{Kind: SquashPSF, Start: 1, Verify: 9, Insts: 2},
		FaultEvent{Kind: "ssbp-flip"},
	}
	rev := []Event{evs[3], evs[2], evs[1], evs[0]}
	a, b := build(evs), build(rev)
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON depends on accumulation order:\n%s\n%s", a, b)
	}
}

func TestRecorderPerfetto(t *testing.T) {
	r := NewRecorder()
	r.HandleEvent(InstEvent{CPU: 0, PC: 0x1000, Inst: isa.Inst{Op: isa.LOAD}, RetiredBy: 7})
	r.HandleEvent(SquashEvent{CPU: 0, Kind: SquashBypass, PC: 0x1008, Start: 3, Verify: 20, Insts: 4})
	r.HandleEvent(PSFPTrainEvent{Cycle: 20, Type: "G", StoreTag: 0x12, LoadTag: 0x34})
	r.HandleEvent(SSBPTransitionEvent{Cycle: 20, Type: "G", StateBefore: "Initialize", StateAfter: "Block"})
	r.HandleEvent(FaultEvent{Cycle: 25, Kind: "psfp-evict", Count: 1})
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}

	out, err := r.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    int64  `json:"ts"`
			Args  struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("Perfetto output is not JSON: %v", err)
	}
	var complete, meta int
	last := int64(-1)
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		switch e.Phase {
		case "X":
			complete++
			if e.TS < last {
				t.Fatalf("complete events unsorted: ts %d after %d", e.TS, last)
			}
			last = e.TS
		case "M":
			meta++
			names[e.Args.Name] = true
		}
	}
	if complete != 2 {
		t.Fatalf("complete (X) events = %d, want 2", complete)
	}
	if meta == 0 {
		t.Fatal("no metadata records")
	}
	for _, want := range []string{"load", "squash:stl-bypass", "psfp-train:G", "ssbp:Initialize>Block", "fault-psfp-evict", "cpu0"} {
		if !names[want] {
			t.Errorf("trace missing event %q", want)
		}
	}
}
