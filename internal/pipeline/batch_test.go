package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/prof"
)

// seqObs records the events it receives, in order, taking instructions in
// batches through obs.InstObserver, and counts the batches.
type seqObs struct {
	evs     []obs.Event
	batches int
}

func (o *seqObs) HandleEvent(e obs.Event) { o.evs = append(o.evs, e) }

func (o *seqObs) HandleInsts(evs []obs.InstEvent) {
	o.batches++
	for _, e := range evs {
		o.evs = append(o.evs, e)
	}
}

// batchTap is a machine's bus with the observers an observed run attaches:
// a plain reference observer of every class, a trace recorder, a profile
// filtered to its classes beside a seqObs with the same filter, and a
// metrics registry.
type batchTap struct {
	ref  []obs.Event
	rec  *obs.Recorder
	prof *prof.Profile
	pseq *seqObs
	m    *obs.Metrics
}

func newBatchTap(e *env) *batchTap {
	tap := &batchTap{rec: obs.NewRecorder(), prof: prof.New(), pseq: &seqObs{}, m: obs.NewMetrics()}
	bus := obs.NewBus()
	e.core.AttachBus(bus, 0)
	e.ch.AttachBus(bus)
	e.unit.AttachBus(bus, 0)
	bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) { tap.ref = append(tap.ref, ev) }), obs.Options{})
	bus.Subscribe(obs.Multi(tap.rec,
		obs.Filter(tap.prof, prof.Classes()), obs.Filter(tap.pseq, prof.Classes()), tap.m), obs.Options{})
	return tap
}

// check compares every subscriber's sequence with the reference and the
// reference with what the runs executed: retired instructions, and the
// wrong-path instructions each squash reports, which the pipeline emits
// just before the squash. It returns the number of squashes with a
// non-empty window and of cache events.
func (tap *batchTap) check(t *testing.T, name string, retired uint64, runs int) (windows, cache int) {
	t.Helper()
	rec, pf, m := obs.NewRecorder(), prof.New(), obs.NewMetrics()
	var pref []obs.Event
	var nInst, nRetired, nSquash uint64
	for i, ev := range tap.ref {
		rec.HandleEvent(ev)
		m.HandleEvent(ev)
		switch e := ev.(type) {
		case obs.InstEvent:
			nInst++
			if !e.Transient {
				nRetired++
			}
		case obs.SquashEvent:
			nSquash++
			if e.Insts > 0 {
				windows++
			}
			n := 0
			for j := i - 1; j >= 0 && n < e.Insts; j-- {
				if ie, ok := tap.ref[j].(obs.InstEvent); ok {
					if !ie.Transient {
						t.Fatalf("%s: squash at %d reports %d wrong-path instructions, but instruction %d before it retired", name, i, e.Insts, n+1)
					}
					n++
				}
			}
			if n != e.Insts {
				t.Fatalf("%s: squash at %d reports %d wrong-path instructions, %d arrived before it", name, i, e.Insts, n)
			}
		case obs.CacheEvent:
			cache++
		}
		if c := ev.EventClass(); c == obs.ClassInst || c == obs.ClassSquash {
			pf.HandleEvent(ev)
			pref = append(pref, ev)
		}
	}
	if nRetired != retired || tap.m.Counter("inst.retired") != retired {
		t.Fatalf("%s: %d runs retired %d instructions; the reference saw %d, the registry %d",
			name, runs, retired, nRetired, tap.m.Counter("inst.retired"))
	}
	if !reflect.DeepEqual(tap.pseq.evs, pref) {
		t.Fatalf("%s: the profile's filter received %d events, not the reference's %d instructions and squashes in order",
			name, len(tap.pseq.evs), len(pref))
	}
	// Only squashes, a full staging buffer and the end of each run hand
	// the profile a batch; cache and predictor events do not.
	if max := int(nSquash) + int(nInst)/256 + runs; tap.pseq.batches > max {
		t.Fatalf("%s: the profile's filter got %d batches, more than %d squashes + %d full buffers + %d runs",
			name, tap.pseq.batches, nSquash, nInst/256, runs)
	}
	want, err := rec.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tap.rec.Perfetto()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the recorder's trace differs from one recorded event by event", name)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{{"metrics", tap.m.Snapshot(), m.Snapshot()}, {"profile", tap.prof.Snapshot(), pf.Snapshot()}} {
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(c.want)
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: %s snapshot differs from one folded event by event:\n got %s\nwant %s", name, c.what, g, w)
		}
	}
	return windows, cache
}

// TestBatchedDeliveryKeepsOrder runs programs with branch and
// memory-speculation squashes and cache traffic under an observed bus and
// requires each subscriber to see exactly the per-event sequence, grouped
// into batches, with a run stopped through Config.Stop delivering its staged
// events before the panic leaves Core.Run.
func TestBatchedDeliveryKeepsOrder(t *testing.T) {
	var cache, squashed int
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var code []byte
		if seed%2 == 0 {
			code = genProgram(r, 200+r.Intn(200)).MustAssemble(codeBase)
		} else {
			// Slow store addresses: bypass and forwarding rollbacks.
			b := asm.NewBuilder()
			b.Movi(isa.R12, 1)
			for i := 0; i < 40; i++ {
				off := int32(r.Intn(64) * 8)
				b.Mov(isa.RBX, isa.R15)
				for j := r.Intn(12); j > 0; j-- {
					b.Imul(isa.RBX, isa.RBX, isa.R12)
				}
				b.Store(isa.RBX, off, isa.R12)
				if r.Intn(2) == 0 {
					off = int32(r.Intn(64) * 8)
				}
				b.Load(isa.Reg(r.Intn(8)), isa.R15, off)
			}
			b.Halt()
			code = b.MustAssemble(codeBase)
		}
		e := newEnv(t, Config{})
		e.mapCode(codeBase, code)
		e.mapData(dataBase, mem.PageSize)
		tap := newBatchTap(e)
		var retired uint64
		const runs = 4
		for i := 0; i < runs; i++ {
			var regs [isa.NumRegs]uint64
			regs[isa.R15] = dataBase
			retired += e.run(codeBase, &regs).Insts
		}
		w, c := tap.check(t, fmt.Sprintf("seed %d", seed), retired, runs)
		cache += c
		if w > 0 {
			squashed++
		}
	}
	if squashed < 6 || cache < 1000 {
		t.Fatalf("the programs opened wrong-path windows in %d of 12 and made %d cache events; the test needs both", squashed, cache)
	}

	polls := 0
	e := newEnv(t, Config{Stop: func() bool {
		polls++
		return polls > 3
	}})
	e.mapCode(codeBase, infiniteLoop().MustAssemble(codeBase))
	tap := newBatchTap(e)
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrCancelled) {
				t.Fatalf("recovered %v, want ErrCancelled", err)
			}
		}()
		var regs [isa.NumRegs]uint64
		e.run(codeBase, &regs)
	}()
	tap.check(t, "stopped run", 3*stopCheckInterval, 1)
}
