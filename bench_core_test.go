package zenspec

// Micro-benchmarks for the per-cycle hot paths: the steady-state pipeline
// step, a NOP-sled run, a timed stld run through the kernel, the
// observability emit fast path bare and into the metrics registry and
// profile an observed run attaches, the profile's fold, and a Flush+Reload
// probe sweep.
// Each reports allocations, and the paired tests pin the zero-allocation
// invariants with testing.AllocsPerRun so a regression fails `go test`
// itself, not just a benchstat comparison. verify.sh runs them as its
// benchstat smoke.

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/cache"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
	"zenspec/internal/prof"
	"zenspec/internal/revng"
	"zenspec/internal/sidechannel"
)

// stepEnv is a minimal single-core machine that re-runs one program. One
// warm-up Run fills the decoded-page cache, the run-state pool and the TLBs,
// so every fetch after it hits the decoded-page cache and every record comes
// from the run-state pool.
type stepEnv struct {
	core     *pipeline.Core
	as       *mem.AddrSpace
	entry    uint64
	regs     [isa.NumRegs]uint64
	maxInsts uint64
	insts    uint64
}

// newRunEnv maps code at 0x400000 and one data page at 0x10000, and makes
// the warm-up Run with regs. The Run stops at a HALT, or after maxInsts
// instructions when that is not 0.
func newRunEnv(tb testing.TB, code []byte, regs [isa.NumRegs]uint64, maxInsts uint64) *stepEnv {
	tb.Helper()
	phys := mem.NewPhysical()
	ch := cache.New(cache.DefaultConfig())
	unit := predict.NewUnit(predict.Config{Seed: 1})
	core := pipeline.New(pipeline.DefaultConfig(), phys, ch, unit, &pmc.Counters{})
	as := mem.NewAddrSpace()
	const base = 0x400000
	for off := uint64(0); off < uint64(len(code))+mem.PageSize-1; off += mem.PageSize {
		if _, ok := as.Lookup(base + off); !ok {
			as.Map(base+off, phys.AllocFrame(), mem.PermR|mem.PermX)
		}
	}
	for i := range code {
		pa, f := as.Translate(base+uint64(i), mem.AccessRead)
		if f != mem.FaultNone {
			tb.Fatalf("translate code+%d: %v", i, f)
		}
		phys.WriteBytes(pa, code[i:i+1])
	}
	as.Map(stepData, phys.AllocFrame(), mem.PermRW)
	e := &stepEnv{core: core, as: as, entry: base, regs: regs, maxInsts: maxInsts}
	res := e.run()
	want := pipeline.StopHalt
	if maxInsts != 0 {
		want = pipeline.StopInstLimit
	}
	if res.Stop != want {
		tb.Fatalf("warm-up stopped with %v, want %v", res.Stop, want)
	}
	e.insts = res.Insts
	return e
}

// stepData is the data page of newRunEnv.
const stepData = 0x10000

// run makes one Run from the entry with the env's input registers.
func (e *stepEnv) run() pipeline.RunResult {
	regs := e.regs
	return e.core.Run(e.as, e.entry, &regs, e.maxInsts)
}

// newStepEnv runs a counted ALU loop: the steady-state instruction stream
// with no stores, loads or faults.
func newStepEnv(tb testing.TB, iters int32) *stepEnv {
	tb.Helper()
	code, err := asm.NewBuilder().
		Movi(isa.RCX, iters).
		Movi(isa.RDX, 1).
		Label("loop").
		Sub(isa.RCX, isa.RCX, isa.RDX).
		Xor(isa.RBX, isa.RCX, isa.RDX).
		Jnz(isa.RCX, "loop").
		Halt().
		Assemble(0x400000)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	return newRunEnv(tb, code, [isa.NumRegs]uint64{}, 0)
}

// newNOPSledEnv runs the stld microbenchmark laid out as
// revng.PlaceStldHash places it: 488 NOPs of padding so that the STORE ends
// the first page and the load starts the next. The Run covers the first
// page and stops before the load.
func newNOPSledEnv(tb testing.TB) *stepEnv {
	tb.Helper()
	pad := (mem.PageSize - isa.InstBytes - asm.BuildStld(asm.StldOptions{}).StoreOff) / isa.InstBytes
	var regs [isa.NumRegs]uint64
	regs[isa.RDI] = stepData
	regs[isa.RSI] = stepData + 0x800
	regs[isa.R9] = 0xdd
	return newRunEnv(tb, asm.BuildStld(asm.StldOptions{PadStart: pad}).Code, regs, mem.PageSize/isa.InstBytes)
}

// BenchmarkCoreStep measures the steady-state per-instruction cost of the
// pipeline: decoded-page fetch hit, ALU execute, retire — no observers, no
// memory traffic.
func BenchmarkCoreStep(b *testing.B) {
	benchRuns(b, newStepEnv(b, 256))
}

// BenchmarkCoreNOPSled measures one Run through the first page of the
// hash-placed stld: 488 padding NOPs and the 24 instructions up to its
// STORE. Such padding is most of what the fingerprinting experiments
// simulate; ns/inst counts the NOPs, which retire a run at a time.
func BenchmarkCoreNOPSled(b *testing.B) {
	benchRuns(b, newNOPSledEnv(b))
}

// benchRuns times steady-state Runs of e's program.
func benchRuns(b *testing.B, e *stepEnv) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(e.insts), "ns/inst")
}

// TestCoreStepSteadyStateAllocFree pins the tentpole invariant: once a core
// has run a program once, re-running it allocates nothing — instruction
// records, run state and decoded pages are all recycled.
func TestCoreStepSteadyStateAllocFree(t *testing.T) {
	e := newStepEnv(t, 64)
	if allocs := testing.AllocsPerRun(20, func() { e.run() }); allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCoreNOPSledAllocFree pins the same invariant for the hash-placed stld.
func TestCoreNOPSledAllocFree(t *testing.T) {
	e := newNOPSledEnv(t)
	if allocs := testing.AllocsPerRun(20, func() { e.run() }); allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkStldRun measures one timed stld run on a calibrated lab, the
// unit of the Fig 2 sequences, code sliding and the collision searches:
// revng.Stld.Run through Kernel.RunOn and Core.Run. Every eighth run aliases,
// so the (7n, a) pattern keeps the pair cycling through rollbacks.
func BenchmarkStldRun(b *testing.B) {
	s := revng.NewLab(kernel.Config{Seed: 1}).PlaceStld()
	for i := 0; i < 16; i++ { // grow the episode and predictor state
		s.Run(i%8 == 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(i%8 == 7)
	}
}

// countingInstObs counts instruction events through the batched
// InstObserver fast path.
type countingInstObs struct{ n int }

func (c *countingInstObs) HandleEvent(e obs.Event)         { c.n++ }
func (c *countingInstObs) HandleInsts(evs []obs.InstEvent) { c.n += len(evs) }

// BenchmarkObsEmitFast measures EmitInst delivery to one InstObserver
// subscriber: the hot emit path a metrics-collecting run pays per
// instruction.
func BenchmarkObsEmitFast(b *testing.B) {
	bus := obs.NewBus()
	o := &countingInstObs{}
	bus.Subscribe(o, obs.Options{Classes: []obs.Class{obs.ClassInst}})
	ev := obs.InstEvent{CPU: 0, PC: 0x400000}
	bus.EmitInst(&ev) // allocates the staging buffer
	bus.Flush()
	o.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Dispatch = int64(i)
		bus.EmitInst(&ev)
	}
	bus.Flush()
	if o.n != b.N {
		b.Fatalf("observer saw %d events, want %d", o.n, b.N)
	}
}

// observedRun is a run's worth of instruction events: 28 events over two
// code pages, the last PC of the first page holding two opcodes, as sliding
// leaves it.
func observedRun() []obs.InstEvent {
	evs := make([]obs.InstEvent, 0, 28)
	for i := 0; i < 28; i++ {
		pc, op := uint64(0x400fa0+8*i), isa.LOAD
		switch {
		case i == 12:
			pc = 0x400ff8 // the PC of event 11, under another opcode
			op = isa.ADD
		case i%3 == 0:
			op = isa.IMUL
		}
		evs = append(evs, obs.InstEvent{CPU: 0, PC: pc, Inst: isa.Inst{Op: op},
			Dispatch: int64(i), Issue: int64(i + 1), Complete: int64(i + 4), RetiredBy: int64(i + 5),
			Transient: i%7 == 6})
	}
	return evs
}

// observedBus is a bus with obs.NewMetrics() and a prof.New() filtered to
// its classes, as the harness attaches them for -metrics -profile, and a
// run of instruction events whose profile sites already exist.
func observedBus() (*obs.Bus, []obs.InstEvent) {
	bus := obs.NewBus()
	bus.Subscribe(obs.Multi(obs.NewMetrics(), obs.Filter(prof.New(), prof.Classes())), obs.Options{})
	run := observedRun()
	emitRun(bus, run)
	return bus, run
}

// emitRun emits run on bus and flushes it, as one Core.Run of an stld pair
// does. Amid the instruction events come those only the registry takes: the
// load's prediction, the cache fills of its miss with the line one
// displaced, the PSFP train and SSBP transition of its verification, and
// the run's PMC readout.
func emitRun(bus *obs.Bus, run []obs.InstEvent) {
	half := len(run) / 2
	for i := range run[:half] {
		bus.EmitInst(&run[i])
	}
	obs.Emit(bus, obs.PredictEvent{Cycle: 9, StoreIPA: 0x400fa0, LoadIPA: 0x400fa8, Aliasing: true, PSFPHit: true})
	obs.Emit(bus, obs.CacheEvent{Cycle: 9, Kind: "fill", Level: "L2", Line: 0x10000})
	obs.Emit(bus, obs.CacheEvent{Cycle: 9, Kind: "fill", Level: "L1", Line: 0x10000})
	obs.Emit(bus, obs.CacheEvent{Cycle: 9, Kind: "evict", Level: "L1", Line: 0x10000, Victim: 0x20000})
	obs.Emit(bus, obs.PSFPTrainEvent{Cycle: 12, Type: "G", Aliasing: true, Allocated: true})
	obs.Emit(bus, obs.SSBPTransitionEvent{Cycle: 12, Type: "G", Aliasing: true, StateBefore: "Initialize", StateAfter: "Block"})
	for i := half; i < len(run); i++ {
		bus.EmitInst(&run[i])
	}
	var counts pmc.Counters
	counts.Add(pmc.RetiredOps, uint64(len(run)))
	counts.Add(pmc.Rollbacks, 1)
	obs.Emit(bus, obs.PMCEvent{Cycle: 40, Counts: counts})
	bus.Flush()
}

// BenchmarkObsEmitObserved measures a run's events emitted into the metrics
// registry and the profile and flushed, at steady state: the per-run cost an
// observed run pays.
func BenchmarkObsEmitObserved(b *testing.B) {
	bus, run := observedBus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run[0].Dispatch = int64(i)
		emitRun(bus, run)
	}
}

// TestObsEmitObservedAllocFree pins the observed emit path allocation-free:
// staging and delivering a batch allocates nothing, the registry gets its
// other events unboxed, and neither the metrics registry nor the profile
// allocates for instructions of known sites.
func TestObsEmitObservedAllocFree(t *testing.T) {
	bus, run := observedBus()
	allocs := testing.AllocsPerRun(100, func() {
		run[0].Dispatch++
		emitRun(bus, run)
	})
	if allocs != 0 {
		t.Fatalf("observed emit allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkProfileFold measures the profile's fold of a run's instruction
// events into sites it already holds: the page index's hit path, a page
// change and a PC holding two opcodes.
func BenchmarkProfileFold(b *testing.B) {
	p := prof.New()
	run := observedRun()
	p.HandleInsts(run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandleInsts(run)
	}
}

// BenchmarkObsEmitDisabled measures the guarded emit site with no observer
// attached: one nil/mask test, nothing else.
func BenchmarkObsEmitDisabled(b *testing.B) {
	var bus *obs.Bus
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bus.On(obs.ClassInst) {
			sink++
		}
	}
	if sink != 0 {
		b.Fatal("nil bus reported a subscriber")
	}
}

// TestEmitNoObserverAllocFree pins the zero-alloc invariant for the emit
// path without observers at both guard levels: a nil bus (unobserved machine)
// and a live bus whose subscribers don't want the class. Staging events in
// the bus's buffer, as the pipeline does, and delivering them in batches must
// not allocate either: they are never boxed.
func TestEmitNoObserverAllocFree(t *testing.T) {
	var nilBus *obs.Bus
	allocs := testing.AllocsPerRun(100, func() {
		if nilBus.On(obs.ClassInst) {
			t.Fatal("nil bus on")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-bus guard allocates %.1f objects per run, want 0", allocs)
	}

	bus := obs.NewBus()
	bus.Subscribe(&countingInstObs{}, obs.Options{Classes: []obs.Class{obs.ClassCache}})
	allocs = testing.AllocsPerRun(100, func() {
		if bus.On(obs.ClassInst) {
			t.Fatal("unsubscribed class on")
		}
	})
	if allocs != 0 {
		t.Fatalf("masked-class guard allocates %.1f objects per run, want 0", allocs)
	}

	o := &countingInstObs{}
	bus.Subscribe(o, obs.Options{Classes: []obs.Class{obs.ClassInst}})
	allocs = testing.AllocsPerRun(1000, func() {
		*bus.NextInst() = obs.InstEvent{CPU: 1, PC: 0x400000}
	})
	if allocs != 0 {
		t.Fatalf("EmitInst allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkFlushReloadSweep measures one full probe-array sweep — FlushAll
// followed by Reload over 256 slots — the side-channel inner loop every
// secret-extraction trial repeats. The hits slice is arena-reused by
// Reload, so the steady state allocates nothing.
func BenchmarkFlushReloadSweep(b *testing.B) {
	k := kernel.New(kernel.Config{Seed: 1})
	p := k.NewProcess("fr", kernel.DomainUser)
	const probeVA = 0x2000000
	p.MapData(probeVA, 256*mem.PageSize)
	fr := sidechannel.New(k, p, 0, probeVA, 256, 0x400000)
	// Warm one sweep so calibration and buffer growth are out of the loop.
	fr.FlushAll()
	p.WarmLine(probeVA + 7*fr.Stride)
	fr.Reload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.FlushAll()
		p.WarmLine(probeVA + uint64(i%256)*fr.Stride)
		if hits := fr.Reload(); len(hits) != 1 {
			b.Fatalf("sweep %d: %d hits, want 1", i, len(hits))
		}
	}
}
