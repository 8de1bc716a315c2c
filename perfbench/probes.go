package main

import (
	"fmt"
	"runtime"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/cache"
	"zenspec/internal/harness"
	"zenspec/internal/harness/suite"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
	"zenspec/internal/prof"
	"zenspec/internal/sidechannel"
	"zenspec/internal/speccheck"
)

// probeRounds is how many rounds each probe loop runs; a probe reports the
// median round.
const probeRounds = 7

// probe is one layer probe's outcome: host time and heap allocations per
// call of the layer's entry point.
type probe struct {
	ns, allocs float64
}

// measure calls fn ops times per round and returns the median ns per call
// and the mean allocations per call, with a span around the whole loop.
func measure(t *Tracer, name string, ops int, fn func()) probe {
	sp := t.Begin("probes", name, "probes", -1)
	defer t.End(sp)
	fn() // the first call may fill lazily built state
	var ns []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	runtime.ReadMemStats(&m1)
	return probe{ns: median(ns), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(probeRounds*ops)}
}

const (
	codeVA  = 0x400000
	dataVA  = 0x2000000
	probeVA = 0x3000000
)

// coreEnv is a bare pipeline core with code mapped at codeVA and one data
// page at dataVA.
type coreEnv struct {
	core *pipeline.Core
	as   *mem.AddrSpace
}

func newCoreEnv(code []byte) (*coreEnv, error) {
	phys := mem.NewPhysical()
	core := pipeline.New(pipeline.DefaultConfig(), phys, cache.New(cache.DefaultConfig()),
		predict.NewUnit(predict.Config{Seed: 1}), &pmc.Counters{})
	as := mem.NewAddrSpace()
	for off := uint64(0); off < uint64(len(code)); off += mem.PageSize {
		as.Map(codeVA+off, phys.AllocFrame(), mem.PermR|mem.PermX)
	}
	as.Map(dataVA, phys.AllocFrame(), mem.PermRW)
	for i := range code {
		pa, f := as.Translate(codeVA+uint64(i), mem.AccessRead)
		if f != mem.FaultNone {
			return nil, fmt.Errorf("probe: code+%d does not translate: %v", i, f)
		}
		phys.WriteBytes(pa, code[i:i+1])
	}
	return &coreEnv{core: core, as: as}, nil
}

// aluLoop is a counted ALU loop: the steady-state instruction stream with no
// memory traffic.
func aluLoop(iters int32) ([]byte, error) {
	return asm.NewBuilder().
		Movi(isa.RCX, iters).
		Movi(isa.RDX, 1).
		Label("loop").
		Sub(isa.RCX, isa.RCX, isa.RDX).
		Xor(isa.RBX, isa.RCX, isa.RDX).
		Jnz(isa.RCX, "loop").
		Halt().
		Assemble(codeVA)
}

// stldRegs points the stld program at two distinct words of the data page.
func stldRegs(regs *[isa.NumRegs]uint64) {
	regs[isa.RDI] = dataVA
	regs[isa.RSI] = dataVA + 64
	regs[isa.R9] = 7
}

// probeResults holds every probe, by metric name.
type probeResults map[string]probe

// runProbes measures each layer's entry point in isolation. seed only
// chooses the generated speccheck program.
func runProbes(t *Tracer, seed int64, info func(string, ...any)) (probeResults, error) {
	out := probeResults{}

	// pipeline: per-instruction cost of the core step.
	loop, err := aluLoop(256)
	if err != nil {
		return nil, err
	}
	step, err := newCoreEnv(loop)
	if err != nil {
		return nil, err
	}
	var regs [isa.NumRegs]uint64
	insts := step.core.Run(step.as, codeVA, &regs, 0).Insts
	p := measure(t, "pipeline.step", 200, func() { step.core.Run(step.as, codeVA, &regs, 0) })
	out["pipeline.step_ns_per_inst"] = probe{ns: p.ns / float64(insts), allocs: p.allocs}

	// pipeline: fixed cost of one Core.Run of the paper's short stld program.
	stld := asm.BuildStld(asm.StldOptions{})
	fixed, err := newCoreEnv(stld.Code)
	if err != nil {
		return nil, err
	}
	stldRegs(&regs)
	stldInsts := fixed.core.Run(fixed.as, codeVA, &regs, 0).Insts
	out["pipeline.run_fixed_ns"] = measure(t, "pipeline.run_fixed", 5000, func() {
		stldRegs(&regs)
		fixed.core.Run(fixed.as, codeVA, &regs, 0)
	})
	info("probe programs: ALU loop %d instructions, stld %d instructions per Run", insts, stldInsts)

	// kernel: the same stld program through Kernel.Run.
	k := kernel.New(kernel.Config{Seed: 1})
	proc := k.NewProcess("probe", kernel.DomainUser)
	proc.MapCode(codeVA, stld.Code)
	proc.MapData(dataVA, mem.PageSize)
	out["kernel.run_ns"] = measure(t, "kernel.run", 5000, func() {
		stldRegs(&proc.Regs)
		k.Run(proc, codeVA, 0)
	})

	// predict: one prediction and its verification over 64 store/load pairs.
	unit := predict.NewUnit(predict.Config{Seed: 1})
	var qs [64]predict.Query
	for i := range qs {
		qs[i] = predict.Query{StoreIPA: 0x10000 + uint64(i)*0x1040, LoadIPA: 0x10010 + uint64(i)*0x1040,
			StoreIVA: codeVA + uint64(i)*64, LoadIVA: codeVA + uint64(i)*64 + 16}
	}
	qi := 0
	out["predict.predict_verify_ns"] = measure(t, "predict.predict_verify", 100000, func() {
		q := qs[qi&63]
		unit.Predict(q)
		unit.Verify(q, qi%4 == 0)
		qi++
	})

	// cache: accesses striding a 256 KiB region, so L1 misses and L2 hits mix.
	h := cache.New(cache.DefaultConfig())
	ci := uint64(0)
	out["cache.access_ns"] = measure(t, "cache.access", 100000, func() {
		h.Access(0x100000 + (ci*64)%(256<<10))
		ci += 5
	})

	// mem: translations over 256 mapped pages.
	as := mem.NewAddrSpace()
	phys := mem.NewPhysical()
	for i := uint64(0); i < 256; i++ {
		as.Map(dataVA+i*mem.PageSize, phys.AllocFrame(), mem.PermRW)
	}
	ti := uint64(0)
	out["mem.translate_ns"] = measure(t, "mem.translate", 100000, func() {
		as.Translate(dataVA+(ti%256)*mem.PageSize+ti%mem.PageSize, mem.AccessRead)
		ti += 7
	})

	// sidechannel: one Flush+Reload sweep over a 256-slot probe array.
	fk := kernel.New(kernel.Config{Seed: 1})
	fp := fk.NewProcess("fr", kernel.DomainUser)
	fp.MapData(probeVA, 256*mem.PageSize)
	fr := sidechannel.New(fk, fp, 0, probeVA, 256, codeVA)
	si := uint64(0)
	out["sidechannel.sweep_ns"] = measure(t, "sidechannel.sweep", 200, func() {
		fr.FlushAll()
		fp.WarmLine(probeVA + (si%256)*fr.Stride)
		fr.Reload()
		si++
	})

	// speccheck: a generated 20k-instruction program, cold and warm cache.
	code := speccheck.GenProgram(seed, 20_000)
	var cold, warm []float64
	var c *speccheck.Cache
	for i := 0; i < 3; i++ {
		c = speccheck.NewCache()
		sp := t.Begin("probes", "speccheck.cold", "probes", -1)
		start := time.Now()
		c.Analyze(code, speccheck.Options{})
		cold = append(cold, ms(time.Since(start)))
		t.End(sp)
	}
	for i := 0; i < 5; i++ {
		sp := t.Begin("probes", "speccheck.warm", "probes", -1)
		start := time.Now()
		c.Analyze(code, speccheck.Options{})
		warm = append(warm, ms(time.Since(start)))
		t.End(sp)
	}
	out["speccheck.cold_ms"] = probe{ns: median(cold)}
	out["speccheck.warm_ms"] = probe{ns: median(warm)}

	// obs and prof: the per-instruction emit path into a metrics registry,
	// the profiler's per-instruction fold, and both snapshots.
	bus := obs.NewBus()
	mreg := obs.NewMetrics()
	bus.Subscribe(mreg, obs.Options{Classes: []obs.Class{obs.ClassInst}})
	profile := prof.New()
	var ev obs.InstEvent
	ei := int64(0)
	next := func() {
		ev = obs.InstEvent{PC: codeVA + uint64(ei%512)*8, Dispatch: ei, Issue: ei + 1, Complete: ei + 3, RetiredBy: ei + 4}
		ei++
	}
	out["obs.emit_ns"] = measure(t, "obs.emit", 100000, func() { next(); bus.EmitInst(&ev) })
	out["prof.handle_inst_ns"] = measure(t, "prof.handle_inst", 100000, func() { next(); profile.HandleInst(&ev) })
	msnap := measure(t, "obs.metrics_snapshot", 20, func() { mreg.Snapshot() })
	out["obs.metrics_snapshot_ms"] = probe{ns: msnap.ns / 1e6, allocs: msnap.allocs}
	psnap := measure(t, "prof.snapshot", 20, func() { profile.Snapshot() })
	out["prof.snapshot_ms"] = probe{ns: psnap.ns / 1e6, allocs: psnap.allocs}
	return out, nil
}

// mergeProbe runs quick fig11 as four trial-range shards, then times
// MergeTrialRanges over them. It returns the merge times in ms and whether
// the merged report passed.
func mergeProbe(t *Tracer, seed int64, nproc int) ([]float64, bool, error) {
	reg := suite.Registry()
	ctx := harness.Ctx{
		Config: kernel.Config{Seed: seed, Parallelism: nproc, Pipeline: pipeline.Config{SQSize: 48}},
		Quick:  true, Arenas: harness.NewArenaPool(),
	}
	n, err := reg.Trials(ctx, "fig11")
	if err != nil {
		return nil, false, err
	}
	var parts []harness.PartialReport
	for i := 0; i < jobSplit; i++ {
		sp := t.Begin("fig11", "range", "merge", -1)
		p, err := reg.RunTrialRange(ctx, "fig11", i*n/jobSplit, (i+1)*n/jobSplit)
		t.End(sp)
		if err != nil {
			return nil, false, err
		}
		parts = append(parts, p)
	}
	var out []float64
	ok := true
	for i := 0; i < 5; i++ {
		sp := t.Begin("fig11", "merge", "merge", -1)
		start := time.Now()
		rep, err := reg.MergeTrialRanges(ctx, "fig11", parts)
		out = append(out, ms(time.Since(start)))
		t.End(sp)
		if err != nil {
			return nil, false, err
		}
		ok = ok && experimentOK(rep)
	}
	return out, ok, nil
}
