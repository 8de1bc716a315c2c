package revng

import (
	"fmt"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
	"zenspec/internal/predict"
)

// The transient experiments build their own tiny processes; the layout
// mirrors the attacker binaries elsewhere in the package.
const (
	transCodeVA  = 0x400000
	transDataVA  = 0x10000
	transProbeVA = 0x40000
)

// TransientExecResult reproduces Fig 8 (Section IV-C, Vulnerability 3): both
// mispredictions leave a cache trace of a value the program never
// architecturally produced.
type TransientExecResult struct {
	// SSBP misprediction (case 4b): the untrained predictor lets the load
	// bypass an aliasing store, so the STALE memory value steers a dependent
	// load whose line stays cached after the rollback.
	SSBPLeadingG    bool // the bypass was detected and rolled back (type G)
	SSBPArchCorrect bool // architectural result is still the store's value
	SSBPStaleCached bool // probe line of the stale value is cached
	SSBPArchCached  bool // probe line of the architectural value too (replay)
	// PSFP misprediction (case 4a): trained PSF forwards the store data to a
	// NON-aliasing load, caching the forwarded value's probe line.
	PSFPTypeD         bool // wrong forward was detected (type D)
	PSFPForwardCached bool // probe line of the wrongly forwarded value cached
}

func (r TransientExecResult) String() string {
	return fmt.Sprintf("Section IV-C — transient execution windows: SSBP stale-value trace %v (G=%v, arch ok %v, replay cached %v); PSFP forwarded-value trace %v (D=%v)",
		r.SSBPStaleCached, r.SSBPLeadingG, r.SSBPArchCorrect, r.SSBPArchCached,
		r.PSFPForwardCached, r.PSFPTypeD)
}

// buildFig8 assembles the Fig 8 gadget: a store whose address resolves
// slowly (imul chain), an (possibly aliasing) load, and a dependent load
// that encodes the loaded value into the cache.
//
//	store [slow(rdi)], r9
//	load  r8, [rsi]
//	load  r12, [rbp + r8*64]
func buildFig8(imuls int) []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R12, 1)
	b.Mov(isa.RBX, isa.RDI)
	for i := 0; i < imuls; i++ {
		b.Imul(isa.RBX, isa.RBX, isa.R12)
	}
	b.Store(isa.RBX, 0, isa.R9)
	b.Load(isa.R8, isa.RSI, 0)
	b.Shli(isa.R13, isa.R8, 6)
	b.Add(isa.R13, isa.R13, isa.RBP)
	b.Load(isa.R14, isa.R13, 0)
	b.Halt()
	return b.MustAssemble(transCodeVA)
}

// TransientExec runs both Fig 8 experiments on fresh machines.
func TransientExec(cfg kernel.Config) TransientExecResult {
	var res TransientExecResult

	// Case 4b — SSBP misprediction exposes the stale memory value.
	{
		k := kernel.New(cfg)
		p := k.NewProcess("fig8-ssbp", kernel.DomainUser)
		p.MapCode(transCodeVA, buildFig8(20))
		p.MapData(transDataVA, mem.PageSize)
		p.MapData(transProbeVA, 0x100*64)
		p.Write64(transDataVA, 0xcc) // the stale value

		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI] = transDataVA
		p.Regs[isa.RSI] = transDataVA // aliasing
		p.Regs[isa.R9] = 0xdd
		p.Regs[isa.RBP] = transProbeVA
		run := k.Run(p, transCodeVA, 0)
		res.SSBPLeadingG = run.Stop == pipeline.StopHalt &&
			len(run.Stlds) > 0 && run.Stlds[0].Type == predict.TypeG
		res.SSBPArchCorrect = p.Regs[isa.R8] == 0xdd
		if pa, f := p.Translate(transProbeVA+0xcc*64, mem.AccessRead); f == mem.FaultNone {
			res.SSBPStaleCached = k.Caches().Cached(pa)
		}
		if pa, f := p.Translate(transProbeVA+0xdd*64, mem.AccessRead); f == mem.FaultNone {
			res.SSBPArchCached = k.Caches().Cached(pa)
		}
	}

	// Case 4a — trained PSF forwards to a non-aliasing load.
	{
		k := kernel.New(cfg)
		p := k.NewProcess("fig8-psfp", kernel.DomainUser)
		p.MapCode(transCodeVA, buildFig8(20))
		p.MapData(transDataVA, mem.PageSize)
		p.MapData(transProbeVA, 0x100*64)
		p.Write64(transDataVA+0x800, 0xbb) // value at the non-aliasing address

		run := func(aliasing bool) pipeline.RunResult {
			p.Regs = [isa.NumRegs]uint64{}
			p.Regs[isa.RDI] = transDataVA
			p.Regs[isa.RSI] = transDataVA
			if !aliasing {
				p.Regs[isa.RSI] = transDataVA + 0x800
			}
			p.Regs[isa.R9] = 0xdd
			p.Regs[isa.RBP] = transProbeVA
			return k.Run(p, transCodeVA, 0)
		}
		// Train PSF: one G, then aliasing runs until forwarding is enabled.
		for i := 0; i < 7; i++ {
			run(true)
		}
		// Flush the probe region so only the transient access re-fills it.
		for v := uint64(0); v < 0x100; v++ {
			p.FlushLine(transProbeVA + v*64)
		}
		probe := run(false) // PSF wrongly forwards 0xdd -> type D
		for _, ev := range probe.Stlds {
			if ev.Type == predict.TypeD {
				res.PSFPTypeD = true
			}
		}
		if pa, f := p.Translate(transProbeVA+0xdd*64, mem.AccessRead); f == mem.FaultNone {
			res.PSFPForwardCached = k.Caches().Cached(pa)
		}
	}
	return res
}

// TransientUpdateResult reproduces Fig 9 (Section IV-D, Vulnerability 4):
// predictor updates made inside a transient window survive the squash, for
// all three window types the paper lists.
type TransientUpdateResult struct {
	// Branch window: an stld on the wrong path of a mispredicted branch.
	BranchWindowSquashed bool // the wrong-path load never retired
	BranchWindowTrained  bool // yet the predictor kept its update
	// Faulty-load window: dependents of a faulting load run transiently.
	FaultWindowCached bool // the dependent load's line was cached
	// Memory-speculation window: an stld inside a type-G rollback window.
	MemWindowTransient bool // the inner stld was seen transiently
}

func (r TransientUpdateResult) String() string {
	return fmt.Sprintf("Section IV-D — transient predictor updates: branch window squashed %v / trained %v; faulty-load window cached %v; memory window transient %v",
		r.BranchWindowSquashed, r.BranchWindowTrained, r.FaultWindowCached, r.MemWindowTransient)
}

// TransientUpdate runs the three Fig 9 experiments on fresh machines.
func TransientUpdate(cfg kernel.Config) TransientUpdateResult {
	var res TransientUpdateResult

	// Branch window: train not-taken, flush predictors, run taken — the
	// wrong-path aliasing stld must still train SSBP/PSFP.
	{
		k := kernel.New(cfg)
		p := k.NewProcess("fig9-branch", kernel.DomainUser)
		b := asm.NewBuilder()
		b.Movi(isa.R12, 1)
		b.Mov(isa.R11, isa.RCX)
		for i := 0; i < 10; i++ {
			b.Imul(isa.R11, isa.R11, isa.R12)
		}
		b.Jnz(isa.R11, "skip")
		b.Mov(isa.RBX, isa.RDI)
		for i := 0; i < 8; i++ {
			b.Imul(isa.RBX, isa.RBX, isa.R12)
		}
		b.Store(isa.RBX, 0, isa.R9)
		b.Load(isa.R8, isa.RSI, 0)
		b.Label("skip")
		b.Halt()
		p.MapCode(transCodeVA, b.MustAssemble(transCodeVA))
		p.MapData(transDataVA, mem.PageSize)

		for i := 0; i < 4; i++ {
			p.Regs = [isa.NumRegs]uint64{}
			p.Regs[isa.RDI] = transDataVA
			p.Regs[isa.RSI] = transDataVA + 0x800 // non-aliasing in training
			k.Run(p, transCodeVA, 0)
		}
		// Reset predictors so only the transient window trains them.
		k.CPU(0).Unit.FlushAll()

		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RCX] = 1 // branch mispredicts; stld is wrong-path only
		p.Regs[isa.RDI] = transDataVA
		p.Regs[isa.RSI] = transDataVA // aliasing within the window
		p.Regs[isa.R9] = 0x11
		run := k.Run(p, transCodeVA, 0)
		res.BranchWindowSquashed = run.Stop == pipeline.StopHalt && p.Regs[isa.R8] == 0
		for _, ev := range run.Stlds {
			if !ev.Transient {
				continue
			}
			q := predict.Query{StoreIPA: ev.StoreIPA, LoadIPA: ev.LoadIPA}
			if !k.CPU(0).Unit.PeekCounters(q).Zero() {
				res.BranchWindowTrained = true
			}
		}
	}

	// Faulty-load window: AMD semantics forward zero from a faulting load,
	// so its dependent touches probe line 0 before the fault retires.
	{
		k := kernel.New(cfg)
		p := k.NewProcess("fig9-fault", kernel.DomainUser)
		b := asm.NewBuilder()
		b.Load(isa.R8, isa.RDI, 0) // faults (unmapped)
		b.Shli(isa.R13, isa.R8, 6)
		b.Add(isa.R13, isa.R13, isa.RBP)
		b.Load(isa.R14, isa.R13, 0)
		b.Halt()
		p.MapCode(transCodeVA, b.MustAssemble(transCodeVA))
		p.MapData(transProbeVA, 64)
		p.FlushLine(transProbeVA)

		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI] = 0xdead000 // unmapped
		p.Regs[isa.RBP] = transProbeVA
		run := k.Run(p, transCodeVA, 0)
		if pa, f := p.Translate(transProbeVA, mem.AccessRead); f == mem.FaultNone {
			res.FaultWindowCached = run.Stop == pipeline.StopFault && k.Caches().Cached(pa)
		}
	}

	// Memory-speculation window: an inner stld executed only inside an outer
	// type-G rollback window is still verified (transiently).
	{
		k := kernel.New(cfg)
		p := k.NewProcess("fig9-mem", kernel.DomainUser)
		b := asm.NewBuilder()
		b.Movi(isa.R12, 1)
		b.Mov(isa.RBX, isa.RDI)
		for i := 0; i < 20; i++ {
			b.Imul(isa.RBX, isa.RBX, isa.R12)
		}
		b.Store(isa.RBX, 0, isa.R9)
		b.Load(isa.R8, isa.RSI, 0)
		b.Mov(isa.R15, isa.RDX)
		for i := 0; i < 4; i++ {
			b.Imul(isa.R15, isa.R15, isa.R12)
		}
		b.Store(isa.R15, 0, isa.R9)
		b.Load(isa.R10, isa.RDX, 0)
		b.Halt()
		p.MapCode(transCodeVA, b.MustAssemble(transCodeVA))
		p.MapData(transDataVA, mem.PageSize)

		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI] = transDataVA
		p.Regs[isa.RSI] = transDataVA // aliasing -> G window
		p.Regs[isa.RDX] = transDataVA + 0x400
		p.Regs[isa.R9] = 7
		run := k.Run(p, transCodeVA, 0)
		if run.Stop == pipeline.StopHalt {
			for _, ev := range run.Stlds {
				if ev.Transient {
					res.MemWindowTransient = true
				}
			}
		}
	}
	return res
}
