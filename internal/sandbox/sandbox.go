// Package sandbox models the browser environment of Section V-C2: code is
// produced by a JIT (programmatic builder only — no hand-placed bytes), all
// architectural memory accesses are bounds-masked into a linear heap (the
// WebAssembly memory model), CLFLUSH and syscalls do not exist, and the only
// clock is a constructed coarse timer.
//
// The point of the model is the paper's: none of those restrictions contain
// *transient* execution. A sanitize-then-use gadget is architecturally
// confined to the heap, yet under an SSBP misprediction its dereference runs
// with a stale, attacker-planted out-of-heap pointer — and the verdict comes
// back through predictor timing, with no cache flushing at all.
package sandbox

import (
	"fmt"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
)

// Heap geometry.
const (
	heapVA   = 0x20000000
	codeVA   = 0x10000000
	secretVA = 0x30000000 // "renderer memory": same process, outside the heap
)

// Env is one renderer: a process with a linear heap, a JIT code region and a
// coarse timer.
type Env struct {
	K    *kernel.Kernel
	Proc *kernel.Process
	// HeapSize is a power of two; architectural heap accesses are masked to
	// [0, HeapSize).
	HeapSize uint64

	codeNext uint64
	modCount uint64
	osProc   *kernel.Process
	osEntry  uint64
}

// New boots a renderer. cfg's timer fields default to the browser profile
// (40-cycle quantum) when unset.
func New(cfg kernel.Config, heapSize uint64) (*Env, error) {
	if heapSize == 0 || heapSize&(heapSize-1) != 0 {
		return nil, fmt.Errorf("sandbox: heap size %d is not a power of two", heapSize)
	}
	if cfg.TimerQuantum == 0 {
		cfg.TimerQuantum = 40
	}
	k := kernel.New(cfg)
	p := k.NewProcess("renderer", kernel.DomainUser)
	p.MapData(heapVA, heapSize)
	e := &Env{K: k, Proc: p, HeapSize: heapSize, codeNext: codeVA}
	// The rest of the system: a kernel task scheduled between renderer
	// tasks. Its context switches flush PSFP — renderers never run in
	// isolation, and the attack machinery depends on exactly that.
	e.osProc = k.NewProcess("os", kernel.DomainKernel)
	ob := asm.NewBuilder()
	ob.Nop().Halt()
	const osVA = 0xf000000
	e.osProc.MapCode(osVA, ob.MustAssemble(osVA))
	e.osEntry = osVA
	return e, nil
}

// TouchHeap warms a heap slot's cache line — what an architectural script
// read of that slot does.
func (e *Env) TouchHeap(idx uint64) {
	e.Proc.WarmLine(heapVA + (idx & (e.HeapSize - 8)))
}

// PlantSecret places bytes in renderer memory outside the heap — the data a
// confined script must never read.
func (e *Env) PlantSecret(b []byte) uint64 {
	e.Proc.MapData(secretVA, uint64(len(b))+mem.PageSize)
	e.Proc.WriteBytes(secretVA, b)
	return secretVA
}

// WriteHeap stores a 64-bit value at a heap index (bounds-checked like any
// script write).
func (e *Env) WriteHeap(idx uint64, v uint64) {
	e.Proc.Write64(heapVA+(idx&(e.HeapSize-8)), v)
}

// HeapBase returns the heap's virtual base — scripts never see it; gadget
// builders use it to reason about planted pointers.
func (e *Env) HeapBase() uint64 { return heapVA }

// Builder is the JIT surface: a restricted assembler. There is deliberately
// no Clflush, no Syscall, no raw Store/Load — heap accesses go through the
// masking helpers, mirroring WASM linear memory.
type Builder struct {
	a    *asm.Builder
	mask int32
}

// Reg aliases the register type for gadget construction.
type Reg = isa.Reg

// Registers available to sandboxed code (R14/R15 are runtime-reserved).
const (
	Arg0 = isa.RDI
	Arg1 = isa.RSI
	Arg2 = isa.RDX
	Ret  = isa.RAX
	T0   = isa.RCX
	T1   = isa.RBX
	T2   = isa.R8
	T3   = isa.R9
	T4   = isa.R10
	T5   = isa.R11
)

// Const emits dst = imm.
func (b *Builder) Const(dst Reg, imm int32) *Builder { b.a.Movi(dst, imm); return b }

// Move emits dst = src.
func (b *Builder) Move(dst, src Reg) *Builder { b.a.Mov(dst, src); return b }

// AddImm emits dst = x + imm.
func (b *Builder) AddImm(dst, x Reg, imm int32) *Builder { b.a.Addi(dst, x, imm); return b }

// Sub emits dst = x - y.
func (b *Builder) Sub(dst, x, y Reg) *Builder { b.a.Sub(dst, x, y); return b }

// And emits dst = x & imm.
func (b *Builder) And(dst, x Reg, imm int32) *Builder { b.a.Andi(dst, x, imm); return b }

// Shl emits dst = x << imm.
func (b *Builder) Shl(dst, x Reg, imm int32) *Builder { b.a.Shli(dst, x, imm); return b }

// Mul emits dst = x * y (the slow unit — gadgets use it to shape address
// timing, as script code shapes it with dependent arithmetic).
func (b *Builder) Mul(dst, x, y Reg) *Builder { b.a.Imul(dst, x, y); return b }

// Label and branches.
func (b *Builder) Label(name string) *Builder        { b.a.Label(name); return b }
func (b *Builder) Jump(name string) *Builder         { b.a.Jmp(name); return b }
func (b *Builder) JumpZero(r Reg, l string) *Builder { b.a.Jz(r, l); return b }

// LoadHeap emits dst = heap[idx & mask], the bounds-masked linear-memory
// load. idx is clobbered.
func (b *Builder) LoadHeap(dst, idx Reg) *Builder {
	b.a.Andi(idx, idx, b.mask)
	b.a.Add(idx, idx, isa.R15) // R15 = heap base, set by the runtime
	b.a.Load(dst, idx, 0)
	return b
}

// StoreHeap emits heap[idx & mask] = val. idx is clobbered.
func (b *Builder) StoreHeap(idx, val Reg) *Builder {
	b.a.Andi(idx, idx, b.mask)
	b.a.Add(idx, idx, isa.R15)
	b.a.Store(idx, 0, val)
	return b
}

// LoadSanitized emits dst = mem[heapBase + off] WITHOUT re-masking off: the
// victim-gadget pattern where program logic has just sanitized the value at
// that location (a store overwrote it with an in-bounds index), so the JIT
// elides the second mask. Architecturally safe; transiently it is the leak.
func (b *Builder) LoadSanitized(dst, off Reg) *Builder {
	b.a.Add(off, off, isa.R15)
	b.a.Load(dst, off, 0)
	return b
}

// Timer emits dst = coarse timestamp (the constructed browser timer; the
// environment quantizes it).
func (b *Builder) Timer(dst Reg) *Builder { b.a.Rdpru(dst); return b }

// Return ends the function.
func (b *Builder) Return() *Builder { b.a.Halt(); return b }

// Module is a compiled sandboxed function.
type Module struct {
	env   *Env
	Entry uint64
}

// Compile JITs a function. Successive compilations land at successive
// instruction slots, so compiling many copies of one function slides its
// loads through instruction physical addresses — the in-browser equivalent
// of the paper's code sliding.
func (e *Env) Compile(fn func(*Builder)) (*Module, error) {
	b := &Builder{a: asm.NewBuilder(), mask: int32(e.HeapSize - 8)}
	fn(b)
	code, err := b.a.Assemble(e.codeNext)
	if err != nil {
		return nil, fmt.Errorf("sandbox: %v", err)
	}
	entry := e.codeNext
	// Map pages on demand; modules pack tightly (next slot, not next page).
	firstPage := entry &^ uint64(mem.PageMask)
	lastPage := (entry + uint64(len(code))) &^ uint64(mem.PageMask)
	for pg := firstPage; pg <= lastPage; pg += mem.PageSize {
		if _, ok := e.Proc.AS.Lookup(pg); !ok {
			e.Proc.AS.Map(pg, e.K.Phys().AllocFrame(), mem.PermRWX)
		}
	}
	e.Proc.WriteBytes(entry, code)
	e.codeNext += uint64(len(code))
	// Stagger successive modules by a varying number of slots so their
	// instruction addresses sweep the predictor-hash space densely instead
	// of a fixed-stride lattice.
	e.modCount++
	e.codeNext += isa.InstBytes * (e.modCount % 7)
	if rem := e.codeNext % isa.InstBytes; rem != 0 {
		e.codeNext += isa.InstBytes - rem
	}
	return &Module{env: e, Entry: entry}, nil
}

// Call runs the module with up to three arguments and returns Ret. Every
// call is a separate script task: the OS runs in between (flushing PSFP, as
// on real hardware between renderer timeslices).
func (m *Module) Call(args ...uint64) (uint64, error) {
	m.env.osProc.Regs = [isa.NumRegs]uint64{}
	m.env.K.Run(m.env.osProc, m.env.osEntry, 0)
	p := m.env.Proc
	p.Regs = [isa.NumRegs]uint64{}
	p.Regs[isa.R15] = heapVA
	for i, a := range args {
		switch i {
		case 0:
			p.Regs[Arg0] = a
		case 1:
			p.Regs[Arg1] = a
		case 2:
			p.Regs[Arg2] = a
		}
	}
	res := m.env.K.Run(p, m.Entry, 1<<16)
	if res.Stop != pipeline.StopHalt {
		return 0, fmt.Errorf("sandbox: module stopped with %v (fault %v at %#x)",
			res.Stop, res.Fault, res.FaultVA)
	}
	return p.Regs[Ret], nil
}
