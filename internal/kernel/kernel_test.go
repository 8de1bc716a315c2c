package kernel

import (
	"encoding/binary"
	"fmt"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/predict"
)

const codeBase = 0x400000
const dataBase = 0x10000

// loadTag is the SSBP entry CPU 0's unit selects for a load at ipa, read
// from the transition event a non-aliasing verification emits.
func loadTag(k *Kernel, ipa uint64) uint16 {
	var tag uint16
	cancel := k.Bus().Subscribe(obs.ObserverFunc(func(ev obs.Event) {
		if tr, ok := ev.(obs.SSBPTransitionEvent); ok {
			tag = tr.LoadTag
		}
	}), obs.Options{Classes: []obs.Class{obs.ClassPredict}})
	defer cancel()
	k.CPU(0).Unit.Verify(predict.Query{LoadIPA: ipa}, false)
	return tag
}

// read64 reads the little-endian word at va through p's page table, a byte
// at a time, so the word may cross a page.
func read64(p *Process, va uint64) uint64 {
	var b [8]byte
	for i := range b {
		pa, f := p.AS.Translate(va+uint64(i), mem.AccessRead)
		if f != mem.FaultNone {
			panic(fmt.Sprintf("read64: unmapped va %#x", va+uint64(i)))
		}
		p.kernel.phys.ReadInto(pa, b[i:i+1])
	}
	return binary.LittleEndian.Uint64(b[:])
}

// trainStld trains a process's stld pair to a recognizable predictor state:
// (7n,a)x3 leaves C3=15, C4=3 in SSBP and C0=4, C1=16, C2=2 in PSFP.
func trainStld(t *testing.T, k *Kernel, cpu int, p *Process, entry uint64) {
	t.Helper()
	runStld(t, k, cpu, p, entry, false, 7)
	runStld(t, k, cpu, p, entry, true, 1)
	runStld(t, k, cpu, p, entry, false, 7)
	runStld(t, k, cpu, p, entry, true, 1)
	runStld(t, k, cpu, p, entry, false, 7)
	runStld(t, k, cpu, p, entry, true, 1)
}

func runStld(t *testing.T, k *Kernel, cpu int, p *Process, entry uint64, aliasing bool, times int) []pipeline.StldEvent {
	t.Helper()
	var events []pipeline.StldEvent
	for i := 0; i < times; i++ {
		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI] = dataBase
		p.Regs[isa.RSI] = dataBase
		if !aliasing {
			p.Regs[isa.RSI] = dataBase + 0x800
		}
		p.Regs[isa.R9] = 1
		res := k.RunOn(cpu, p, entry, 0)
		if res.Stop != pipeline.StopHalt {
			t.Fatalf("stld stopped with %v (fault %v at %#x)", res.Stop, res.Fault, res.FaultVA)
		}
		events = append(events, res.Stlds...)
	}
	return events
}

func setupStldProc(t *testing.T, k *Kernel, name string, d Domain) (*Process, asm.Stld) {
	t.Helper()
	p := k.NewProcess(name, d)
	s := asm.BuildStld(asm.StldOptions{})
	p.MapCode(codeBase, s.Code)
	p.MapData(dataBase, 2*mem.PageSize)
	p.WarmLine(dataBase)
	p.WarmLine(dataBase + 0x800)
	return p, s
}

func stldQuery(p *Process, s asm.Stld, base uint64) predict.Query {
	storeIPA, err := p.IPA(base + uint64(s.StoreOff))
	if err != nil {
		panic(err)
	}
	loadIPA, err := p.IPA(base + uint64(s.LoadOff))
	if err != nil {
		panic(err)
	}
	return predict.Query{StoreIPA: storeIPA, LoadIPA: loadIPA}
}

func TestProcessRunsProgram(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("demo", DomainUser)
	b := asm.NewBuilder()
	b.Movi(isa.RAX, 21).Addi(isa.RAX, isa.RAX, 21).Halt()
	p.MapCode(codeBase, b.MustAssemble(codeBase))
	res := k.Run(p, codeBase, 0)
	if res.Stop != pipeline.StopHalt || p.Regs[isa.RAX] != 42 {
		t.Fatalf("stop %v rax %d", res.Stop, p.Regs[isa.RAX])
	}
}

// TestContextSwitchFlushesPSFPOnly is the core of Vulnerability 1: running
// another process flushes PSFP but leaves SSBP intact.
func TestContextSwitchFlushesPSFPOnly(t *testing.T) {
	k := New(Config{Seed: 1})
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	c := k.CPU(0).Unit.PeekCounters(q)
	if c.C0 == 0 || c.C3 != 15 {
		t.Fatalf("training failed: %+v", c)
	}
	// Switch to another process.
	other := k.NewProcess("other", DomainUser)
	b := asm.NewBuilder()
	b.Nop().Halt()
	other.MapCode(codeBase, b.MustAssemble(codeBase))
	k.Run(other, codeBase, 0)
	c = k.CPU(0).Unit.PeekCounters(q)
	if c.C0 != 0 || c.C1 != 0 || c.C2 != 0 {
		t.Errorf("PSFP survived context switch: %+v", c)
	}
	if c.C3 != 15 || c.C4 != 3 {
		t.Errorf("SSBP should survive context switch: %+v", c)
	}
}

// TestSyscallFlushesPSFP: a syscall flushes PSFP mid-process.
func TestSyscallFlushesPSFP(t *testing.T) {
	k := New(Config{Seed: 1})
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	// Program: yield syscall then halt.
	b := asm.NewBuilder()
	b.Movi(isa.RAX, SysYield).Syscall().Halt()
	victim.MapCode(codeBase+0x10000, b.MustAssemble(codeBase+0x10000))
	k.Run(victim, codeBase+0x10000, 0)
	c := k.CPU(0).Unit.PeekCounters(q)
	if c.C0 != 0 {
		t.Errorf("PSFP survived syscall: %+v", c)
	}
	if c.C3 != 15 {
		t.Errorf("SSBP should survive syscall: %+v", c)
	}
}

// TestSleepFlushesBoth: SysSleep flushes PSFP and SSBP.
func TestSleepFlushesBoth(t *testing.T) {
	k := New(Config{Seed: 1})
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	b := asm.NewBuilder()
	b.Movi(isa.RAX, SysSleep).Syscall().Halt()
	victim.MapCode(codeBase+0x10000, b.MustAssemble(codeBase+0x10000))
	k.Run(victim, codeBase+0x10000, 0)
	if c := k.CPU(0).Unit.PeekCounters(q); !c.Zero() {
		t.Errorf("sleep did not flush everything: %+v", c)
	}
}

// TestSMTPartitioning: predictors are per hardware thread; training on
// thread 0 is invisible on thread 1.
func TestSMTPartitioning(t *testing.T) {
	k := New(Config{Seed: 1})
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	if c := k.CPU(0).Unit.PeekCounters(q); c.C3 != 15 {
		t.Fatalf("training failed: %+v", c)
	}
	if c := k.CPU(1).Unit.PeekCounters(q); !c.Zero() {
		t.Errorf("SMT sibling sees the other thread's predictors: %+v", c)
	}
	// And running on thread 1 behaves as untrained (first aliasing is a G).
	ev := runStld(t, k, 1, victim, codeBase, true, 1)
	if len(ev) != 1 || ev[0].Type != predict.TypeG {
		t.Errorf("thread 1 should be untrained: %v", ev)
	}
}

// TestMmapSharedGivesSameIPA: two processes mapping the same frames have the
// same IPA at different IVAs.
func TestMmapSharedGivesSameIPA(t *testing.T) {
	k := New(Config{Seed: 1})
	a, s := setupStldProc(t, k, "a", DomainUser)
	b := k.NewProcess("b", DomainUser)
	const otherVA = 0x7000000
	if err := b.MmapShared(otherVA, a, codeBase, uint64(len(s.Code)), mem.PermR|mem.PermX); err != nil {
		t.Fatal(err)
	}
	ipaA, _ := a.IPA(codeBase + uint64(s.LoadOff))
	ipaB, _ := b.IPA(otherVA + uint64(s.LoadOff))
	if ipaA != ipaB {
		t.Fatalf("shared mapping IPAs differ: %#x vs %#x", ipaA, ipaB)
	}
}

// TestFlushSSBPOnSwitchMitigation: with the mitigation on, SSBP does not
// survive a context switch.
func TestFlushSSBPOnSwitchMitigation(t *testing.T) {
	k := New(Config{Seed: 1, FlushSSBPOnSwitch: true})
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	other := k.NewProcess("other", DomainUser)
	bb := asm.NewBuilder()
	bb.Nop().Halt()
	other.MapCode(codeBase, bb.MustAssemble(codeBase))
	k.Run(other, codeBase, 0)
	if c := k.CPU(0).Unit.PeekCounters(q); c.C3 != 0 {
		t.Errorf("mitigation did not flush SSBP: %+v", c)
	}
}

// TestSaltPerDomainChangesSelection: with randomized selection, the same IPA
// selects different entries in different domains.
func TestSaltPerDomainChangesSelection(t *testing.T) {
	k := New(Config{Seed: 7, SaltPerDomain: true})
	user := k.NewProcess("u", DomainUser)
	vm := k.NewProcess("v", DomainVM)
	b := asm.NewBuilder()
	b.Nop().Halt()
	user.MapCode(codeBase, b.MustAssemble(codeBase))
	vm.MapCode(codeBase, b.MustAssemble(codeBase))
	k.Run(user, codeBase, 0)
	h1 := loadTag(k, 0x12345)
	k.Run(vm, codeBase, 0)
	h2 := loadTag(k, 0x12345)
	if h1 == h2 {
		t.Error("per-domain salt did not change selection")
	}
}

// TestSSBDAppliesToAllThreads: SSBD set at boot reaches both SMT threads,
// which then verify every non-aliasing stld as an E (Section VI-A).
func TestSSBDAppliesToAllThreads(t *testing.T) {
	k := New(Config{Seed: 1, SSBD: true})
	for i, cpu := range k.cpus {
		if got := cpu.Unit.Verify(predict.Query{}, false); got != predict.TypeE {
			t.Errorf("cpu %d verified a non-aliasing stld as %v, want E", i, got)
		}
	}
}

func TestProcessMemoryHelpers(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("m", DomainUser)
	p.MapData(dataBase, 2*mem.PageSize)
	p.Write64(dataBase+mem.PageSize-4, 0xdeadbeefcafe) // crosses a page
	if got := read64(p, dataBase+mem.PageSize-4); got != 0xdeadbeefcafe {
		t.Errorf("cross-page rw: %#x", got)
	}
	p.WarmLine(dataBase)
	pa, _ := p.AS.Translate(dataBase, mem.AccessRead)
	if !k.Caches().Cached(pa) {
		t.Error("WarmLine failed")
	}
	p.FlushLine(dataBase)
	if k.Caches().Cached(pa) {
		t.Error("FlushLine failed")
	}
}

func TestDomainString(t *testing.T) {
	if DomainUser.String() != "user" || DomainVM.String() != "vm" || DomainKernel.String() != "kernel" {
		t.Error("domain names")
	}
}

func TestMapCodeFramesControlsIPA(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("x", DomainUser)
	s := asm.BuildStld(asm.StldOptions{})
	pfn := uint64(0x1234)
	if err := p.MapCodeFrames(codeBase, s.Code, []uint64{pfn}); err != nil {
		t.Fatal(err)
	}
	ipa, err := p.IPA(codeBase + uint64(s.LoadOff))
	if err != nil {
		t.Fatal(err)
	}
	want := pfn<<mem.PageShift | uint64(s.LoadOff)
	if ipa != want {
		t.Errorf("IPA %#x, want %#x", ipa, want)
	}
}
