package kernel

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
)

// TestRunAccountsInstructionsAcrossSyscalls: RunOn aggregates instruction
// counts and stld events over syscall resumptions.
func TestRunAccountsInstructionsAcrossSyscalls(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("acct", DomainUser)
	b := asm.NewBuilder()
	b.Movi(isa.RAX, SysYield) // 1
	b.Syscall()               // 2
	b.Movi(isa.RAX, SysYield) // 3
	b.Syscall()               // 4
	b.Movi(isa.RAX, 7)        // 5
	b.Halt()                  // 6
	p.MapCode(codeBase, b.MustAssemble(codeBase))
	res := k.Run(p, codeBase, 0)
	if res.Stop != pipeline.StopHalt {
		t.Fatalf("stop %v", res.Stop)
	}
	if res.Insts != 6 {
		t.Errorf("insts = %d, want 6", res.Insts)
	}
	if p.Regs[isa.RAX] != 7 {
		t.Errorf("rax = %d", p.Regs[isa.RAX])
	}
}

// TestVMDomainProcessesRun: processes in the VM and kernel domains execute
// like user processes (domains only matter to isolation bookkeeping).
func TestVMDomainProcessesRun(t *testing.T) {
	k := New(Config{Seed: 1})
	for _, d := range []Domain{DomainVM, DomainKernel} {
		p := k.NewProcess("d", d)
		b := asm.NewBuilder()
		b.Movi(isa.RAX, int32(10+int(d))).Halt()
		p.MapCode(codeBase, b.MustAssemble(codeBase))
		if res := k.Run(p, codeBase, 0); res.Stop != pipeline.StopHalt {
			t.Errorf("%v: stop %v", d, res.Stop)
		}
		if p.Regs[isa.RAX] != uint64(10+int(d)) {
			t.Errorf("%v: rax %d", d, p.Regs[isa.RAX])
		}
	}
}

// TestRotateSaltChangesSelectionEverySwitch: each context switch re-salts
// the hash, so the same IPA maps to a different entry each epoch.
func TestRotateSaltChangesSelectionEverySwitch(t *testing.T) {
	k := New(Config{Seed: 9, RotateSalt: true})
	a := k.NewProcess("a", DomainUser)
	bp := k.NewProcess("b", DomainUser)
	prog := asm.NewBuilder()
	prog.Nop().Halt()
	a.MapCode(codeBase, prog.MustAssemble(codeBase))
	bp.MapCode(codeBase, prog.MustAssemble(codeBase))
	var hashes []uint16
	for i := 0; i < 4; i++ {
		k.Run(a, codeBase, 0)
		hashes = append(hashes, loadTag(k, 0x123456))
		k.Run(bp, codeBase, 0)
		hashes = append(hashes, loadTag(k, 0x123456))
	}
	distinct := map[uint16]bool{}
	for _, h := range hashes {
		distinct[h] = true
	}
	if len(distinct) < 3 {
		t.Errorf("rotating salt produced only %d distinct selections over %d switches", len(distinct), len(hashes))
	}
}

// TestMmapSharedDataVisibility: shared mappings see each other's writes.
func TestMmapSharedDataVisibility(t *testing.T) {
	k := New(Config{Seed: 1})
	a := k.NewProcess("a", DomainUser)
	b := k.NewProcess("b", DomainUser)
	a.MapData(dataBase, mem.PageSize)
	if err := b.MmapShared(0x9000000, a, dataBase, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	a.Write64(dataBase+8, 0xfeed)
	if got := read64(b, 0x9000000+8); got != 0xfeed {
		t.Errorf("shared read %#x", got)
	}
	b.Write64(0x9000000+16, 0xbeef)
	if got := read64(a, dataBase+16); got != 0xbeef {
		t.Errorf("reverse shared read %#x", got)
	}
}

// TestMmapSharedUnmappedSource: sharing an unmapped range errors.
func TestMmapSharedUnmappedSource(t *testing.T) {
	k := New(Config{Seed: 1})
	a := k.NewProcess("a", DomainUser)
	b := k.NewProcess("b", DomainUser)
	if err := b.MmapShared(0x9000000, a, 0x5555000, mem.PageSize, mem.PermR); err == nil {
		t.Error("sharing unmapped pages should fail")
	}
}

// TestMapCodeFramesErrors: too few frames or a reserved frame fail cleanly.
func TestMapCodeFramesErrors(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("p", DomainUser)
	code := make([]byte, 2*mem.PageSize)
	if err := p.MapCodeFrames(codeBase, code, []uint64{0x100}); err == nil {
		t.Error("insufficient frames should fail")
	}
	if err := p.MapCodeFrames(codeBase, code, []uint64{0, 1}); err == nil {
		t.Error("reserved frame 0 should fail")
	}
}

// TestKernelStrings covers the diagnostics.
func TestKernelStrings(t *testing.T) {
	k := New(Config{Seed: 1})
	if k.String() == "" {
		t.Error("kernel String")
	}
	p := k.NewProcess("x", DomainUser)
	if p.String() == "" {
		t.Error("process String")
	}
	if k.cfg.SMTThreads != 2 {
		t.Error("default SMT threads")
	}
	if k.CPU(0).current != nil {
		t.Error("fresh CPU should have no current process")
	}
}
