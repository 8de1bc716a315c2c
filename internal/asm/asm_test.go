package asm

import (
	"strings"
	"testing"

	"zenspec/internal/isa"
)

func TestBuilderAssemblesArith(t *testing.T) {
	b := NewBuilder()
	b.Movi(isa.RAX, 7).Movi(isa.RCX, 3).Add(isa.RDX, isa.RAX, isa.RCX).Halt()
	code, err := b.Assemble(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 4*isa.InstBytes {
		t.Fatalf("code size %d, want %d", len(code), 4*isa.InstBytes)
	}
	in := isa.Decode(code[2*isa.InstBytes:])
	want := isa.Inst{Op: isa.ADD, Dst: isa.RDX, Src1: isa.RAX, Src2: isa.RCX}
	if in != want {
		t.Errorf("inst 2 = %v, want %v", in, want)
	}
}

func TestLabelsResolveToAbsoluteAddresses(t *testing.T) {
	b := NewBuilder()
	b.Movi(isa.RAX, 3)
	b.Label("loop")
	b.Subi(isa.RAX, isa.RAX, 1)
	b.Jnz(isa.RAX, "loop")
	b.Halt()
	base := uint64(0x400000)
	code, err := b.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	jnz := isa.Decode(code[2*isa.InstBytes:])
	if jnz.Op != isa.JNZ {
		t.Fatalf("inst 2 is %v, want jnz", jnz)
	}
	wantTarget := int32(base + 1*isa.InstBytes)
	if jnz.Imm != wantTarget {
		t.Errorf("jnz target %#x, want %#x", jnz.Imm, wantTarget)
	}
}

func TestUndefinedLabelErrors(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere").Halt()
	if _, err := b.Assemble(0); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestDuplicateLabelErrors(t *testing.T) {
	b := NewBuilder()
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Assemble(0); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

// TestLabelOffset: a jump to a label resolves to the label's byte offset
// from the assembly base; a jump to an undefined label fails to assemble.
func TestLabelOffset(t *testing.T) {
	const base = 0x400000
	b := NewBuilder()
	b.Jmp("here").Nop().Label("here").Halt()
	if in := isa.Decode(b.MustAssemble(base)); uint64(in.Imm) != base+2*isa.InstBytes {
		t.Errorf("jmp here = %v; want target %#x", in, base+2*isa.InstBytes)
	}
	if _, err := NewBuilder().Jmp("missing").Assemble(base); err == nil {
		t.Error("jump to a missing label assembled")
	}
}

func TestEveryEmitterEncodesItsOpcode(t *testing.T) {
	b := NewBuilder()
	b.Movi(isa.RAX, 1)
	b.Mov(isa.RAX, isa.RCX)
	b.Add(isa.RAX, isa.RCX, isa.RDX)
	b.Sub(isa.RAX, isa.RCX, isa.RDX)
	b.And(isa.RAX, isa.RCX, isa.RDX)
	b.Or(isa.RAX, isa.RCX, isa.RDX)
	b.Xor(isa.RAX, isa.RCX, isa.RDX)
	b.Shl(isa.RAX, isa.RCX, isa.RDX)
	b.Shr(isa.RAX, isa.RCX, isa.RDX)
	b.Addi(isa.RAX, isa.RCX, 1)
	b.Subi(isa.RAX, isa.RCX, 1)
	b.Andi(isa.RAX, isa.RCX, 1)
	b.Ori(isa.RAX, isa.RCX, 1)
	b.Xori(isa.RAX, isa.RCX, 1)
	b.Shli(isa.RAX, isa.RCX, 1)
	b.Shri(isa.RAX, isa.RCX, 1)
	b.Imul(isa.RAX, isa.RCX, isa.RDX)
	b.Load(isa.RAX, isa.RCX, 0)
	b.Store(isa.RCX, 0, isa.RAX)
	b.Rdpru(isa.RAX)
	b.Clflush(isa.RCX, 0)
	b.Mfence()
	b.Lfence()
	b.Sfence()
	b.Nop()
	b.Syscall()
	b.JmpAbs(0x1000)
	b.Halt()
	want := []isa.Op{isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI,
		isa.XORI, isa.SHLI, isa.SHRI, isa.IMUL, isa.LOAD, isa.STORE,
		isa.RDPRU, isa.CLFLUSH, isa.MFENCE, isa.LFENCE, isa.SFENCE, isa.NOP,
		isa.SYSCALL, isa.JMP, isa.HALT}
	code := b.MustAssemble(0)
	for i, w := range want {
		got := isa.Decode(code[i*isa.InstBytes:])
		if got.Op != w {
			t.Errorf("inst %d: op %v, want %v", i, got.Op, w)
		}
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder()
	b.Movi(isa.RAX, 5).Halt()
	lines := Disassemble(b.MustAssemble(0x400000), 0x400000)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "movi rax, 5") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "0x400008") {
		t.Errorf("line 1 missing address: %q", lines[1])
	}
}

func TestBuildStldLayout(t *testing.T) {
	s := BuildStld(StldOptions{})
	if s.StoreOff%isa.InstBytes != 0 || s.LoadOff%isa.InstBytes != 0 {
		t.Fatal("offsets not instruction-aligned")
	}
	st := isa.Decode(s.Code[s.StoreOff:])
	ld := isa.Decode(s.Code[s.LoadOff:])
	if st.Op != isa.STORE {
		t.Errorf("StoreOff points at %v", st)
	}
	if ld.Op != isa.LOAD {
		t.Errorf("LoadOff points at %v", ld)
	}
	if d := s.LoadOff - s.StoreOff; d != isa.InstBytes {
		t.Errorf("default distance %d, want %d", d, isa.InstBytes)
	}
	// 20 imuls by default.
	imuls := 0
	for off := 0; off+isa.InstBytes <= len(s.Code); off += isa.InstBytes {
		if isa.Decode(s.Code[off:]).Op == isa.IMUL {
			imuls++
		}
	}
	if imuls != DefaultImuls {
		t.Errorf("%d imuls, want %d", imuls, DefaultImuls)
	}
}

func TestBuildStldPadding(t *testing.T) {
	s := BuildStld(StldOptions{Imuls: 4, PadStart: 3, PadBetween: 5})
	if got := s.LoadOff - s.StoreOff; got != 6*isa.InstBytes {
		t.Errorf("distance %d, want %d", got, 6*isa.InstBytes)
	}
	if isa.Decode(s.Code[s.StoreOff:]).Op != isa.STORE {
		t.Error("StoreOff misplaced with padding")
	}
	if isa.Decode(s.Code[s.LoadOff:]).Op != isa.LOAD {
		t.Error("LoadOff misplaced with padding")
	}
	// Start padding moves the store by 3 nops relative to the unpadded
	// build; PadBetween does not move the store.
	base := BuildStld(StldOptions{Imuls: 4})
	if s.StoreOff != base.StoreOff+3*isa.InstBytes {
		t.Errorf("store offset %d, want %d", s.StoreOff, base.StoreOff+3*isa.InstBytes)
	}
	// The leading NOPs really are at the start.
	for i := 0; i < 3; i++ {
		if isa.Decode(s.Code[i*isa.InstBytes:]).Op != isa.NOP {
			t.Errorf("inst %d is not a NOP", i)
		}
	}
}
