package asm

import (
	"strings"
	"testing"

	"zenspec/internal/isa"
)

// mustParse parses static program text, failing the test on an error.
func mustParse(t *testing.T, src string) *Builder {
	t.Helper()
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseBasicProgram(t *testing.T) {
	b, err := Parse(`
		; a comment
		movi rax, 42        ; trailing comment
		movi rcx, 0x10
		add  rdx, rax, rcx
		sub  rdx, rdx, 2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	code := b.MustAssemble(0x400000)
	want := []isa.Inst{
		{Op: isa.MOVI, Dst: isa.RAX, Imm: 42},
		{Op: isa.MOVI, Dst: isa.RCX, Imm: 16},
		{Op: isa.ADD, Dst: isa.RDX, Src1: isa.RAX, Src2: isa.RCX},
		{Op: isa.SUBI, Dst: isa.RDX, Src1: isa.RDX, Imm: 2},
		{Op: isa.HALT},
	}
	for i, w := range want {
		got := isa.Decode(code[i*isa.InstBytes:])
		if got != w {
			t.Errorf("inst %d: %v, want %v", i, got, w)
		}
	}
}

func TestParseMemoryOperands(t *testing.T) {
	b := mustParse(t, `
		load  rax, [rsi]
		load  rbx, [rsi+8]
		store [rdi-16], rax
		clflush [rbx+64]
		halt
	`)
	code := b.MustAssemble(0)
	checks := []isa.Inst{
		{Op: isa.LOAD, Dst: isa.RAX, Src1: isa.RSI},
		{Op: isa.LOAD, Dst: isa.RBX, Src1: isa.RSI, Imm: 8},
		{Op: isa.STORE, Src1: isa.RDI, Src2: isa.RAX, Imm: -16},
		{Op: isa.CLFLUSH, Src1: isa.RBX, Imm: 64},
	}
	for i, w := range checks {
		if got := isa.Decode(code[i*isa.InstBytes:]); got != w {
			t.Errorf("inst %d: %v, want %v", i, got, w)
		}
	}
}

func TestParseLabelsAndBranches(t *testing.T) {
	b := mustParse(t, `
		movi rcx, 5
	loop:
		sub rcx, rcx, 1
		jnz rcx, loop
		jmp end
		nop
	end:
		halt
	`)
	code := b.MustAssemble(0x1000)
	jnz := isa.Decode(code[2*isa.InstBytes:])
	if jnz.Op != isa.JNZ || jnz.Imm != 0x1000+1*isa.InstBytes {
		t.Errorf("jnz = %v", jnz)
	}
	jmp := isa.Decode(code[3*isa.InstBytes:])
	if jmp.Op != isa.JMP || jmp.Imm != 0x1000+5*isa.InstBytes {
		t.Errorf("jmp = %v", jmp)
	}
}

func TestParseAllMnemonics(t *testing.T) {
	b := mustParse(t, `
		nop
		mfence
		lfence
		sfence
		syscall
		rdpru r10
		mov rax, rbx
		and rax, rax, 0xff
		or  rax, rax, rcx
		xor rax, rax, rax
		shl rax, rax, 3
		shr rax, rax, rcx
		imul rax, rax, rcx
		halt
	`)
	if n := len(b.insts); n != 14 {
		t.Errorf("%d instructions", n)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus rax",
		"movi zax, 1",
		"movi rax",
		"movi rax, xyz",
		"load rax, rsi",
		"load rax, [zax]",
		"store [rdi], 5",
		"imul rax, rbx, 7",
		"jnz rax",
		":",
		"add rax, rbx",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// Errors carry the line number.
	_, err := Parse("nop\nnop\nbogus")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v should name line 3", err)
	}
}

func TestParsedProgramRoundTripsThroughBuilder(t *testing.T) {
	// The text form and the fluent form of the stld must produce identical
	// machine code.
	text := mustParse(t, `
		rdpru r10
		movi r12, 1
		mov  rbx, rdi
		imul rbx, rbx, r12
		store [rbx], r9
		load r8, [rsi]
		rdpru r11
		sub rax, r11, r10
		halt
	`).MustAssemble(0)
	fluent := NewBuilder()
	fluent.Rdpru(isa.R10).Movi(isa.R12, 1).Mov(isa.RBX, isa.RDI)
	fluent.Imul(isa.RBX, isa.RBX, isa.R12)
	fluent.Store(isa.RBX, 0, isa.R9)
	fluent.Load(isa.R8, isa.RSI, 0)
	fluent.Rdpru(isa.R11)
	fluent.Sub(isa.RAX, isa.R11, isa.R10)
	fluent.Halt()
	want := fluent.MustAssemble(0)
	if len(text) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(text), len(want))
	}
	for i := range text {
		if text[i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
