// Package asm provides a small programmatic assembler for the micro-ISA.
//
// Programs are built with a fluent Builder, resolved against an absolute base
// virtual address, and emitted as raw bytes ready to be mapped into a
// process. Because the paper's code-sliding technique places the same machine
// code at arbitrary byte offsets inside a page, Assemble works for any base
// address, not just instruction-aligned ones.
package asm

import (
	"fmt"

	"zenspec/internal/isa"
)

// Builder accumulates instructions and labels and assembles them into machine
// code. The zero value is ready to use.
type Builder struct {
	insts  []isa.Inst
	labels map[string]int // label -> instruction index
	// fixups are instructions whose Imm must be patched with a label address.
	fixups map[int]string // instruction index -> label
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

func (b *Builder) emit(in isa.Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

// Label defines a label at the current position. Defining the same label
// twice is an error reported by Assemble.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.err = fmt.Errorf("asm: duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

// Movi emits dst = imm.
func (b *Builder) Movi(dst isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.MOVI, Dst: dst, Imm: imm})
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.MOV, Dst: dst, Src1: src})
}

// Add emits dst = a + c.
func (b *Builder) Add(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.ADD, Dst: dst, Src1: a, Src2: c})
}

// Sub emits dst = a - c.
func (b *Builder) Sub(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.SUB, Dst: dst, Src1: a, Src2: c})
}

// And emits dst = a & c.
func (b *Builder) And(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.AND, Dst: dst, Src1: a, Src2: c})
}

// Or emits dst = a | c.
func (b *Builder) Or(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.OR, Dst: dst, Src1: a, Src2: c})
}

// Xor emits dst = a ^ c.
func (b *Builder) Xor(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.XOR, Dst: dst, Src1: a, Src2: c})
}

// Shl emits dst = a << c.
func (b *Builder) Shl(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.SHL, Dst: dst, Src1: a, Src2: c})
}

// Shr emits dst = a >> c (logical).
func (b *Builder) Shr(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.SHR, Dst: dst, Src1: a, Src2: c})
}

// Addi emits dst = a + imm.
func (b *Builder) Addi(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.ADDI, Dst: dst, Src1: a, Imm: imm})
}

// Subi emits dst = a - imm.
func (b *Builder) Subi(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.SUBI, Dst: dst, Src1: a, Imm: imm})
}

// Andi emits dst = a & imm.
func (b *Builder) Andi(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.ANDI, Dst: dst, Src1: a, Imm: imm})
}

// Ori emits dst = a | imm.
func (b *Builder) Ori(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.ORI, Dst: dst, Src1: a, Imm: imm})
}

// Xori emits dst = a ^ imm.
func (b *Builder) Xori(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.XORI, Dst: dst, Src1: a, Imm: imm})
}

// Shli emits dst = a << imm.
func (b *Builder) Shli(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.SHLI, Dst: dst, Src1: a, Imm: imm})
}

// Shri emits dst = a >> imm (logical).
func (b *Builder) Shri(dst, a isa.Reg, imm int32) *Builder {
	return b.emit(isa.Inst{Op: isa.SHRI, Dst: dst, Src1: a, Imm: imm})
}

// Imul emits dst = a * c (3-cycle latency on the core).
func (b *Builder) Imul(dst, a, c isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.IMUL, Dst: dst, Src1: a, Src2: c})
}

// Load emits dst = mem[base+off].
func (b *Builder) Load(dst, base isa.Reg, off int32) *Builder {
	return b.emit(isa.Inst{Op: isa.LOAD, Dst: dst, Src1: base, Imm: off})
}

// Store emits mem[base+off] = data.
func (b *Builder) Store(base isa.Reg, off int32, data isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.STORE, Src1: base, Src2: data, Imm: off})
}

// Rdpru emits dst = cycle counter.
func (b *Builder) Rdpru(dst isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.RDPRU, Dst: dst})
}

// Clflush emits a cache-line flush of mem[base+off].
func (b *Builder) Clflush(base isa.Reg, off int32) *Builder {
	return b.emit(isa.Inst{Op: isa.CLFLUSH, Src1: base, Imm: off})
}

// Mfence emits a full memory fence.
func (b *Builder) Mfence() *Builder { return b.emit(isa.Inst{Op: isa.MFENCE}) }

// Lfence emits a load fence / speculation barrier.
func (b *Builder) Lfence() *Builder { return b.emit(isa.Inst{Op: isa.LFENCE}) }

// Sfence emits a store fence.
func (b *Builder) Sfence() *Builder { return b.emit(isa.Inst{Op: isa.SFENCE}) }

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(isa.Inst{Op: isa.NOP}) }

// Syscall emits a trap into the kernel model.
func (b *Builder) Syscall() *Builder { return b.emit(isa.Inst{Op: isa.SYSCALL}) }

// Halt emits the stop instruction used to return from a called routine.
func (b *Builder) Halt() *Builder { return b.emit(isa.Inst{Op: isa.HALT}) }

// Jmp emits an unconditional jump to the label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(isa.Inst{Op: isa.JMP})
}

// Jz emits a jump to label when r == 0.
func (b *Builder) Jz(r isa.Reg, label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(isa.Inst{Op: isa.JZ, Src1: r})
}

// Jnz emits a jump to label when r != 0.
func (b *Builder) Jnz(r isa.Reg, label string) *Builder {
	b.fixups[len(b.insts)] = label
	return b.emit(isa.Inst{Op: isa.JNZ, Src1: r})
}

// JmpAbs emits an unconditional jump to an absolute virtual address.
func (b *Builder) JmpAbs(va uint64) *Builder {
	return b.emit(isa.Inst{Op: isa.JMP, Imm: int32(va)})
}

// Offset returns the byte offset from the start of the program at which the
// next instruction will be placed: the size assembled so far.
func (b *Builder) Offset() int { return len(b.insts) * isa.InstBytes }

// Assemble resolves labels against the given base virtual address and returns
// the machine code.
func (b *Builder) Assemble(base uint64) ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	out := make([]byte, len(b.insts)*isa.InstBytes)
	for i, in := range b.insts {
		if label, ok := b.fixups[i]; ok {
			idx, defined := b.labels[label]
			if !defined {
				return nil, fmt.Errorf("asm: undefined label %q", label)
			}
			in.Imm = int32(base + uint64(idx*isa.InstBytes))
		}
		in.Encode(out[i*isa.InstBytes:])
	}
	return out, nil
}

// MustAssemble is Assemble that panics on error; it is intended for
// statically-known-correct programs in tests and examples.
func (b *Builder) MustAssemble(base uint64) []byte {
	code, err := b.Assemble(base)
	if err != nil {
		panic(err)
	}
	return code
}

// Disassemble decodes code into instruction strings, one per instruction,
// annotated with the virtual address of each.
func Disassemble(code []byte, base uint64) []string {
	var out []string
	for off := 0; off+isa.InstBytes <= len(code); off += isa.InstBytes {
		in := isa.Decode(code[off:])
		out = append(out, fmt.Sprintf("%#x: %s", base+uint64(off), in))
	}
	return out
}
