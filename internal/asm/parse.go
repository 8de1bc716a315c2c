package asm

import (
	"fmt"
	"strconv"
	"strings"

	"zenspec/internal/isa"
)

// Parse assembles text source into a Builder. The syntax is one instruction
// per line:
//
//	; comment
//	loop:                     ; label
//	movi rax, 42
//	add  rax, rax, rcx
//	load rdx, [rsi+8]
//	store [rdi-16], rax
//	jnz  rax, loop
//	halt
//
// Registers use the amd64 names (rax..r15); immediates are decimal or 0x
// hex; branch targets are labels.
func Parse(src string) (*Builder, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v", lineNo+1, err)
		}
	}
	return b, nil
}

var regNames = map[string]isa.Reg{
	"rax": isa.RAX, "rcx": isa.RCX, "rdx": isa.RDX, "rbx": isa.RBX,
	"rsp": isa.RSP, "rbp": isa.RBP, "rsi": isa.RSI, "rdi": isa.RDI,
	"r8": isa.R8, "r9": isa.R9, "r10": isa.R10, "r11": isa.R11,
	"r12": isa.R12, "r13": isa.R13, "r14": isa.R14, "r15": isa.R15,
}

func parseReg(s string) (isa.Reg, error) {
	r, ok := regNames[strings.ToLower(strings.TrimSpace(s))]
	if !ok {
		return 0, fmt.Errorf("unknown register %q", s)
	}
	return r, nil
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return int32(v), nil
}

// parseMem parses "[reg]", "[reg+imm]" or "[reg-imm]".
func parseMem(s string) (isa.Reg, int32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, err := parseReg(inner)
		return r, 0, err
	}
	r, err := parseReg(inner[:sep])
	if err != nil {
		return 0, 0, err
	}
	imm, err := parseImm(inner[sep:])
	if err != nil {
		return 0, 0, err
	}
	return r, imm, nil
}

func parseLine(b *Builder, line string) error {
	if strings.HasSuffix(line, ":") {
		name := strings.TrimSuffix(line, ":")
		if name == "" {
			return fmt.Errorf("empty label")
		}
		b.Label(name)
		return nil
	}
	var op, rest string
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		op, rest = line[:i], strings.TrimSpace(line[i+1:])
	} else {
		op = line
	}
	op = strings.ToLower(op)
	args := splitArgs(rest)

	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s needs %d operands, got %d", op, n, len(args))
		}
		return nil
	}

	switch op {
	case "nop":
		b.Nop()
	case "halt":
		b.Halt()
	case "syscall":
		b.Syscall()
	case "mfence":
		b.Mfence()
	case "lfence":
		b.Lfence()
	case "sfence":
		b.Sfence()
	case "movi":
		if err := need(2); err != nil {
			return err
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return err
		}
		b.Movi(dst, imm)
	case "mov":
		if err := need(2); err != nil {
			return err
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		src, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.Mov(dst, src)
	case "add", "sub", "and", "or", "xor", "shl", "shr", "imul":
		if err := need(3); err != nil {
			return err
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		a, err := parseReg(args[1])
		if err != nil {
			return err
		}
		// Third operand: register or immediate (immediate selects the -i form).
		if c, err2 := parseReg(args[2]); err2 == nil {
			switch op {
			case "add":
				b.Add(dst, a, c)
			case "sub":
				b.Sub(dst, a, c)
			case "and":
				b.And(dst, a, c)
			case "or":
				b.Or(dst, a, c)
			case "xor":
				b.Xor(dst, a, c)
			case "shl":
				b.Shl(dst, a, c)
			case "shr":
				b.Shr(dst, a, c)
			case "imul":
				b.Imul(dst, a, c)
			}
			return nil
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return err
		}
		switch op {
		case "add":
			b.Addi(dst, a, imm)
		case "sub":
			b.Subi(dst, a, imm)
		case "and":
			b.Andi(dst, a, imm)
		case "or":
			b.Ori(dst, a, imm)
		case "xor":
			b.Xori(dst, a, imm)
		case "shl":
			b.Shli(dst, a, imm)
		case "shr":
			b.Shri(dst, a, imm)
		case "imul":
			return fmt.Errorf("imul needs a register third operand")
		}
	case "load":
		if err := need(2); err != nil {
			return err
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		base, off, err := parseMem(args[1])
		if err != nil {
			return err
		}
		b.Load(dst, base, off)
	case "store":
		if err := need(2); err != nil {
			return err
		}
		base, off, err := parseMem(args[0])
		if err != nil {
			return err
		}
		src, err := parseReg(args[1])
		if err != nil {
			return err
		}
		b.Store(base, off, src)
	case "clflush":
		if err := need(1); err != nil {
			return err
		}
		base, off, err := parseMem(args[0])
		if err != nil {
			return err
		}
		b.Clflush(base, off)
	case "rdpru":
		if err := need(1); err != nil {
			return err
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		b.Rdpru(dst)
	case "jmp":
		if err := need(1); err != nil {
			return err
		}
		b.Jmp(args[0])
	case "jz", "jnz":
		if err := need(2); err != nil {
			return err
		}
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		if op == "jz" {
			b.Jz(r, args[1])
		} else {
			b.Jnz(r, args[1])
		}
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	return nil
}

// splitArgs splits on commas outside brackets.
func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	last := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[last:i]))
				last = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[last:]))
	return out
}
