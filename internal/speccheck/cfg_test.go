package speccheck

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
)

func TestBuildCFGLinear(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.RAX, 1)
	b.Addi(isa.RAX, isa.RAX, 2)
	b.Halt()
	g := BuildCFG(b.MustAssemble(0), 0)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1\n%s", len(g.Blocks), g)
	}
	blk := g.Blocks[0]
	if len(blk.Offsets) != 3 || blk.Start != 0 || blk.End() != 3*isa.InstBytes {
		t.Errorf("block shape wrong: %+v", blk)
	}
	if len(blk.Succs) != 0 {
		t.Errorf("terminal block has successors: %v", blk.Succs)
	}
}

func TestBuildCFGDiamond(t *testing.T) {
	// entry: jz → (then | else) → join
	b := asm.NewBuilder()
	b.Jz(isa.RAX, "else")
	b.Movi(isa.RBX, 1) // then
	b.Jmp("join")
	b.Label("else")
	b.Movi(isa.RBX, 2)
	b.Label("join")
	b.Halt()
	g := BuildCFG(b.MustAssemble(0), 0)
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g)
	}
	entry := g.Blocks[g.blockAt[0]]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry successors = %v, want 2\n%s", entry.Succs, g)
	}
	join, ok := g.blockAt[4*isa.InstBytes]
	if !ok {
		t.Fatal("join block not found")
	}
	// Both arms must flow into join.
	arms := 0
	for i, blk := range g.Blocks {
		if i == join {
			continue
		}
		for _, s := range blk.Succs {
			if s == join {
				arms++
			}
		}
	}
	if arms != 2 {
		t.Errorf("join has %d predecessors, want 2\n%s", arms, g)
	}
}

// TestBuildCFGByteOffsetTarget: a branch target at a non-slot-aligned byte
// offset opens a block on its own grid — the code-sliding placement.
func TestBuildCFGByteOffsetTarget(t *testing.T) {
	const base = 0x1000
	code := make([]byte, 3*isa.InstBytes+4)
	// +0: jmp base+12 (not a multiple of 8 from base)
	isa.Inst{Op: isa.JMP, Imm: base + 12}.Encode(code[0:])
	// +12: halt, on the shifted grid.
	isa.Inst{Op: isa.HALT}.Encode(code[12:])
	g := BuildCFG(code, base)
	tgt, ok := g.blockAt[12]
	if !ok {
		t.Fatalf("no block at byte offset 12\n%s", g)
	}
	entry := g.Blocks[g.blockAt[0]]
	if len(entry.Succs) != 1 || entry.Succs[0] != tgt {
		t.Errorf("entry succs = %v, want [%d]", entry.Succs, tgt)
	}
	if got := g.InstAt(12).Op; got != isa.HALT {
		t.Errorf("inst at 12 = %v, want halt", got)
	}
}

func TestSuccOffs(t *testing.T) {
	b := asm.NewBuilder()
	b.Jnz(isa.RAX, "out") // +0: succs = fall-through +8 and target +16
	b.Nop()               // +8: succ = +16
	b.Label("out")
	b.Halt() // +16: no succs
	g := BuildCFG(b.MustAssemble(0), 0)
	if s := g.SuccOffs(0); len(s) != 2 || s[0] != 8 || s[1] != 16 {
		t.Errorf("branch succs = %v, want [8 16]", s)
	}
	if s := g.SuccOffs(8); len(s) != 1 || s[0] != 16 {
		t.Errorf("nop succs = %v, want [16]", s)
	}
	if s := g.SuccOffs(16); len(s) != 0 {
		t.Errorf("halt succs = %v, want none", s)
	}
}

func TestTargetOffOutOfRange(t *testing.T) {
	b := asm.NewBuilder()
	b.JmpAbs(0x999999) // far outside the buffer
	b.Halt()
	g := BuildCFG(b.MustAssemble(0), 0)
	if _, ok := g.TargetOff(g.InstAt(0)); ok {
		t.Error("out-of-range target resolved")
	}
	if s := g.SuccOffs(0); len(s) != 0 {
		t.Errorf("unresolvable jmp has succs %v", s)
	}
}
