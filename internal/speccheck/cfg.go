package speccheck

import (
	"fmt"
	"sort"
	"strings"

	"zenspec/internal/isa"
)

// CFG is a control-flow graph over a byte buffer of machine code.
//
// Because the ISA allows instructions at any byte offset (the code-sliding
// placement of Section III-C), the graph is built at instruction granularity:
// a node is a byte offset, its fall-through successor is off+isa.InstBytes on
// the same grid, and a branch target — an absolute VA resolved against Base —
// may land on a different grid entirely. Basic blocks therefore may overlap
// byte ranges when two grids interleave; each block stays on one grid.
type CFG struct {
	code []byte
	// Base is the virtual address of code[0].
	Base uint64
	// Blocks lists the basic blocks reachable from the entry offsets, in
	// ascending start order.
	Blocks []Block

	blockAt map[int]int // block start offset -> Blocks index
}

// Block is one basic block: a maximal single-entry straight-line run of
// instructions on one byte grid.
type Block struct {
	// Start is the byte offset of the first instruction.
	Start int
	// Offsets holds the byte offset of every instruction in the block.
	Offsets []int
	// Succs are indices into CFG.Blocks of the control-flow successors.
	Succs []int
}

// End returns the byte offset one past the block's last instruction.
func (b Block) End() int { return b.Offsets[len(b.Offsets)-1] + isa.InstBytes }

// BuildCFG decodes code and builds the control-flow graph reachable from the
// given entry offsets (offset 0 when none are given). Invalid entries are
// ignored; conditional and unconditional branch targets discovered during the
// sweep become block leaders, wherever in the byte stream they land.
func BuildCFG(code []byte, base uint64, entries ...int) *CFG {
	g := &CFG{code: code, Base: base, blockAt: make(map[int]int)}
	if len(entries) == 0 {
		entries = []int{0}
	}

	// Pass 1: discover leaders with a worklist of sweep starting points.
	leaders := make(map[int]bool)
	work := make([]int, 0, len(entries))
	push := func(off int) {
		if off >= 0 && off+isa.InstBytes <= len(code) && !leaders[off] {
			leaders[off] = true
			work = append(work, off)
		}
	}
	for _, e := range entries {
		push(e)
	}
	swept := make(map[int]bool)
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for off >= 0 && off+isa.InstBytes <= len(code) && !swept[off] {
			swept[off] = true
			in := g.InstAt(off)
			if in.IsBranch() {
				if t, ok := g.TargetOff(in); ok {
					push(t)
				}
				if in.Op != isa.JMP {
					push(off + isa.InstBytes)
				}
				break
			}
			if in.Op == isa.HALT || in.Op == isa.BAD {
				break
			}
			off += isa.InstBytes
		}
	}

	// Pass 2: lay out blocks between leaders and terminators.
	starts := make([]int, 0, len(leaders))
	for off := range leaders {
		starts = append(starts, off)
	}
	sort.Ints(starts)
	for _, s := range starts {
		blk := Block{Start: s}
		for off := s; off+isa.InstBytes <= len(code); off += isa.InstBytes {
			if off != s && leaders[off] {
				break // falls through into the next leader's block
			}
			blk.Offsets = append(blk.Offsets, off)
			in := g.InstAt(off)
			if in.IsBranch() || in.Op == isa.HALT || in.Op == isa.BAD {
				break
			}
		}
		if len(blk.Offsets) == 0 {
			continue
		}
		g.blockAt[s] = len(g.Blocks)
		g.Blocks = append(g.Blocks, blk)
	}

	// Pass 3: resolve successor edges.
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		last := blk.Offsets[len(blk.Offsets)-1]
		for _, succ := range g.SuccOffs(last) {
			if j, ok := g.blockAt[succ]; ok {
				blk.Succs = append(blk.Succs, j)
			}
		}
	}
	return g
}

// InstAt decodes the instruction at byte offset off. Offsets without room
// for a full instruction decode to BAD (which terminates any path).
func (g *CFG) InstAt(off int) isa.Inst {
	if off < 0 || off+isa.InstBytes > len(g.code) {
		return isa.Inst{}
	}
	return isa.Decode(g.code[off:])
}

// TargetOff resolves a branch instruction's absolute target VA to a byte
// offset within the code buffer. ok is false when the target (or the
// instruction it would start) falls outside the buffer.
func (g *CFG) TargetOff(in isa.Inst) (int, bool) {
	t := uint64(uint32(in.Imm))
	if t < g.Base {
		return 0, false
	}
	off := int(t - g.Base)
	if off+isa.InstBytes > len(g.code) {
		return 0, false
	}
	return off, true
}

// SuccOffs returns the byte offsets control flow may continue at after the
// instruction at off: the branch target and/or the fall-through slot, both
// clipped to the buffer. Terminal instructions (HALT, BAD) have none.
func (g *CFG) SuccOffs(off int) []int {
	in := g.InstAt(off)
	var out []int
	fall := off + isa.InstBytes
	switch {
	case in.Op == isa.HALT || in.Op == isa.BAD:
		return nil
	case in.Op == isa.JMP:
		if t, ok := g.TargetOff(in); ok {
			out = append(out, t)
		}
		return out
	case isCondBranch(in):
		if fall+isa.InstBytes <= len(g.code) {
			out = append(out, fall)
		}
		if t, ok := g.TargetOff(in); ok {
			out = append(out, t)
		}
		return out
	default:
		if fall+isa.InstBytes <= len(g.code) {
			out = append(out, fall)
		}
		return out
	}
}

// String renders the graph for the CLI's -cfg dump: one line per block with
// its byte range, instruction listing and successor blocks.
func (g *CFG) String() string {
	var sb strings.Builder
	for i, blk := range g.Blocks {
		fmt.Fprintf(&sb, "block %d [+%#x, +%#x):", i, blk.Start, blk.End())
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " %d", s)
			}
		}
		sb.WriteByte('\n')
		for _, off := range blk.Offsets {
			fmt.Fprintf(&sb, "  +%#04x: %s\n", off, g.InstAt(off))
		}
	}
	return sb.String()
}
