package summary

import (
	"crypto/sha256"

	"zenspec/internal/isa"
)

// BlockCap bounds the instruction count of one summarized block. Longer
// straight-line runs split into chained blocks (EndEdge falls through into
// the next), so the cap only affects summary granularity, never results.
const BlockCap = 64

// EndKind says how a block summary's walk left the block.
type EndKind uint8

// Block end kinds.
const (
	// EndDead: the path died inside the block (terminal, fence or a
	// reported transmitter). Nothing is pushed after the steps are applied.
	EndDead EndKind = iota
	// EndEdge: the walk survived the whole block; the driver continues at
	// the control-flow successors of the block's last instruction (a
	// branch's fall-through and target, or plain fall-through when the
	// block ended at BlockCap or at the end of the buffer).
	EndEdge
)

// StepRec is one instruction's recorded effect inside a block summary —
// everything the driver needs to replay the instruction-level walk exactly,
// without decoding or re-deriving taint: the position-independent visited-key
// suffix of the pre-state, whether the instruction extends the witness
// chain, and whether it transmits (which also ends the path).
type StepRec struct {
	KeySuffix []byte
	Append    bool
	Report    bool
}

// BlockSummary is the transfer summary of one basic block for one entry
// abstraction: the exact per-instruction effect sequence, how the block
// ends, and the exit state (registers and abstract store; the exit chain is
// reconstructed by the driver from the entry chain plus the Append steps).
// Everything is relative to the block start, so a summary recorded at one
// position replays at any other position with identical bytes.
type BlockSummary struct {
	Steps   []StepRec
	End     EndKind
	ExitReg [isa.NumRegs]uint8
	ExitMem []Cell
}

// ScanBlock decodes the maximal straight-line run starting at off: up to
// BlockCap instructions, ending at (and including) the first branch,
// terminal, or fence, or at the end of the buffer. The returned instructions
// are what Record summarizes; hashing code[off : off+len(insts)*InstBytes]
// identifies the block's content.
func ScanBlock(code []byte, off int) []isa.Inst {
	var insts []isa.Inst
	for o := off; o+isa.InstBytes <= len(code) && len(insts) < BlockCap; o += isa.InstBytes {
		in := isa.Decode(code[o:])
		insts = append(insts, in)
		if in.IsBranch() || in.IsFence() ||
			in.Op == isa.BAD || in.Op == isa.HALT || in.Op == isa.SYSCALL {
			break
		}
	}
	return insts
}

// HashBlock content-addresses a block: the SHA-256 of its raw instruction
// bytes. Two blocks with equal hashes decode identically and therefore share
// summaries, wherever (and in whichever program) they appear. The scan
// length is implied by the content: a run that stopped early at a buffer
// boundary hashes fewer bytes than the same prefix followed by more code.
func HashBlock(code []byte, off, n int) [sha256.Size]byte {
	return sha256.Sum256(code[off : off+n*isa.InstBytes])
}

// Record computes the block summary of insts for one entry abstraction by
// replaying Step over a scratch state — the same transfer function the
// instruction-level engine runs, so the summary is exact by construction.
// Only the entry's register taints, abstract store and chain *length* matter
// (captured by EntryKey); the concrete chain offsets never influence the
// walk.
func Record(insts []isa.Inst, entry *State, required int) *BlockSummary {
	st := State{Reg: entry.Reg}
	st.Chain = make([]int, len(entry.Chain))
	st.Mem = append([]Cell(nil), entry.Mem...)

	s := &BlockSummary{End: EndEdge}
	for i, in := range insts {
		rec := StepRec{KeySuffix: st.KeySuffix()}
		before := len(st.Chain)
		out := Step(in, &st, i*isa.InstBytes, required)
		rec.Append = len(st.Chain) > before
		rec.Report = out == Report
		s.Steps = append(s.Steps, rec)
		switch out {
		case End, Report:
			s.End = EndDead
		case Continue:
			continue
		}
		break
	}
	s.ExitReg = st.Reg
	s.ExitMem = st.Mem
	return s
}
