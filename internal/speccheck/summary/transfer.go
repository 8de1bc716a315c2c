package summary

import "zenspec/internal/isa"

// Outcome classifies what one instruction did to the speculative walk.
type Outcome uint8

// Step outcomes.
const (
	// Continue: the state was updated (or untouched) and the walk proceeds
	// to the instruction's control-flow successors.
	Continue Outcome = iota
	// End: a terminal instruction or fence; the transient path dies here.
	End
	// Report: the instruction is a transmitter for the current chain — the
	// caller must emit a finding with the state's chain and this offset,
	// and the path ends (the transmitter is the end of the witness).
	Report
	// Redirect: a branch; the caller pushes the control-flow successors.
	// The state is never modified by a Redirect.
	Redirect
)

// Step applies one instruction of the always-mispredict speculative
// semantics to st: the transfer function of the analyzer's one walk.
//
// off is the instruction's byte offset, used only as the value appended to
// the witness chain — the taint logic itself is position-independent, which
// is what makes cached per-source results relocatable. required is the dependent
// chain depth a transmitter needs (2 for STL, the Listing 2/3 chain; 1 for
// CTL, the V1 shape).
func Step(in isa.Inst, st *State, off, required int) Outcome {
	depth := len(st.Chain)
	switch {
	case in.Op == isa.BAD, in.Op == isa.HALT, in.Op == isa.SYSCALL:
		// Terminal: the transient window cannot continue through these.
		return End

	case in.IsFence():
		// A fence serializes; the speculative chain dies here.
		return End

	case in.IsBranch():
		return Redirect

	case in.IsLoad():
		b := int(st.Reg[in.Src1])
		switch {
		case b >= required && depth >= required:
			return Report
		case depth == 0:
			// The speculative load: for STL any load after the store may
			// bypass it; for CTL the first load in the shadow reads the
			// value the branch was guarding.
			st.Chain = append(append([]int(nil), st.Chain...), off)
			st.SetReg(in.Dst, 1)
		case b >= depth && depth < required:
			// A load whose address derives from the chain deepens it.
			st.Chain = append(append([]int(nil), st.Chain...), off)
			st.SetReg(in.Dst, uint8(depth+1))
		default:
			// An unrelated load: its destination carries whatever the
			// abstract store says was last written there (taint survives
			// a spill/reload round trip), otherwise it is clean.
			st.SetReg(in.Dst, st.CellAt(in.Src1, in.Imm))
		}
		return Continue

	case in.IsStore():
		if int(st.Reg[in.Src1]) >= required && depth >= required {
			// A tainted-address store transmits just like a load: it
			// moves the secret into a cache-visible location.
			return Report
		}
		st.PutCell(in.Src1, in.Imm, st.Reg[in.Src2])
		return Continue

	case in.Op == isa.CLFLUSH:
		if int(st.Reg[in.Src1]) >= required && depth >= required {
			// Flushing a secret-indexed line is a transmitter too
			// (flush-based channels observe the displacement).
			return Report
		}
		return Continue

	case in.WritesReg():
		st.SetReg(in.Dst, propagated(in, st))
		return Continue
	}
	return Continue
}

// propagated computes a register result's taint from its sources. Constants
// and timestamps are clean.
func propagated(in isa.Inst, st *State) uint8 {
	switch in.Op {
	case isa.MOVI, isa.RDPRU:
		return 0
	}
	srcs, n := in.SrcRegs()
	var max uint8
	for i := 0; i < n; i++ {
		if l := st.Reg[srcs[i]]; l > max {
			max = l
		}
	}
	return max
}
