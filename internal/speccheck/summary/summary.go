// Package summary holds what the speccheck analyzer's walk runs on and what
// its cache keys by: the taint + abstract-store dataflow domain, the
// per-instruction transfer function Step, per-source dependency closures
// with their content-addressed keys, and the on-disk store that keeps the
// cache's results across processes.
//
// A per-source result is a summary in the sense of the compositional
// speculative-leak detectors in the literature (Fabian et al.'s
// compositional speculative semantics): it depends only on the bytes the
// source's always-mispredict walk can read, so it is keyed by the content
// hash of that dependency closure, taken relative to the source. A result
// computed at one offset therefore replays at any other offset, and in any
// other program, whose closure bytes match, which is what lets the cache
// share work across re-scans, program edits, and gadgets with common code.
//
// The package contains no exploration policy: the one walk in package
// speccheck owns source enumeration, the worklist, the visited set and
// budget accounting, and calls Step for each instruction.
package summary

import (
	"sort"

	"zenspec/internal/isa"
)

// MaxCells bounds the abstract store; the oldest cell is evicted first.
const MaxCells = 8

// Cell is one entry of the finite abstract store: the taint of the value
// last stored through [base+imm]. Addresses are tracked symbolically by their
// (base register, displacement) pair and invalidated when base is redefined.
type Cell struct {
	Base  isa.Reg
	Imm   int32
	Taint uint8
}

// State is the dataflow fact attached to one exploration path: per-register
// taint levels, the dependent-load chain built so far, and the abstract
// store. Taint level n means "derived from the n-th dependent load after the
// speculation source".
type State struct {
	Reg   [isa.NumRegs]uint8
	Chain []int
	Mem   []Cell
}

// Clone deep-copies the state so two exploration branches cannot alias.
func (s *State) Clone() State {
	c := State{Reg: s.Reg}
	c.Chain = append([]int(nil), s.Chain...)
	c.Mem = append([]Cell(nil), s.Mem...)
	return c
}

// SetReg assigns a taint level and invalidates abstract-store cells whose
// symbolic base just changed meaning.
func (s *State) SetReg(r isa.Reg, lvl uint8) {
	s.Reg[r] = lvl
	kept := s.Mem[:0]
	for _, c := range s.Mem {
		if c.Base != r {
			kept = append(kept, c)
		}
	}
	s.Mem = kept
}

// PutCell records the taint stored through [base+imm].
func (s *State) PutCell(base isa.Reg, imm int32, taint uint8) {
	for i := range s.Mem {
		if s.Mem[i].Base == base && s.Mem[i].Imm == imm {
			s.Mem[i].Taint = taint
			return
		}
	}
	if len(s.Mem) == MaxCells {
		copy(s.Mem, s.Mem[1:])
		s.Mem = s.Mem[:MaxCells-1]
	}
	s.Mem = append(s.Mem, Cell{Base: base, Imm: imm, Taint: taint})
}

// CellAt returns the recorded taint of the value reachable through
// [base+imm]; a location with no recorded store is clean (0).
func (s *State) CellAt(base isa.Reg, imm int32) uint8 {
	for _, c := range s.Mem {
		if c.Base == base && c.Imm == imm {
			return c.Taint
		}
	}
	return 0
}

// Key builds the canonical visited-set key for the state at a byte offset:
// the offset, the chain *length* (not the exact offsets — states differing
// only in witness history merge), the register taints, and the abstract
// store cells in canonical (sorted) order.
func (s *State) Key(off int) string {
	buf := make([]byte, 0, 5+isa.NumRegs+len(s.Mem)*6)
	buf = append(buf, byte(off), byte(off>>8), byte(off>>16), byte(off>>24))
	buf = append(buf, byte(len(s.Chain)))
	buf = append(buf, s.Reg[:]...)
	cells := append([]Cell(nil), s.Mem...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Base != cells[j].Base {
			return cells[i].Base < cells[j].Base
		}
		return cells[i].Imm < cells[j].Imm
	})
	for _, c := range cells {
		buf = append(buf, byte(c.Base), byte(c.Imm), byte(c.Imm>>8), byte(c.Imm>>16), byte(c.Imm>>24), c.Taint)
	}
	return string(buf)
}
