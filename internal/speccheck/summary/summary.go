// Package summary is the compositional core of the speccheck analyzer: the
// taint + abstract-store dataflow domain, the per-instruction transfer
// function, per-basic-block transfer summaries, per-source dependency
// closures, and the content-addressed stores that cache both.
//
// The design follows the summary-based speculative-leak detectors in the
// literature (Fabian et al.'s compositional speculative semantics, and
// modular weakest-precondition reasoning over speculative dataflow): instead
// of re-walking a program instruction by instruction on every scan, each
// straight-line block is summarized once per entry abstraction — the
// relocatable sequence of taint effects, chain extensions and findings the
// always-mispredict walk produces through it — and the whole-program result
// is composed from summaries along control-flow edges. Everything in this
// package is position-independent: a summary recorded for a block's bytes at
// one offset replays exactly at any other offset (and in any other program)
// whose bytes match, which is what lets a cache keyed by content hash share
// work across re-scans, program edits, and corpus gadgets with common code.
//
// The package deliberately contains no exploration policy: the driver in
// package speccheck owns source enumeration, the worklist, the visited set
// and budget accounting, so that summary-mode analysis reproduces the
// whole-program engine's findings byte for byte. Both engines call the one
// Step function below; equivalence is by construction, not by parallel
// maintenance.
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

// KeySuffix builds the position-independent tail of the visited-set key:
// chain *length* (not the exact offsets — states differing only in witness
// history merge), register taints, and the abstract store cells in canonical
// (sorted) order. Key prepends the byte offset to it.
func (s *State) KeySuffix() []byte {
	buf := make([]byte, 0, 1+isa.NumRegs+len(s.Mem)*6)
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
	return buf
}

// Key builds the canonical visited-set key for the state at a byte offset.
func (s *State) Key(off int) string {
	return PatchKey(off, s.KeySuffix())
}

// PatchKey assembles a visited-set key from a byte offset and a precomputed
// position-independent suffix: what a block summary stores per step so the
// driver can reconstruct the exact key the instruction-level walk would use.
func PatchKey(off int, suffix []byte) string {
	buf := make([]byte, 0, 4+len(suffix))
	buf = append(buf, byte(off), byte(off>>8), byte(off>>16), byte(off>>24))
	buf = append(buf, suffix...)
	return string(buf)
}

// EntryKey is the content-addressed entry abstraction a block summary is
// keyed by: the source kind's required chain depth and the full entry state
// up to chain history. Unlike the visited key, the abstract store keeps its
// insertion order — eviction in PutCell is order-sensitive, so two entries
// whose cells differ only in order must not share a summary.
func EntryKey(s *State, required int) string {
	buf := make([]byte, 0, 2+isa.NumRegs+len(s.Mem)*6)
	buf = append(buf, byte(required), byte(len(s.Chain)))
	buf = append(buf, s.Reg[:]...)
	for _, c := range s.Mem {
		buf = append(buf, byte(c.Base), byte(c.Imm), byte(c.Imm>>8), byte(c.Imm>>16), byte(c.Imm>>24), c.Taint)
	}
	return string(buf)
}
