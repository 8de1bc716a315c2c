package asm

import (
	"sync"

	"zenspec/internal/isa"
)

// Stld describes an assembled instance of the paper's Listing 1
// microbenchmark: a store-load pair whose store address generation is delayed
// by a chain of IMULs, bracketed by RDPRU timer reads.
//
// Calling convention (mirroring the paper's amd64 function):
//
//	RDI — store data address
//	RSI — load data address
//	R9  — store data value
//	RAX — (out) elapsed cycles between the two RDPRU reads
//	R8  — (out) the loaded value
//
// StoreOff and LoadOff are the byte offsets of the STORE and LOAD
// instructions relative to the start of the code; adding them to the mapped
// base yields the instruction virtual addresses, and translating those yields
// the IPAs that select PSFP and SSBP entries.
type Stld struct {
	Code     []byte
	StoreOff int // byte offset of the STORE instruction
	LoadOff  int // byte offset of the LOAD instruction
}

// StldOptions configures BuildStld.
type StldOptions struct {
	// Imuls is the length of the multiply chain delaying the store's address
	// generation. The paper uses 20. Zero means 20.
	Imuls int
	// PadStart inserts this many NOPs before everything else, moving the
	// store-load pair within the page without changing its behaviour — the
	// knob used to control instruction physical addresses. (Padding must
	// precede the timer read and the multiply chain: NOPs between the chain
	// and the store would delay the store's dispatch past its own address
	// computation and no speculation would occur.)
	PadStart int
	// PadBetween inserts this many NOPs between the STORE and the LOAD,
	// changing the store→load IPA distance (Section IV-B's "distance").
	PadBetween int
}

// DefaultImuls is the paper's multiply-chain length.
const DefaultImuls = 20

// stldCache memoizes BuildStld per options. Assembly is a pure host-side
// function of the options — it touches no simulated machine state — so
// memoizing it cannot perturb any simulated outcome; it only removes the
// cost of re-assembling the same template thousands of times per experiment
// (one placement loop rebuilds it per probe). Callers must treat the
// returned Code as read-only; every existing caller only copies it into
// simulated memory.
var stldCache sync.Map // StldOptions → Stld

// BuildStld assembles an stld microbenchmark instance. The result is
// memoized per options; Code is shared and must not be mutated.
func BuildStld(opts StldOptions) Stld {
	if v, ok := stldCache.Load(opts); ok {
		return v.(Stld)
	}
	s := buildStld(opts)
	stldCache.Store(opts, s)
	return s
}

func buildStld(opts StldOptions) Stld {
	imuls := opts.Imuls
	if imuls == 0 {
		imuls = DefaultImuls
	}
	b := NewBuilder()
	for i := 0; i < opts.PadStart; i++ {
		b.Nop()
	}
	b.Rdpru(isa.R10)
	b.Movi(isa.R12, 1)
	b.Mov(isa.RBX, isa.RDI)
	for i := 0; i < imuls; i++ {
		b.Imul(isa.RBX, isa.RBX, isa.R12)
	}
	storeOff := b.Offset()
	b.Store(isa.RBX, 0, isa.R9)
	for i := 0; i < opts.PadBetween; i++ {
		b.Nop()
	}
	loadOff := b.Offset()
	b.Load(isa.R8, isa.RSI, 0)
	b.Rdpru(isa.R11)
	b.Sub(isa.RAX, isa.R11, isa.R10)
	b.Halt()
	// The stld body contains no label-relative branches, so any base works;
	// assemble position-independent at 0.
	return Stld{Code: b.MustAssemble(0), StoreOff: storeOff, LoadOff: loadOff}
}
