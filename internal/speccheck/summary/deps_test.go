package summary_test

import (
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/speccheck/summary"
)

func inst(in isa.Inst) []byte {
	var b [isa.InstBytes]byte
	in.Encode(b[:])
	return b[:]
}

// prog concatenates instruction encodings.
func prog(ins ...isa.Inst) []byte {
	var out []byte
	for _, in := range ins {
		out = append(out, inst(in)...)
	}
	return out
}

var fp = summary.Fingerprint{Window: 48, MaxStates: 16384}

// TestSourceKeyLocality: edits outside the closure leave the key unchanged;
// edits inside change it.
func TestSourceKeyLocality(t *testing.T) {
	code := prog(
		isa.Inst{Op: isa.MOVI, Dst: isa.RAX, Imm: 7},        // +0: before the source
		isa.Inst{Op: isa.STORE, Src1: isa.RCX},              // +8: source
		isa.Inst{Op: isa.LOAD, Dst: isa.RDX, Src1: isa.R14}, // +16
		isa.Inst{Op: isa.HALT},                              // +24: sweep stops
		isa.Inst{Op: isa.ADD, Dst: isa.RBX, Src1: isa.RBX},  // +32: past the halt
	)
	const src = 8
	cl := summary.CloseOver(code, 0, src, fp.Window)
	if cl.Fallback {
		t.Fatal("tiny program degraded to fallback")
	}
	key := new(summary.Keyer).SourceKey(code, src, 0, fp, cl)

	outside := append([]byte(nil), code...)
	copy(outside[:isa.InstBytes], inst(isa.Inst{Op: isa.NOP}))
	copy(outside[32:], inst(isa.Inst{Op: isa.NOP}))
	clO := summary.CloseOver(outside, 0, src, fp.Window)
	if got := new(summary.Keyer).SourceKey(outside, src, 0, fp, clO); got != key {
		t.Error("edit outside the closure changed the key")
	}

	inside := append([]byte(nil), code...)
	copy(inside[16:], inst(isa.Inst{Op: isa.NOP}))
	clI := summary.CloseOver(inside, 0, src, fp.Window)
	if got := new(summary.Keyer).SourceKey(inside, src, 0, fp, clI); got == key {
		t.Error("edit inside the closure did not change the key")
	}
}

// TestSourceKeyRelocatable: the same bytes at a different offset (with a
// branch whose displacement from the source is preserved) key identically,
// and a changed displacement keys differently.
func TestSourceKeyRelocatable(t *testing.T) {
	// source store, conditional branch over one instruction, load, halt —
	// assembled at byte offset `at` with the branch target absolute.
	build := func(at int, skip int) []byte {
		pad := make([]byte, at)
		body := prog(
			isa.Inst{Op: isa.STORE, Src1: isa.RCX},
			isa.Inst{Op: isa.JNZ, Src1: isa.RAX, Imm: int32(at + (2+skip)*isa.InstBytes)},
			isa.Inst{Op: isa.LOAD, Dst: isa.RDX, Src1: isa.R14},
			isa.Inst{Op: isa.HALT},
		)
		return append(pad, body...)
	}
	k1 := func(code []byte, src int) string {
		return new(summary.Keyer).SourceKey(code, src, 0, fp, summary.CloseOver(code, 0, src, fp.Window))
	}
	a := build(0, 1)
	b := build(40, 1)
	if k1(a, 0) != k1(b, 40) {
		t.Error("relocated source keyed differently")
	}
	c := build(0, 2) // branch skips further: different relative target
	if k1(a, 0) == k1(c, 0) {
		t.Error("changed branch displacement keyed identically")
	}
}

// TestCloseOverFallback: a branch fan-out past the sweep budget degrades to
// the whole-buffer fallback instead of an unsound partial closure.
func TestCloseOverFallback(t *testing.T) {
	// 100 conditional branches each targeting a distinct later offset: every
	// one enqueues a new sweep start.
	var ins []isa.Inst
	const n = 100
	for i := 0; i < n; i++ {
		ins = append(ins, isa.Inst{Op: isa.JNZ, Src1: isa.RAX, Imm: int32((n + i) * isa.InstBytes)})
	}
	for i := 0; i < n; i++ {
		ins = append(ins, isa.Inst{Op: isa.ADD, Dst: isa.RBX, Src1: isa.RBX})
	}
	code := prog(ins...)
	cl := summary.CloseOver(code, 0, 0, 200)
	if !cl.Fallback {
		t.Fatal("fan-out past the budget did not trigger the fallback")
	}
	if len(cl.Ranges) != 1 || cl.Ranges[0].Rel != 0 || cl.Ranges[0].Insts != 2*n {
		t.Errorf("fallback ranges = %+v", cl.Ranges)
	}
}
