package summary_test

import (
	"bytes"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/speccheck/summary"
)

// TestStateKeyLayout pins the visited-set key byte for byte: the offset as
// four little-endian bytes, the chain length, the register taints, and the
// abstract-store cells sorted by (base, displacement). The walk merges the
// states whose keys are equal, so these bytes decide its state count.
func TestStateKeyLayout(t *testing.T) {
	st := summary.State{
		Chain: []int{8, 24},
		Mem: []summary.Cell{
			{Base: isa.RCX, Imm: -8, Taint: 1},
			{Base: isa.RAX, Imm: 0x10, Taint: 2},
		},
	}
	st.Reg[isa.RBX] = 2
	want := []byte{0x04, 0x03, 0x02, 0x01, 2}
	want = append(want, st.Reg[:]...)
	want = append(want, byte(isa.RAX), 0x10, 0, 0, 0, 2)
	want = append(want, byte(isa.RCX), 0xf8, 0xff, 0xff, 0xff, 1)
	if got := []byte(st.Key(0x01020304)); !bytes.Equal(got, want) {
		t.Fatalf("Key =\n% x\nwant\n% x", got, want)
	}

	// The witness offsets and the cells' insertion order do not count.
	other := summary.State{Reg: st.Reg, Chain: []int{40, 56}, Mem: []summary.Cell{st.Mem[1], st.Mem[0]}}
	if other.Key(0x01020304) != st.Key(0x01020304) {
		t.Error("states differing only in chain offsets or cell order got different keys")
	}
}
