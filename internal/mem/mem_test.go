package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocFrameUnique(t *testing.T) {
	p := NewPhysical()
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		pfn := p.AllocFrame()
		if pfn == 0 {
			t.Fatal("frame 0 must stay reserved")
		}
		if seen[pfn] {
			t.Fatalf("frame %#x allocated twice", pfn)
		}
		seen[pfn] = true
	}
	if len(p.frames) != 100 {
		t.Errorf("%d frames allocated, want 100", len(p.frames))
	}
}

func TestAllocFrameAt(t *testing.T) {
	p := NewPhysical()
	if err := p.AllocFrameAt(0x123); err != nil {
		t.Fatal(err)
	}
	if err := p.AllocFrameAt(0x123); err == nil {
		t.Error("double allocation should fail")
	}
	if err := p.AllocFrameAt(0); err == nil {
		t.Error("frame 0 should be unallocatable")
	}
	if err := p.AllocFrameAt(MaxFrame + 1); err == nil {
		t.Error("out-of-range frame should fail")
	}
	// AllocFrame must skip explicitly taken frames.
	if err := p.AllocFrameAt(1); err != nil {
		t.Fatal(err)
	}
	if pfn := p.AllocFrame(); pfn == 1 {
		t.Error("AllocFrame returned an already-taken frame")
	}
}

func TestReadWriteBytesCrossFrame(t *testing.T) {
	p := NewPhysical()
	pa := uint64(2*PageSize) - 3 // spans two frames
	data := []byte{1, 2, 3, 4, 5, 6, 7}
	p.WriteBytes(pa, data)
	got := make([]byte, len(data))
	p.ReadInto(pa, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-frame read = %v, want %v", got, data)
	}
}

func TestReadUnallocatedIsZero(t *testing.T) {
	p := NewPhysical()
	got := make([]byte, 16)
	p.ReadInto(0x5000, got)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("unallocated read returned %v", got)
		}
	}
	if p.Read64(0x9000) != 0 {
		t.Error("unallocated Read64 nonzero")
	}
}

func TestRead64Write64RoundTrip(t *testing.T) {
	p := NewPhysical()
	f := func(pa, v uint64) bool {
		pa &= (uint64(1) << 30) - 1 // keep the test memory small
		p.Write64(pa, v)
		return p.Read64(pa) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTranslatePermissions(t *testing.T) {
	a := NewAddrSpace()
	a.Map(0x400000, 7, PermR|PermX)
	tests := []struct {
		va   uint64
		acc  Access
		want Fault
	}{
		{0x400010, AccessRead, FaultNone},
		{0x400010, AccessExec, FaultNone},
		{0x400010, AccessWrite, FaultProtection},
		{0x500000, AccessRead, FaultNotMapped},
	}
	for _, tc := range tests {
		pa, f := a.Translate(tc.va, tc.acc)
		if f != tc.want {
			t.Errorf("Translate(%#x,%v) fault = %v, want %v", tc.va, tc.acc, f, tc.want)
		}
		if f == FaultNone {
			want := uint64(7)<<PageShift | PageOffset(tc.va)
			if pa != want {
				t.Errorf("Translate(%#x) = %#x, want %#x", tc.va, pa, want)
			}
		}
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 1)
	tlb.Insert(0x2000, 2)
	tlb.Insert(0x3000, 3) // evicts 0x1000
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Error("oldest entry should be evicted")
	}
	if pfn, ok := tlb.Lookup(0x2000); !ok || pfn != 2 {
		t.Error("0x2000 should remain")
	}
	if pfn, ok := tlb.Lookup(0x3fff); !ok || pfn != 3 {
		t.Error("lookup within page should hit")
	}
	if n := len(tlb.entries); n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

func TestTLBReinsertDoesNotGrow(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 1)
	tlb.Insert(0x1000, 5)
	if pfn, _ := tlb.Lookup(0x1000); pfn != 5 {
		t.Error("reinsert should update pfn")
	}
	if n := len(tlb.entries); n != 1 {
		t.Errorf("%d entries, want 1", n)
	}
	tlb.Flush()
	if len(tlb.entries) != 0 {
		t.Error("flush should empty TLB")
	}
	// Reinsert after flush works.
	tlb.Insert(0x4000, 4)
	if _, ok := tlb.Lookup(0x4000); !ok {
		t.Error("insert after flush failed")
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || Perm(0).String() != "---" || (PermR|PermX).String() != "r-x" {
		t.Error("Perm.String wrong")
	}
}

func TestFaultString(t *testing.T) {
	for f, want := range map[Fault]string{FaultNone: "none", FaultNotMapped: "not-mapped", FaultProtection: "protection"} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	f := func(raw uint64) bool {
		va := raw & ((uint64(1) << PhysBits) - 1)
		return VPN(va)<<PageShift|PageOffset(va) == va
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
