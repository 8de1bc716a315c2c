// Package mem models physical memory and per-process address translation.
//
// Physical memory is a sparse collection of 4 KiB frames addressed by a
// 48-bit physical address, matching the paper's "the IPA is up to 48 bits".
// Frames can be allocated at chosen frame numbers, which is how the
// experiment harness plays the role of PTEditor: it constructs instruction
// physical addresses with chosen predictor-hash values.
package mem

import (
	"fmt"
	"maps"
	"slices"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
	// PhysBits is the width of a physical address.
	PhysBits = 48
	// MaxFrame is the highest allocatable physical frame number.
	MaxFrame = (uint64(1) << (PhysBits - PageShift)) - 1
)

// VPN returns the virtual page number of va.
func VPN(va uint64) uint64 { return va >> PageShift }

// PFNOf returns the physical frame number of pa.
func PFNOf(pa uint64) uint64 { return pa >> PageShift }

// PageOffset returns the offset of addr within its page.
func PageOffset(addr uint64) uint64 { return addr & PageMask }

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermRW and PermRWX are common combinations.
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	s := []byte("---")
	if p&PermR != 0 {
		s[0] = 'r'
	}
	if p&PermW != 0 {
		s[1] = 'w'
	}
	if p&PermX != 0 {
		s[2] = 'x'
	}
	return string(s)
}

// Fault describes the outcome of a translation.
type Fault uint8

// Translation outcomes.
const (
	FaultNone Fault = iota
	FaultNotMapped
	FaultProtection
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultNotMapped:
		return "not-mapped"
	case FaultProtection:
		return "protection"
	}
	return "fault?"
}

// Access is the kind of memory access being translated.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

// Frame is one physical page. Version counts the writes the frame has seen;
// caches keyed on frame contents (the pipeline's decoded-fetch cache) compare
// it instead of the bytes.
type Frame struct {
	Data    [PageSize]byte
	Version uint64
}

// Physical is the machine's physical memory.
type Physical struct {
	frames   map[uint64]*Frame
	nextFree uint64
}

// NewPhysical returns empty physical memory. Frame 0 is reserved (never
// allocated) so that physical address 0 is always invalid.
func NewPhysical() *Physical {
	return &Physical{frames: make(map[uint64]*Frame), nextFree: 1}
}

// AllocFrame allocates the next free frame and returns its frame number.
func (p *Physical) AllocFrame() uint64 {
	for p.frames[p.nextFree] != nil {
		p.nextFree++
	}
	pfn := p.nextFree
	p.frames[pfn] = new(Frame)
	p.nextFree++
	return pfn
}

// AllocFrameAt allocates a frame at a specific frame number, the PTEditor-
// style privilege the experiment harness uses to construct IPAs with chosen
// hash values. It reports an error if the frame is taken or out of range.
func (p *Physical) AllocFrameAt(pfn uint64) error {
	if pfn == 0 || pfn > MaxFrame {
		return fmt.Errorf("mem: frame %#x out of range", pfn)
	}
	if p.frames[pfn] != nil {
		return fmt.Errorf("mem: frame %#x already allocated", pfn)
	}
	p.frames[pfn] = new(Frame)
	return nil
}

// Allocated reports whether a frame exists.
func (p *Physical) Allocated(pfn uint64) bool { return p.frames[pfn] != nil }

// Clone returns a deep copy: every frame with its bytes and Version, and
// the allocation cursor. It only reads p, so clones of one Physical may be
// taken concurrently.
func (p *Physical) Clone() *Physical {
	c := &Physical{frames: make(map[uint64]*Frame, len(p.frames)), nextFree: p.nextFree}
	frames := make([]Frame, len(p.frames))
	i := 0
	for pfn, f := range p.frames {
		frames[i] = *f
		c.frames[pfn] = &frames[i]
		i++
	}
	return c
}

func (p *Physical) frame(pa uint64) *Frame {
	return p.frames[PFNOf(pa)]
}

// FrameAt returns the frame holding pa, or nil if it is unallocated. The
// pointer stays valid until the frame is freed; callers that cache derived
// state (decoded instructions) must revalidate against Frame.Version.
func (p *Physical) FrameAt(pa uint64) *Frame {
	return p.frames[PFNOf(pa)]
}

// ReadInto fills out with the bytes starting at physical address pa without
// allocating; the hot fetch path uses it with a stack buffer. Reads of
// unallocated memory return zeros, like reads of uninitialized RAM. Accesses
// may cross frame boundaries (instruction fetch at arbitrary byte offsets
// requires this).
func (p *Physical) ReadInto(pa uint64, out []byte) {
	n := len(out)
	for i := 0; i < n; {
		f := p.frame(pa + uint64(i))
		off := int(PageOffset(pa + uint64(i)))
		chunk := PageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if f != nil {
			copy(out[i:i+chunk], f.Data[off:off+chunk])
		} else {
			for j := i; j < i+chunk; j++ {
				out[j] = 0
			}
		}
		i += chunk
	}
}

// WriteBytes writes b starting at physical address pa. Writes to unallocated
// frames allocate them, so the harness can treat physical memory as flat.
// Every touched frame's Version is bumped.
func (p *Physical) WriteBytes(pa uint64, b []byte) {
	for i := 0; i < len(b); {
		pfn := PFNOf(pa + uint64(i))
		f := p.frames[pfn]
		if f == nil {
			f = new(Frame)
			p.frames[pfn] = f
		}
		off := int(PageOffset(pa + uint64(i)))
		chunk := PageSize - off
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(f.Data[off:off+chunk], b[i:i+chunk])
		f.Version++
		i += chunk
	}
}

// Read64 reads a little-endian 64-bit value at pa.
func (p *Physical) Read64(pa uint64) uint64 {
	if off := PageOffset(pa); off <= PageSize-8 {
		f := p.frame(pa)
		if f == nil {
			return 0
		}
		b := f.Data[off : off+8 : off+8]
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	var b [8]byte
	p.ReadInto(pa, b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Write64 writes a little-endian 64-bit value at pa.
func (p *Physical) Write64(pa, v uint64) {
	if off := PageOffset(pa); off <= PageSize-8 {
		pfn := PFNOf(pa)
		f := p.frames[pfn]
		if f == nil {
			f = new(Frame)
			p.frames[pfn] = f
		}
		b := f.Data[off : off+8 : off+8]
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		b[4] = byte(v >> 32)
		b[5] = byte(v >> 40)
		b[6] = byte(v >> 48)
		b[7] = byte(v >> 56)
		f.Version++
		return
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	p.WriteBytes(pa, b[:])
}

// PTE is a page-table entry.
type PTE struct {
	PFN  uint64
	Perm Perm
}

// AddrSpace is a per-process page table.
type AddrSpace struct {
	pages map[uint64]PTE
	epoch uint64
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{pages: make(map[uint64]PTE)}
}

// TranslationEpoch returns the translation epoch: a counter bumped whenever
// an existing translation changes. Caches of *successful* translation
// results (the pipeline's fetch and data-translation caches) compare it to
// detect remaps in O(1) instead of re-walking the page table. Mapping a
// previously-unmapped page does not bump it: no cached success can be
// affected, and faults are never cached.
func (a *AddrSpace) TranslationEpoch() uint64 { return a.epoch }

// Clone returns a copy of the page table and its translation epoch. It only
// reads a.
func (a *AddrSpace) Clone() *AddrSpace {
	return &AddrSpace{pages: maps.Clone(a.pages), epoch: a.epoch}
}

// Map installs a mapping from the virtual page containing va to pfn.
func (a *AddrSpace) Map(va, pfn uint64, perm Perm) {
	vpn := VPN(va)
	pte := PTE{PFN: pfn, Perm: perm}
	if old, ok := a.pages[vpn]; ok && old != pte {
		a.epoch++
	}
	a.pages[vpn] = pte
}

// Lookup returns the PTE for the page containing va.
func (a *AddrSpace) Lookup(va uint64) (PTE, bool) {
	pte, ok := a.pages[VPN(va)]
	return pte, ok
}

// Translate translates va for the given access kind. On success it returns
// the physical address and FaultNone; an access the page's permissions deny
// reports FaultProtection.
func (a *AddrSpace) Translate(va uint64, acc Access) (uint64, Fault) {
	pte, ok := a.pages[VPN(va)]
	if !ok {
		return 0, FaultNotMapped
	}
	switch acc {
	case AccessRead:
		if pte.Perm&PermR == 0 {
			return 0, FaultProtection
		}
	case AccessWrite:
		if pte.Perm&PermW == 0 {
			return 0, FaultProtection
		}
	case AccessExec:
		if pte.Perm&PermX == 0 {
			return 0, FaultProtection
		}
	}
	return pte.PFN<<PageShift | PageOffset(va), FaultNone
}

// TLB is a small fully-associative translation cache with FIFO replacement.
// It exists for timing and the PMC instruction-TLB events; translations are
// always verified against the page table by the caller on miss.
//
// A one-entry memo in front of the map serves the common case — consecutive
// instruction fetches and repeated data touches within one page — without a
// map access. The memo is a pure cache of map content: hit/miss results and
// FIFO eviction order are identical with or without it.
type TLB struct {
	size int
	// order is a fixed ring of vpns in insertion order: head indexes the
	// oldest entry, n counts live ones. A ring instead of a sliding slice
	// keeps steady-state eviction allocation-free — the probe-sweep hot
	// loop evicts on every insert.
	order   []uint64
	head    int
	n       int
	entries map[uint64]uint64

	lastVPN uint64
	lastPFN uint64
	lastOK  bool
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(size int) *TLB {
	return &TLB{size: size, order: make([]uint64, size), entries: make(map[uint64]uint64, size)}
}

// Clone returns a copy with the same contents, FIFO order and last-hit
// memo. It only reads t.
func (t *TLB) Clone() *TLB {
	c := *t
	c.order = slices.Clone(t.order)
	c.entries = maps.Clone(t.entries)
	return &c
}

// Lookup returns the cached pfn for va's page.
func (t *TLB) Lookup(va uint64) (uint64, bool) {
	vpn := VPN(va)
	if t.lastOK && vpn == t.lastVPN {
		return t.lastPFN, true
	}
	pfn, ok := t.entries[vpn]
	if ok {
		t.lastVPN, t.lastPFN, t.lastOK = vpn, pfn, true
	}
	return pfn, ok
}

// Insert caches a translation.
func (t *TLB) Insert(va, pfn uint64) {
	vpn := VPN(va)
	if _, ok := t.entries[vpn]; ok {
		t.entries[vpn] = pfn
		if t.lastOK && t.lastVPN == vpn {
			t.lastPFN = pfn
		}
		return
	}
	if t.n >= t.size {
		oldest := t.order[t.head]
		delete(t.entries, oldest)
		if t.lastOK && t.lastVPN == oldest {
			t.lastOK = false
		}
		t.order[t.head] = vpn
		t.head++
		if t.head == t.size {
			t.head = 0
		}
	} else {
		i := t.head + t.n
		if i >= t.size {
			i -= t.size
		}
		t.order[i] = vpn
		t.n++
	}
	t.entries[vpn] = pfn
	t.lastVPN, t.lastPFN, t.lastOK = vpn, pfn, true
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	t.head, t.n = 0, 0
	clear(t.entries)
	t.lastOK = false
}
