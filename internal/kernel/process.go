package kernel

import (
	"fmt"

	"zenspec/internal/isa"
	"zenspec/internal/mem"
)

// Process is a schedulable context with a private address space.
type Process struct {
	ID     int
	Name   string
	Domain Domain
	AS     *mem.AddrSpace
	Regs   [isa.NumRegs]uint64

	kernel *Kernel
}

// Translate implements pipeline.MMU.
func (p *Process) Translate(va uint64, acc mem.Access) (uint64, mem.Fault) {
	return p.AS.Translate(va, acc)
}

// TranslationEpoch exposes the address space's remap counter, letting the
// pipeline's fetch cache validate cached translations in O(1).
func (p *Process) TranslationEpoch() uint64 { return p.AS.TranslationEpoch() }

// MapCode maps code at va (read+exec) on freshly allocated frames.
func (p *Process) MapCode(va uint64, code []byte) {
	p.mapRange(va, uint64(len(code)), mem.PermR|mem.PermX, nil)
	p.WriteBytes(va, code)
}

// MapCodeFrames maps code at va onto the given physical frames (one per
// page) — the PTEditor-grade control the reverse-engineering harness uses to
// construct instruction physical addresses with chosen hash values.
func (p *Process) MapCodeFrames(va uint64, code []byte, pfns []uint64) error {
	pages := int((uint64(len(code)) + mem.PageSize - 1) / mem.PageSize)
	if pages > len(pfns) {
		return fmt.Errorf("kernel: need %d frames, got %d", pages, len(pfns))
	}
	for i := 0; i < pages; i++ {
		if !p.kernel.phys.Allocated(pfns[i]) {
			if err := p.kernel.phys.AllocFrameAt(pfns[i]); err != nil {
				return err
			}
		}
		p.AS.Map(va+uint64(i)*mem.PageSize, pfns[i], mem.PermR|mem.PermX)
	}
	p.WriteBytes(va, code)
	return nil
}

// MapData maps size bytes of read-write data at va.
func (p *Process) MapData(va, size uint64) {
	p.mapRange(va, size, mem.PermRW, nil)
}

func (p *Process) mapRange(va, size uint64, perm mem.Perm, pfns []uint64) {
	end := va + size
	for a := va &^ uint64(mem.PageMask); a < end; a += mem.PageSize {
		if _, ok := p.AS.Lookup(a); !ok {
			p.AS.Map(a, p.kernel.phys.AllocFrame(), perm)
		}
	}
}

// MmapShared maps the physical frames backing other's [otherVA, otherVA+size)
// into p at va — the shared-memory setup of the in-place cross-domain
// experiments (same IPA, possibly different IVA).
func (p *Process) MmapShared(va uint64, other *Process, otherVA, size uint64, perm mem.Perm) error {
	pages := (size + mem.PageSize - 1) / mem.PageSize
	for i := uint64(0); i < pages; i++ {
		pte, ok := other.AS.Lookup(otherVA + i*mem.PageSize)
		if !ok {
			return fmt.Errorf("kernel: source page %#x not mapped", otherVA+i*mem.PageSize)
		}
		p.AS.Map(va+i*mem.PageSize, pte.PFN, perm)
	}
	return nil
}

// IPA translates an instruction virtual address to its physical address —
// the PTEditor capability (root only in the paper's threat model).
func (p *Process) IPA(va uint64) (uint64, error) {
	pa, f := p.AS.Translate(va, mem.AccessExec)
	if f != mem.FaultNone {
		pa, f = p.AS.Translate(va, mem.AccessRead)
	}
	if f != mem.FaultNone {
		return 0, fmt.Errorf("kernel: translate %#x: %v", va, f)
	}
	return pa, nil
}

// WriteBytes writes through the page table into physical memory.
func (p *Process) WriteBytes(va uint64, b []byte) {
	for i := 0; i < len(b); {
		pa, f := p.AS.Translate(va+uint64(i), mem.AccessRead)
		if f != mem.FaultNone {
			panic(fmt.Sprintf("kernel: WriteBytes unmapped va %#x", va+uint64(i)))
		}
		chunk := int(mem.PageSize - mem.PageOffset(va+uint64(i)))
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		p.kernel.phys.WriteBytes(pa, b[i:i+chunk])
		i += chunk
	}
}

// Write64 writes an 8-byte value at va.
func (p *Process) Write64(va, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	p.WriteBytes(va, b[:])
}

// FlushLine flushes va's cache line (a host-side clflush for harness setup).
func (p *Process) FlushLine(va uint64) {
	if pa, f := p.AS.Translate(va, mem.AccessRead); f == mem.FaultNone {
		p.kernel.caches.Flush(pa)
	}
}

// WarmLine fills va's cache line.
func (p *Process) WarmLine(va uint64) {
	if pa, f := p.AS.Translate(va, mem.AccessRead); f == mem.FaultNone {
		p.kernel.caches.Touch(pa)
	}
}

func (p *Process) String() string {
	return fmt.Sprintf("proc{%d %s %s}", p.ID, p.Name, p.Domain)
}
