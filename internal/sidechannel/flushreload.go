// Package sidechannel implements the cache covert channels the paper's
// attacks use to recover transiently accessed data: Flush+Reload [50] over
// the simulated cache hierarchy, with an RDPRU-timed reload loop running on
// the simulated CPU (so timer mitigations degrade it realistically).
package sidechannel

import (
	"fmt"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
)

// FlushReload probes a region of `entries` slots, each one page apart (the
// paper's array2[value * 4096] encoding), and recovers which slot a victim
// touched.
type FlushReload struct {
	K       *kernel.Kernel
	P       *kernel.Process
	CPU     int
	ProbeVA uint64
	Entries int
	Stride  uint64

	codeVA    uint64
	threshold uint64
	hitsBuf   []int // reused by Reload across sweeps
}

// New maps the timing routine into p and calibrates the hit/miss threshold.
// The probe region itself must already be mapped (it is usually the victim's
// array, shared with or reachable by the attacker).
func New(k *kernel.Kernel, p *kernel.Process, cpu int, probeVA uint64, entries int, codeVA uint64) *FlushReload {
	f := &FlushReload{
		K: k, P: p, CPU: cpu,
		ProbeVA: probeVA, Entries: entries, Stride: mem.PageSize,
		codeVA: codeVA,
	}
	b := asm.NewBuilder()
	b.Rdpru(isa.R10)
	b.Load(isa.R8, isa.RDI, 0)
	b.Rdpru(isa.R11)
	b.Sub(isa.RAX, isa.R11, isa.R10)
	b.Halt()
	p.MapCode(codeVA, b.MustAssemble(codeVA))
	f.calibrate()
	return f
}

// Time measures one access to va on the simulated CPU.
func (f *FlushReload) Time(va uint64) uint64 {
	f.P.Regs = [isa.NumRegs]uint64{}
	f.P.Regs[isa.RDI] = va
	res := f.K.RunOn(f.CPU, f.P, f.codeVA, 0)
	if res.Stop != pipeline.StopHalt {
		panic(fmt.Sprintf("sidechannel: timing routine stopped with %v", res.Stop))
	}
	return f.P.Regs[isa.RAX]
}

func (f *FlushReload) calibrate() {
	va := f.ProbeVA
	f.P.WarmLine(va)
	f.Time(va) // warm the code path / ITLB
	// Median of three readings per class: a single stray eviction (fault
	// injection) or jittered timer reading must not skew the threshold for
	// the whole run. The line state is re-forced before every reading, and
	// the slot ends flushed either way.
	var hits, misses [3]uint64
	for i := range hits {
		f.P.WarmLine(va)
		hits[i] = f.Time(va)
	}
	for i := range misses {
		f.P.FlushLine(va)
		misses[i] = f.Time(va)
	}
	f.P.FlushLine(va)
	hit := median3(hits)
	miss := median3(misses)
	f.threshold = (hit + miss) / 2
	if f.threshold <= hit {
		f.threshold = hit + 1
	}
}

// median3 returns the middle of three values.
func median3(v [3]uint64) uint64 {
	a, b, c := v[0], v[1], v[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// slot returns the address of probe slot v.
func (f *FlushReload) slot(v int) uint64 { return f.ProbeVA + uint64(v)*f.Stride }

// FlushAll evicts every probe slot (the Flush phase).
//
// Every slot is flushed unconditionally even when its line is already absent:
// cache.Flush counts the flush in the hierarchy's statistics and emits a
// cache event per probed line, so skipping "redundant" flush passes would
// change the metrics reports and recorded traces for an identical attack.
func (f *FlushReload) FlushAll() {
	for v := 0; v < f.Entries; v++ {
		f.P.FlushLine(f.slot(v))
	}
}

// emitProbe reports one timed slot's verdict on the machine's event bus.
func (f *FlushReload) emitProbe(slot int, va, t uint64, hit bool) {
	bus := f.K.Bus()
	if bus.On(obs.ClassProbe) {
		obs.Emit(bus, obs.ProbeEvent{
			CPU: f.CPU, Cycle: bus.Now(), Slot: slot, VA: va,
			Cycles: t, Threshold: f.threshold, Hit: hit,
		})
	}
}

// Reload times every slot and returns the indices that hit (the Reload
// phase). The scan itself refills lines, so each round must FlushAll first.
// The returned slice is reused by the next Reload on this FlushReload; copy
// it to retain hits across sweeps.
func (f *FlushReload) Reload() []int {
	hits := f.hitsBuf[:0]
	for v := 0; v < f.Entries; v++ {
		va := f.slot(v)
		t := f.Time(va)
		hit := t < f.threshold
		f.emitProbe(v, va, t, hit)
		if hit {
			hits = append(hits, v)
		}
	}
	f.hitsBuf = hits
	return hits
}

// Recover runs Reload and returns the best candidate, ignoring the indices
// in exclude (slots known to be architecturally polluted). ok is false when
// no non-excluded slot hit.
func (f *FlushReload) Recover(exclude map[int]bool) (int, bool) {
	best, bestTime := -1, ^uint64(0)
	for v := 0; v < f.Entries; v++ {
		if exclude[v] {
			continue
		}
		va := f.slot(v)
		t := f.Time(va)
		hit := t < f.threshold
		f.emitProbe(v, va, t, hit)
		if hit && t < bestTime {
			best, bestTime = v, t
		}
	}
	return best, best >= 0
}
