package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
)

// nopPair is two cores built the same way and fed the same runs. fast is
// unobserved, so runs of NOPs retire in closed form; ref has a ClassInst
// observer, so every NOP steps through dispatch and retire on its own. Each
// core has its own Stop counter so poll counts can be compared.
type nopPair struct {
	fast, ref *env
	polls     [2]int
	refTrans  int // transient instruction events the reference observer saw
}

// newNOPPair builds the pair. stopAt < 0 leaves Config.Stop nil; otherwise
// Stop counts its polls and fires on poll stopAt (never when stopAt is 0).
func newNOPPair(t testing.TB, cfg Config, stopAt int) *nopPair {
	p := &nopPair{}
	for i, dst := range []**env{&p.fast, &p.ref} {
		c := cfg
		if stopAt >= 0 {
			c.Stop = func() bool {
				p.polls[i]++
				return p.polls[i] == stopAt
			}
		}
		*dst = newEnv(t, c)
	}
	// The fast core gets a bus too, with nothing subscribed, so its
	// StampCycle clock can be compared.
	p.fast.core.AttachBus(obs.NewBus(), 0)
	bus := obs.NewBus()
	bus.Subscribe(obs.ObserverFunc(func(e obs.Event) {
		if e.(obs.InstEvent).Transient {
			p.refTrans++
		}
	}), obs.Options{Classes: []obs.Class{obs.ClassInst}})
	p.ref.core.AttachBus(bus, 0)
	return p
}

// mapProgram maps code at va and two data pages at dataBase on both cores.
// The second data page stays cold, so loads from it miss.
func (p *nopPair) mapProgram(va uint64, code []byte) {
	for _, e := range []*env{p.fast, p.ref} {
		e.mapCode(va, code)
		e.mapData(dataBase, 2*mem.PageSize)
		pa, _ := e.as.Translate(dataBase, mem.AccessRead)
		e.ch.Touch(pa)
	}
}

// runCatch runs once, turning a Stop cancellation into a flag.
func runCatch(e *env, entry uint64, regs [isa.NumRegs]uint64, maxInsts uint64) (res RunResult, out [isa.NumRegs]uint64, cancelled bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrCancelled {
				panic(r)
			}
			cancelled = true
		}
	}()
	res = e.core.Run(e.as, entry, &regs, maxInsts)
	return res, regs, false
}

// check makes the same Run on both cores and fails on any difference in
// what it leaves behind: the result, registers, clock, every PMC, the whole
// run state (fetch position, ROB ring, retire frontier) and the ITLB. It
// returns the fast core's result.
func (p *nopPair) check(t testing.TB, entry uint64, regs [isa.NumRegs]uint64, maxInsts uint64) RunResult {
	t.Helper()
	fres, fregs, fcan := runCatch(p.fast, entry, regs, maxInsts)
	rres, rregs, rcan := runCatch(p.ref, entry, regs, maxInsts)
	f, r := p.fast.core, p.ref.core
	switch {
	case fcan != rcan:
		t.Fatalf("cancelled: fast %v, reference %v", fcan, rcan)
	case !reflect.DeepEqual(fres, rres):
		t.Fatalf("RunResult differs:\nfast %+v\nref  %+v", fres, rres)
	case fregs != rregs:
		t.Fatalf("registers differ:\nfast %v\nref  %v", fregs, rregs)
	case f.Cycle() != r.Cycle():
		t.Fatalf("Cycle: fast %d, reference %d", f.Cycle(), r.Cycle())
	case f.PMC().Snapshot() != r.PMC().Snapshot():
		t.Fatalf("PMCs differ:\nfast %v\nref  %v", f.PMC().Snapshot(), r.PMC().Snapshot())
	case !reflect.DeepEqual(f.runSt, r.runSt):
		t.Fatalf("run state differs:\nfast %+v\nref  %+v", *f.runSt, *r.runSt)
	case !reflect.DeepEqual(f.itlb, r.itlb):
		t.Fatal("ITLB state differs")
	case f.Bus().Now() != r.Bus().Now():
		t.Fatalf("bus clock: fast %d, reference %d", f.Bus().Now(), r.Bus().Now())
	case p.polls[0] != p.polls[1]:
		t.Fatalf("Stop polls: fast %d, reference %d", p.polls[0], p.polls[1])
	}
	return fres
}

// nops appends n NOPs.
func nops(b *asm.Builder, n int) *asm.Builder {
	for i := 0; i < n; i++ {
		b.Nop()
	}
	return b
}

// stldRegs are the stld microbenchmark's inputs; aliasing points the load at
// the store's address.
func stldRegs(aliasing bool) (regs [isa.NumRegs]uint64) {
	regs[isa.RDI] = dataBase
	regs[isa.RSI] = dataBase + 0x800
	if aliasing {
		regs[isa.RSI] = dataBase
	}
	regs[isa.R9] = 0xdd
	regs[isa.R13] = dataBase + mem.PageSize
	return regs
}

func TestNOPRunsMatchStepping(t *testing.T) {
	// The hash-placed stld: page-0 padding so the STORE ends the page.
	stldPad := (mem.PageSize - isa.InstBytes - asm.BuildStld(asm.StldOptions{}).StoreOff) / isa.InstBytes

	t.Run("stld-hash-layout", func(t *testing.T) {
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(codeBase, asm.BuildStld(asm.StldOptions{PadStart: stldPad}).Code)
		for _, a := range []bool{false, true, false, false, false, true, true, false} {
			p.check(t, codeBase, stldRegs(a), 0)
		}
	})

	t.Run("behind-imul-chain-and-cache-miss", func(t *testing.T) {
		// The IMUL chain and then the missing load retire long after the
		// NOPs behind them dispatch.
		b := asm.NewBuilder().Movi(isa.R12, 1).Mov(isa.RBX, isa.RDI)
		for i := 0; i < 20; i++ {
			b.Imul(isa.RBX, isa.RBX, isa.R12)
		}
		nops(b, 64).Load(isa.R8, isa.R13, 0)
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(codeBase, nops(b, 300).Halt().MustAssemble(codeBase))
		for i := 0; i < 3; i++ {
			p.check(t, codeBase, stldRegs(false), 0)
		}
	})

	for _, cfg := range []Config{{ROBSize: 16}, {ROBSize: 2, FetchWidth: 4}, {ROBSize: 5, FetchWidth: 3}} {
		t.Run(fmt.Sprintf("rob-%d-fetch-%d", cfg.ROBSize, cfg.FetchWidth), func(t *testing.T) {
			// The run crosses into a page the ITLB misses on, which moves
			// fetch past the retire frontier in the middle of a cycle.
			entry := uint64(codeBase + mem.PageSize - 8*isa.InstBytes)
			b := asm.NewBuilder().Load(isa.R8, isa.R13, 0)
			p := newNOPPair(t, cfg, -1)
			p.mapProgram(entry, nops(b, 200).Halt().MustAssemble(entry))
			p.check(t, entry, stldRegs(false), 0)
		})
	}

	t.Run("fence-behind-bunched-retire", func(t *testing.T) {
		// The missing load, the two IMULs behind it and the LFENCE fill a
		// 4-entry ROB and all retire in the cycle the LFENCE releases fetch
		// to, so the first NOP still waits a cycle on the ROB.
		b := asm.NewBuilder().Movi(isa.R12, 1).Mov(isa.RBX, isa.RDI).Load(isa.R8, isa.R13, 0)
		b.Imul(isa.RBX, isa.RBX, isa.R12).Imul(isa.RBX, isa.RBX, isa.R12).Lfence()
		p := newNOPPair(t, Config{ROBSize: 4}, -1)
		p.mapProgram(codeBase, nops(b, 100).Halt().MustAssemble(codeBase))
		p.check(t, codeBase, stldRegs(false), 0)
	})

	t.Run("page-crossing", func(t *testing.T) {
		entry := uint64(codeBase + mem.PageSize - 10*isa.InstBytes)
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(entry, nops(asm.NewBuilder(), 100).Halt().MustAssemble(entry))
		p.check(t, entry, stldRegs(false), 0)
	})

	t.Run("misaligned-entry", func(t *testing.T) {
		// Code sliding: the slot straddling the page boundary is fetched
		// from both pages, the rest at an odd alignment on each.
		entry := uint64(codeBase + mem.PageSize - 40*isa.InstBytes + 3)
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(entry, nops(asm.NewBuilder(), 80).Halt().MustAssemble(entry))
		for i := 0; i < 2; i++ {
			p.check(t, entry, stldRegs(false), 0)
		}
	})

	t.Run("inst-limit-mid-run", func(t *testing.T) {
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(codeBase, nops(asm.NewBuilder(), 1000).Halt().MustAssemble(codeBase))
		pc, regs := uint64(codeBase), stldRegs(false)
		for steps := 0; ; steps++ {
			res := p.check(t, pc, regs, 300)
			if res.Stop == StopHalt {
				break
			}
			if res.Stop != StopInstLimit || steps > 4 {
				t.Fatalf("step %d stopped with %v", steps, res.Stop)
			}
			pc = res.EndPC
		}
	})

	loop := func() []byte {
		b := asm.NewBuilder().Movi(isa.RCX, 6).Label("loop")
		nops(b, 700).Subi(isa.RCX, isa.RCX, 1).Jnz(isa.RCX, "loop")
		return b.Halt().MustAssemble(codeBase)
	}
	t.Run("stop-polls", func(t *testing.T) {
		p := newNOPPair(t, Config{}, 0)
		p.mapProgram(codeBase, loop())
		p.check(t, codeBase, stldRegs(false), 0)
		if p.polls[0] != 5 {
			t.Fatalf("a 4214-instruction run polled Stop %d times, want 5", p.polls[0])
		}
	})
	t.Run("stop-fires-mid-run", func(t *testing.T) {
		p := newNOPPair(t, Config{}, 3)
		p.mapProgram(codeBase, loop())
		p.check(t, codeBase, stldRegs(false), 0)
		if p.fast.core.runSt.insts != 2*stopCheckInterval {
			t.Fatalf("cancelled at instruction %d, want %d", p.fast.core.runSt.insts, 2*stopCheckInterval)
		}
	})

	t.Run("transient-window", func(t *testing.T) {
		// An aliasing bypass (type G) runs the NOPs behind the load
		// transiently, then again architecturally after the replay.
		b := asm.NewBuilder().Movi(isa.R12, 1).Mov(isa.RBX, isa.RDI)
		for i := 0; i < 20; i++ {
			b.Imul(isa.RBX, isa.RBX, isa.R12)
		}
		b.Store(isa.RBX, 0, isa.R9).Load(isa.R8, isa.RSI, 0)
		nops(b, 40).Load(isa.R10, isa.R8, 0)
		p := newNOPPair(t, Config{}, -1)
		p.mapProgram(codeBase, nops(b, 40).Halt().MustAssemble(codeBase))
		for _, a := range []bool{false, true, true, false} {
			p.check(t, codeBase, stldRegs(a), 0)
		}
		if p.refTrans == 0 {
			t.Fatal("no transient instructions ran; the case does not open a window")
		}
	})
}

// nopProgram turns fuzz bytes into a program heavy in NOP runs, each byte
// one item: a run of 1-497 NOPs (3 in 8 bytes), an IMUL chain on the store
// address, the store, an aliasing-or-not load, a cold missing load, a fence,
// RDPRU, or a branch on the loaded value over the next item.
func nopProgram(ops []byte, base uint64) []byte {
	b := asm.NewBuilder().Movi(isa.R12, 1).Mov(isa.RBX, isa.RDI)
	pending := ""
	for i, op := range ops {
		arg := int(op >> 3)
		switch op % 8 {
		case 0, 1, 2:
			nops(b, 1+arg*16)
		case 3:
			for j := 0; j <= arg%24; j++ {
				b.Imul(isa.RBX, isa.RBX, isa.R12)
			}
		case 4:
			b.Store(isa.RBX, 0, isa.R9)
		case 5:
			b.Load(isa.R8, isa.RSI, 0)
		case 6:
			b.Load(isa.R10, isa.R13, int32(arg%8)*64)
		case 7:
			switch arg % 4 {
			case 0:
				b.Lfence()
			case 1:
				b.Mfence()
			case 2:
				b.Rdpru(isa.R11)
			case 3:
				if pending == "" {
					pending = fmt.Sprintf("skip%d", i)
					b.Jnz(isa.R8, pending)
					continue
				}
			}
		}
		if pending != "" {
			b.Label(pending)
			pending = ""
		}
	}
	if pending != "" {
		b.Label(pending)
	}
	return b.Halt().MustAssemble(base)
}

// FuzzNOPRuns searches for a program, placement and core shape on which
// closed-form NOP retirement leaves any state different from stepping.
func FuzzNOPRuns(f *testing.F) {
	// Seeds mirror TestNOPRunsMatchStepping's cases.
	stldLike := []byte{0xf0, 0xf0, 0xf0, 0x7b, 0x04, 0x05, 0x00}
	f.Add(stldLike, uint16(0x100), uint8(0), uint8(0), uint8(0), uint16(0), int8(-1), true)
	f.Add([]byte{0x9b, 0x20, 0x06, 0xf8, 0x00}, uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), int8(-1), false)
	f.Add([]byte{0x06, 0x60}, uint16(mem.PageSize-80), uint8(16), uint8(0), uint8(0), uint16(0), int8(-1), false)
	f.Add([]byte{0x06, 0x60}, uint16(mem.PageSize-80), uint8(2), uint8(4), uint8(1), uint16(0), int8(-1), false)
	f.Add([]byte{0x06, 0x0b, 0x07, 0x60}, uint16(0), uint8(4), uint8(0), uint8(0), uint16(0), int8(-1), false)
	f.Add([]byte{0x30}, uint16(mem.PageSize-80), uint8(0), uint8(0), uint8(0), uint16(0), int8(-1), false)
	f.Add([]byte{0x28}, uint16(mem.PageSize-317), uint8(0), uint8(0), uint8(2), uint16(0), int8(-1), false)
	f.Add([]byte{0xf8, 0xf8, 0x08}, uint16(0), uint8(0), uint8(0), uint8(0), uint16(300), int8(-1), false)
	f.Add([]byte{0xf8, 0xf8, 0xf8, 0xf8, 0xf8}, uint16(8), uint8(0), uint8(0), uint8(0), uint16(0), int8(0), false)
	f.Add([]byte{0xf8, 0xf8, 0xf8, 0xf8, 0xf8}, uint16(8), uint8(0), uint8(0), uint8(0), uint16(0), int8(2), false)
	f.Add([]byte{0x9b, 0x04, 0x05, 0x48, 0x1f, 0x48, 0x06}, uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), int8(-1), true)
	f.Fuzz(func(t *testing.T, ops []byte, place uint16, rob, width, itlb uint8, maxInsts uint16, stopAt int8, aliasing bool) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		cfg := Config{ROBSize: int(rob), FetchWidth: int(width % 9), ITLBSize: int(itlb % 4)}
		entry := codeBase + uint64(place)%mem.PageSize
		p := newNOPPair(t, cfg, int(stopAt))
		p.mapProgram(entry, nopProgram(ops, entry))
		for i := 0; i < 3; i++ {
			if res := p.check(t, entry, stldRegs(aliasing), uint64(maxInsts)); res.Stop == StopFault {
				t.Fatalf("generated program faulted: %+v", res)
			}
		}
	})
}
