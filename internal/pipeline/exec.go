package pipeline

import (
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

type outKind uint8

const (
	oOK outKind = iota
	oHalt
	oSyscall
	oFault
)

type outcome struct {
	kind    outKind
	fault   mem.Fault
	faultVA uint64
}

// episodeCtx is present while executing inside a transient window.
type episodeCtx struct {
	verifyTime int64 // the squash point: no dispatch at or beyond this time
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fetchInst translates and reads the instruction at st.pc, applying ITLB
// timing and the Fig 2 instruction-fetch PMC event. The fast path serves the
// decoded-page cache: a hit skips the page walk, the byte copy and the
// decode, but still performs the exact ITLB timing and PMC accounting of a
// full fetch, so cached and uncached runs are cycle-identical.
func (c *Core) fetchInst(mmu MMU, st *runState) (isa.Inst, uint64, mem.Fault) {
	pc := st.pc
	if c.fetchOK {
		vpn := mem.VPN(pc)
		e := &c.fetchCache[vpn&(fetchCacheSize-1)]
		off := mem.PageOffset(pc)
		if e.gen == c.fetchGen && e.vpn == vpn && e.frame.Version == e.fver &&
			off&(isa.InstBytes-1) == e.align && off <= mem.PageSize-isa.InstBytes {
			pa := e.paBase | off
			if _, hit := c.itlb.Lookup(pc); hit {
				c.pmcs.Inc(pmc.ITLBHit4K)
			} else {
				c.itlb.Insert(pc, mem.PFNOf(pa))
				st.fetchCycle += int64(c.cfg.TLBMissPenalty)
			}
			in := e.insts[off>>3]
			if in.Op == opUndecoded {
				in = isa.Decode(e.frame.Data[off : off+isa.InstBytes])
				e.insts[off>>3] = in
			}
			return in, pa, mem.FaultNone
		}
	}
	return c.fetchSlow(mmu, st, pc)
}

// opUndecoded marks a decoded-page slot not yet demand-decoded. isa.Decode
// can never produce it (invalid opcodes decode to BAD), so the sentinel
// cannot collide with real code. Slots decode on first execution rather
// than in a batch when the page enters the cache: pages are cached at page
// granularity but mitigation-heavy workloads remap constantly, and eagerly
// decoding 512 slots per refill made those runs slower than no cache at
// all.
const opUndecoded isa.Op = 0xFF

// undecodedPage is the refill image: every slot carries the sentinel.
var undecodedPage = func() (p [pageInsts]isa.Inst) {
	for i := range p {
		p[i].Op = opUndecoded
	}
	return
}()

// fetchSlow is the uncached fetch: translate, read, decode, and (when the
// cache is armed and the fetch is cacheable) claim the page's cache slot,
// decoding the fetched instruction and marking the rest of the page for
// demand decode. Page-crossing (misaligned) fetches and fetches from
// unallocated frames are never cached.
func (c *Core) fetchSlow(mmu MMU, st *runState, pc uint64) (isa.Inst, uint64, mem.Fault) {
	pa, f := mmu.Translate(pc, mem.AccessExec)
	if f != mem.FaultNone {
		return isa.Inst{}, 0, f
	}
	if _, hit := c.itlb.Lookup(pc); hit {
		c.pmcs.Inc(pmc.ITLBHit4K)
	} else {
		c.itlb.Insert(pc, mem.PFNOf(pa))
		st.fetchCycle += int64(c.cfg.TLBMissPenalty)
	}
	first := mem.PageSize - mem.PageOffset(pc)
	if first < isa.InstBytes {
		// Misaligned fetch crossing a page boundary: assemble the bytes
		// from both pages and decode without caching.
		var buf [isa.InstBytes]byte
		c.phys.ReadInto(pa, buf[:first])
		pa2, f2 := mmu.Translate(pc+first, mem.AccessExec)
		if f2 != mem.FaultNone {
			return isa.Inst{}, 0, f2
		}
		c.phys.ReadInto(pa2, buf[first:])
		return isa.Decode(buf[:]), pa, mem.FaultNone
	}
	fr := c.phys.FrameAt(pa)
	if fr == nil {
		// Unallocated frames read as zeros (like ReadInto) and are not
		// cached: allocation would change them without a version bump.
		return isa.Decode(make([]byte, isa.InstBytes)), pa, mem.FaultNone
	}
	off := mem.PageOffset(pc)
	if !c.fetchOK {
		return isa.Decode(fr.Data[off : off+isa.InstBytes]), pa, mem.FaultNone
	}
	vpn := mem.VPN(pc)
	e := &c.fetchCache[vpn&(fetchCacheSize-1)]
	if e.insts == nil {
		e.insts = new([pageInsts]isa.Inst)
	}
	align := off & (isa.InstBytes - 1)
	*e.insts = undecodedPage
	e.insts[off>>3] = isa.Decode(fr.Data[off : off+isa.InstBytes])
	e.vpn = vpn
	e.paBase = pa &^ uint64(mem.PageMask)
	e.fver = fr.Version
	e.gen = c.fetchGen
	e.align = align
	e.frame = fr
	return e.insts[off>>3], pa, mem.FaultNone
}

func (c *Core) mainLoop(mmu MMU, st *runState, maxInsts uint64) RunResult {
	start := st.lastRetire
	var res RunResult
	// The subscription mask is hoisted out of the loop: the Bus contract says
	// subscriptions are installed between runs, never concurrently with one.
	instOn := c.bus.On(obs.ClassInst)
	stop := c.cfg.Stop
	for {
		if st.insts >= maxInsts {
			res.Stop = StopInstLimit
			break
		}
		if stop != nil && st.insts%stopCheckInterval == 0 && stop() {
			panic(ErrCancelled)
		}
		// The decoded-page hit path is open-coded here (and in runEpisode):
		// fetchInst is too big for the inliner, and a per-instruction call
		// was the single largest line in the fig11 profile. The logic must
		// stay byte-for-byte equivalent to fetchInst's fast path.
		var (
			in  isa.Inst
			ipa uint64
			hot bool
		)
		if c.fetchOK {
			vpn := mem.VPN(st.pc)
			e := &c.fetchCache[vpn&(fetchCacheSize-1)]
			off := mem.PageOffset(st.pc)
			if e.gen == c.fetchGen && e.vpn == vpn && e.frame.Version == e.fver &&
				off&(isa.InstBytes-1) == e.align && off <= mem.PageSize-isa.InstBytes {
				ipa = e.paBase | off
				if _, hit := c.itlb.Lookup(st.pc); hit {
					c.pmcs.Inc(pmc.ITLBHit4K)
				} else {
					c.itlb.Insert(st.pc, mem.PFNOf(ipa))
					st.fetchCycle += int64(c.cfg.TLBMissPenalty)
				}
				in = e.insts[off>>3]
				if in.Op == opUndecoded {
					in = isa.Decode(e.frame.Data[off : off+isa.InstBytes])
					e.insts[off>>3] = in
				}
				if in.Op == isa.NOP && !instOn {
					// Padding retires a run at a time (runState.retireNOPs).
					// The run is the NOP slots that follow on this page, cut
					// at maxInsts and at the next Stop poll so both land on
					// the same instruction as they would one NOP at a time.
					// Every fetch after the first hits the ITLB entry the
					// first one just checked or filled.
					n := uint64(1)
					lim := min(maxInsts-st.insts, stopCheckInterval-st.insts%stopCheckInterval)
					last := (mem.PageSize - isa.InstBytes - e.align) / isa.InstBytes
					for i := off>>3 + 1; n < lim && i <= last; i++ {
						if e.insts[i].Op == opUndecoded {
							o := e.align + i*isa.InstBytes
							e.insts[i] = isa.Decode(e.frame.Data[o : o+isa.InstBytes])
						}
						if e.insts[i].Op != isa.NOP {
							break
						}
						n++
					}
					c.pmcs.Add(pmc.ITLBHit4K, n-1)
					st.pc += n * isa.InstBytes
					st.insts += n
					st.retireNOPs(&c.cfg, int(n))
					c.bus.StampCycle(st.lastRetire)
					continue
				}
				hot = true
			}
		}
		if !hot {
			var f mem.Fault
			in, ipa, f = c.fetchSlow(mmu, st, st.pc)
			if f != mem.FaultNone {
				res.Stop, res.Fault, res.FaultVA, res.FaultPC = StopFault, f, st.pc, st.pc
				break
			}
		}
		pc := st.pc
		st.pc += isa.InstBytes
		st.insts++
		o := c.exec(mmu, st, in, pc, ipa, nil)
		c.bus.StampCycle(st.lastRetire)
		if instOn {
			c.stageInst(st, pc, ipa, in, false)
		}
		if o.kind == oOK {
			continue
		}
		switch o.kind {
		case oHalt:
			res.Stop = StopHalt
		case oSyscall:
			res.Stop = StopSyscall
		case oFault:
			res.Stop, res.Fault, res.FaultVA, res.FaultPC = StopFault, o.fault, o.faultVA, pc
		}
		break
	}
	res.Cycles = st.lastRetire - start
	res.EndPC = st.pc
	res.Insts = st.insts
	if len(st.stlds) > 0 {
		// No copy: the events alias the pooled run state's buffer, which
		// the core's next Run reuses (see RunResult.Stlds).
		res.Stlds = st.stlds
	}
	return res
}

// runEpisode executes the transient window on a cloned state until the
// squash point, the episode cap, or a terminal instruction. Cache fills,
// TLB fills and predictor updates performed inside the episode persist; the
// cloned architectural state is discarded by the caller. The episode's
// store-load speculation events are returned marked transient, along with
// how many wrong-path instructions executed.
func (c *Core) runEpisode(mmu MMU, st *runState, verifyTime int64) ([]StldEvent, int) {
	ep := &episodeCtx{verifyTime: verifyTime}
	executed := 0
	instOn := c.bus.On(obs.ClassInst)
	for steps := 0; steps < c.cfg.EpisodeCap; steps++ {
		if st.fetchCycle >= verifyTime {
			break
		}
		// Open-coded decoded-page hit path; must stay equivalent to
		// fetchInst's fast path (see mainLoop).
		var (
			in  isa.Inst
			ipa uint64
			hot bool
		)
		if c.fetchOK {
			vpn := mem.VPN(st.pc)
			e := &c.fetchCache[vpn&(fetchCacheSize-1)]
			off := mem.PageOffset(st.pc)
			if e.gen == c.fetchGen && e.vpn == vpn && e.frame.Version == e.fver &&
				off&(isa.InstBytes-1) == e.align && off <= mem.PageSize-isa.InstBytes {
				ipa = e.paBase | off
				if _, hit := c.itlb.Lookup(st.pc); hit {
					c.pmcs.Inc(pmc.ITLBHit4K)
				} else {
					c.itlb.Insert(st.pc, mem.PFNOf(ipa))
					st.fetchCycle += int64(c.cfg.TLBMissPenalty)
				}
				in = e.insts[off>>3]
				if in.Op == opUndecoded {
					in = isa.Decode(e.frame.Data[off : off+isa.InstBytes])
					e.insts[off>>3] = in
				}
				hot = true
			}
		}
		if !hot {
			var f mem.Fault
			in, ipa, f = c.fetchSlow(mmu, st, st.pc)
			if f != mem.FaultNone {
				break
			}
		}
		pc := st.pc
		st.pc += isa.InstBytes
		o := c.exec(mmu, st, in, pc, ipa, ep)
		executed++
		if instOn {
			c.stageInst(st, pc, ipa, in, true)
		}
		if o.kind != oOK {
			break
		}
	}
	for i := range st.stlds {
		st.stlds[i].Transient = true
	}
	return st.stlds, executed
}

// stageInst reports the instruction just executed on the bus. It writes the
// event field by field into the bus's staging slot: a composite literal
// would be built on the stack and copied. Every field is written, since the
// slot holds an older event.
func (c *Core) stageInst(st *runState, pc, ipa uint64, in isa.Inst, transient bool) {
	ev := c.bus.NextInst()
	ev.CPU, ev.PC, ev.IPA, ev.Inst = c.cpuID, pc, ipa, in
	ev.Dispatch, ev.Issue, ev.Complete = st.attr.dispatch, st.attr.issue, st.attr.complete
	ev.SQStall, ev.Replay = st.attr.sqStall, st.attr.replay
	ev.RetiredBy, ev.Transient = st.lastRetire, transient
}

// emitSquash reports one completed transient episode on the bus; penalty is
// the refetch delay charged after verify.
func (c *Core) emitSquash(kind obs.SquashKind, pc uint64, start, verify, penalty int64, insts int) {
	if c.bus.On(obs.ClassSquash) {
		c.bus.Emit(obs.SquashEvent{CPU: c.cpuID, Kind: kind, PC: pc, Start: start, Verify: verify, Penalty: penalty, Insts: insts})
	}
}

// translateData translates a data access and returns the extra DTLB-miss
// latency.
func (c *Core) translateData(mmu MMU, va uint64, write bool) (uint64, int64, mem.Fault) {
	pa, f := c.xlate(mmu, va, write)
	if f != mem.FaultNone {
		return 0, 0, f
	}
	var extra int64
	if _, hit := c.dtlb.Lookup(va); !hit {
		extra = int64(c.cfg.TLBMissPenalty)
		c.dtlb.Insert(va, mem.PFNOf(pa))
	}
	return pa, extra, mem.FaultNone
}

// xlate is the page-table walk behind translateData, served from the
// generation-validated translation cache when possible.
func (c *Core) xlate(mmu MMU, va uint64, write bool) (uint64, mem.Fault) {
	k := 0
	if write {
		k = 1
	}
	vpn := mem.VPN(va)
	if c.fetchOK {
		e := &c.xlat[k][vpn&(xlatCacheSize-1)]
		if e.gen == c.fetchGen && e.vpn == vpn {
			return e.pa | mem.PageOffset(va), mem.FaultNone
		}
	}
	acc := mem.AccessRead
	if write {
		acc = mem.AccessWrite
	}
	pa, f := mmu.Translate(va, acc)
	if f != mem.FaultNone {
		return 0, f
	}
	if c.fetchOK {
		c.xlat[k][vpn&(xlatCacheSize-1)] = xlatEntry{vpn: vpn, pa: pa &^ uint64(mem.PageMask), gen: c.fetchGen}
	}
	return pa, mem.FaultNone
}

// transientRead returns the value a bypassing load observes at time t:
// memory with every store whose address is still unresolved at t undone,
// byte by byte (committed stores are already in physical memory; the
// pre-image log reverts the in-flight ones, youngest first).
func (c *Core) transientRead(st *runState, pa uint64, t int64) uint64 {
	var buf [8]byte
	c.phys.ReadInto(pa, buf[:])
	for i := len(st.stores) - 1; i >= 0; i-- {
		s := &st.stores[i]
		if s.addrTime <= t || !overlap8(s.pa, pa) {
			continue
		}
		for b := 0; b < 8; b++ {
			byteAddr := s.pa + uint64(b)
			if byteAddr >= pa && byteAddr < pa+8 {
				buf[byteAddr-pa] = byte(s.oldVal >> (8 * b))
			}
		}
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

func evalALU(op isa.Op, a, b uint64, imm int32) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	case isa.ADDI:
		return a + uint64(int64(imm))
	case isa.SUBI:
		return a - uint64(int64(imm))
	case isa.ANDI:
		return a & uint64(int64(imm))
	case isa.ORI:
		return a | uint64(int64(imm))
	case isa.XORI:
		return a ^ uint64(int64(imm))
	case isa.SHLI:
		return a << (uint32(imm) & 63)
	case isa.SHRI:
		return a >> (uint32(imm) & 63)
	case isa.IMUL:
		return a * b
	}
	return 0
}

// exec processes one instruction, updating the speculative machine state.
// ep is non-nil inside a transient episode.
func (c *Core) exec(mmu MMU, st *runState, in isa.Inst, pc, ipa uint64, ep *episodeCtx) outcome {
	cfg := &c.cfg
	d := st.dispatchSlot(cfg)

	switch in.Op {
	case isa.NOP:
		st.retire(d)
		return outcome{}

	case isa.MOVI:
		issue := acquire(st.ports.alu, d)
		st.attr.issue = issue
		done := issue + int64(cfg.ALULatency)
		st.regs[in.Dst] = uint64(int64(in.Imm))
		st.regTime[in.Dst] = done
		st.bumpDone(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.MOV:
		issue := acquire(st.ports.alu, max64(d, st.regTime[in.Src1]))
		st.attr.issue = issue
		done := issue + int64(cfg.ALULatency)
		st.regs[in.Dst] = st.regs[in.Src1]
		st.regTime[in.Dst] = done
		st.bumpDone(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR:
		ready := max64(d, max64(st.regTime[in.Src1], st.regTime[in.Src2]))
		issue := acquire(st.ports.alu, ready)
		st.attr.issue = issue
		done := issue + int64(cfg.ALULatency)
		st.regs[in.Dst] = evalALU(in.Op, st.regs[in.Src1], st.regs[in.Src2], in.Imm)
		st.regTime[in.Dst] = done
		st.bumpDone(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
		issue := acquire(st.ports.alu, max64(d, st.regTime[in.Src1]))
		st.attr.issue = issue
		done := issue + int64(cfg.ALULatency)
		st.regs[in.Dst] = evalALU(in.Op, st.regs[in.Src1], 0, in.Imm)
		st.regTime[in.Dst] = done
		st.bumpDone(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.IMUL:
		ready := max64(d, max64(st.regTime[in.Src1], st.regTime[in.Src2]))
		issue := acquire(st.ports.mul, ready)
		st.attr.issue = issue
		done := issue + int64(cfg.MulLatency)
		st.regs[in.Dst] = st.regs[in.Src1] * st.regs[in.Src2]
		st.regTime[in.Dst] = done
		st.bumpDone(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.RDPRU:
		// Reads the cycle counter once all older loads have completed —
		// deterministic timing, like the paper's fenced RDPRU usage.
		issue := acquire(st.ports.alu, max64(d, st.maxLoadDone))
		st.attr.issue = issue
		v := issue
		if j := cfg.TimerJitter; j > 0 {
			v += c.jitter.Int63n(2*j+1) - j
		}
		if q := cfg.TimerQuantum; q > 1 {
			v -= v % q
		}
		st.regs[in.Dst] = uint64(v)
		st.regTime[in.Dst] = issue + 1
		st.bumpDone(issue + 1)
		st.retire(issue + 1)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.CLFLUSH:
		va := st.regs[in.Src1] + uint64(int64(in.Imm))
		pa, extra, f := c.translateData(mmu, va, false)
		if f != mem.FaultNone {
			if ep != nil {
				return outcome{kind: oFault}
			}
			return outcome{kind: oFault, fault: f, faultVA: va}
		}
		issue := max64(d, st.regTime[in.Src1]+int64(cfg.AGULatency)) + extra
		st.attr.issue = issue
		c.bus.StampCycle(issue)
		c.cache.Flush(pa)
		done := issue + 2
		st.bumpMem(done)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.MFENCE:
		st.fetchCycle = max64(st.fetchCycle, st.maxMemDone)
		st.fetchedInCy = 0
		st.retire(max64(d, st.maxMemDone))
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.LFENCE:
		st.fetchCycle = max64(st.fetchCycle, st.maxDone)
		st.fetchedInCy = 0
		st.retire(max64(d, st.maxDone))
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.SFENCE:
		st.fetchCycle = max64(st.fetchCycle, st.maxStoreDone)
		st.fetchedInCy = 0
		st.retire(max64(d, st.maxStoreDone))
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.JMP:
		target := uint64(uint32(in.Imm))
		st.retire(d)
		st.redirect(target, st.fetchCycle+1)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{}

	case isa.JZ, isa.JNZ:
		return c.execBranch(mmu, st, in, pc, d, ep)

	case isa.LOAD:
		return c.execLoad(mmu, st, in, pc, ipa, d, ep)

	case isa.STORE:
		return c.execStore(mmu, st, in, pc, ipa, d, ep)

	case isa.SYSCALL:
		// Serializing trap into the kernel model.
		done := max64(d, st.maxDone)
		st.retire(done)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{kind: oSyscall}

	case isa.HALT:
		st.retire(d)
		c.pmcs.Inc(pmc.RetiredOps)
		return outcome{kind: oHalt}

	default: // BAD or unknown
		if ep != nil {
			return outcome{kind: oFault}
		}
		return outcome{kind: oFault, fault: mem.FaultProtection, faultVA: pc}
	}
}

func (c *Core) execBranch(mmu MMU, st *runState, in isa.Inst, pc uint64, d int64, ep *episodeCtx) outcome {
	cond := st.regs[in.Src1]
	taken := (in.Op == isa.JZ) == (cond == 0)
	target := uint64(uint32(in.Imm))
	nextPC := pc + isa.InstBytes
	resolve := max64(d, st.regTime[in.Src1]) + 1
	st.retire(resolve)
	st.bumpDone(resolve)
	c.pmcs.Inc(pmc.RetiredOps)

	if ep != nil {
		// Inside a transient window: follow the (transient) actual
		// direction; the direction predictor still trains.
		c.bp.update(pc, taken)
		if taken {
			st.redirect(target, st.fetchCycle+1)
		}
		return outcome{}
	}

	predTaken := c.bp.predict(pc)
	c.bp.update(pc, taken)
	if predTaken == taken {
		if taken {
			st.redirect(target, st.fetchCycle+1)
		}
		return outcome{}
	}

	// Branch misprediction: run the wrong path transiently, then refetch.
	c.pmcs.Inc(pmc.BranchMispredicts)
	wrongPC := target
	correctPC := nextPC
	if taken {
		wrongPC = nextPC
		correctPC = target
	}
	clone := c.getClone(st)
	clone.pc = wrongPC
	start := clone.fetchCycle
	ev, n := c.runEpisode(mmu, clone, resolve)
	st.stlds = append(st.stlds, ev...)
	c.putClone(clone)
	c.emitSquash(obs.SquashBranch, pc, start, resolve, int64(c.cfg.BranchMissPenalty), n)
	st.redirect(correctPC, resolve+int64(c.cfg.BranchMissPenalty))
	return outcome{}
}

func (c *Core) execStore(mmu MMU, st *runState, in isa.Inst, pc, ipa uint64, d int64, ep *episodeCtx) outcome {
	cfg := &c.cfg
	va := st.regs[in.Src1] + uint64(int64(in.Imm))
	data := st.regs[in.Src2]
	d = st.sqSlot(d)
	pa, extra, f := c.translateData(mmu, va, true)
	if f != mem.FaultNone {
		if ep != nil {
			return outcome{kind: oFault}
		}
		return outcome{kind: oFault, fault: f, faultVA: va}
	}
	addrReady := max64(d, st.regTime[in.Src1])
	issued := acquire(st.ports.st, addrReady)
	st.attr.issue = issued
	addrTime := issued + int64(cfg.AGULatency) + extra
	dataTime := max64(d, st.regTime[in.Src2])
	complete := max64(addrTime, dataTime)
	c.bus.StampCycle(complete)
	ret := st.retire(complete)
	drain := ret + 2

	rec := storeRec{
		seq:      st.seq,
		pa:       pa,
		va:       va,
		ipa:      ipa,
		iva:      pc,
		oldVal:   c.phys.Read64(pa),
		newVal:   data,
		addrTime: addrTime,
		dataTime: dataTime,
		drain:    drain,
	}
	st.seq++
	st.stores = append(st.stores, rec)
	st.sqPush(drain)
	if ep == nil {
		// Commit: the write becomes architectural; younger loads that must
		// not see it yet read through the pre-image log.
		c.phys.Write64(pa, data)
		c.cache.Touch(pa)
	}
	st.bumpMem(complete)
	if complete > st.maxStoreDone {
		st.maxStoreDone = complete
	}
	c.pmcs.Inc(pmc.RetiredOps)
	return outcome{}
}

func (c *Core) execLoad(mmu MMU, st *runState, in isa.Inst, pc, ipa uint64, d int64, ep *episodeCtx) outcome {
	cfg := &c.cfg
	va := st.regs[in.Src1] + uint64(int64(in.Imm))
	pa, extra, f := c.translateData(mmu, va, false)
	if f != mem.FaultNone {
		return c.faultingLoad(mmu, st, in, pc, va, d, ep, f)
	}
	d = st.lqSlot(d)
	addrReady := max64(d, st.regTime[in.Src1]) + int64(cfg.AGULatency)
	tA := acquire(st.ports.ld, addrReady) + extra
	if ep != nil && tA >= ep.verifyTime {
		// The squash arrives before this load could issue: it never executes
		// and leaves no trace — the transient window's real boundary.
		st.regs[in.Dst] = 0
		st.regTime[in.Dst] = tA
		return outcome{}
	}
	c.pmcs.Inc(pmc.LdDispatch)
	st.attr.issue = tA
	c.bus.StampCycle(tA)

	var value uint64
	var complete int64

	S := st.youngestUnresolved(tA)
	if S == nil {
		value, complete = c.resolvedLoad(st, pa, tA)
	} else {
		// S is the pairing store the predictors are consulted for. U is the
		// youngest *aliasing* unresolved store (usually S itself in the
		// paper's single-store scenarios), which decides the ground truth.
		q := predict.Query{StoreIPA: S.ipa, LoadIPA: ipa, StoreIVA: S.iva, LoadIVA: pc}
		pred := c.dis.Predict(q)
		U, uMaxAddr := st.unresolvedAliasing(pa, tA)
		truth := U != nil
		psfFires := pred.Aliasing && pred.PSF && S.dataTime < S.addrTime

		switch {
		case !pred.Aliasing:
			value, complete = c.bypassLoad(mmu, st, in, q, S, U, uMaxAddr, va, pa, tA, ep)
		case psfFires:
			value, complete = c.psfLoad(mmu, st, in, q, S, U, uMaxAddr, va, pa, tA, ep)
		default:
			// Predicted aliasing without PSF: stall until all older store
			// addresses are generated, then disambiguate architecturally.
			tR := st.allUnresolvedAddrTime(tA)
			if tR > tA {
				c.pmcs.Add(pmc.SQStallCycles, uint64(tR-tA))
				st.attr.sqStall = tR - tA
			}
			ty := c.dis.Verify(q, truth)
			st.stlds = append(st.stlds, StldEvent{
				StoreIPA: S.ipa, LoadIPA: ipa, StoreVA: S.va, LoadVA: va,
				Type: ty, Cycle: S.addrTime,
			})
			value, complete = c.resolvedLoad(st, pa, tR+1)
		}
	}

	st.regs[in.Dst] = value
	st.regTime[in.Dst] = complete
	if complete > st.maxLoadDone {
		st.maxLoadDone = complete
	}
	st.lqPush(complete)
	st.bumpMem(complete)
	st.retire(complete)
	c.pmcs.Inc(pmc.RetiredOps)
	return outcome{}
}

// resolvedLoad performs the architectural (non-speculative) load path at
// time t: forward from the youngest aliasing in-flight store or access the
// cache. A partially overlapping store cannot forward (real cores fail the
// forward and replay); the load waits for the store to drain and reads
// memory, which already holds the committed bytes.
func (c *Core) resolvedLoad(st *runState, pa uint64, t int64) (uint64, int64) {
	if a := st.youngestAliasing(pa, t); a != nil {
		if a.pa == pa {
			c.pmcs.Inc(pmc.StoreToLoadForwarding)
			done := max64(t, a.dataTime) + int64(c.cfg.ForwardLatency)
			if c.bus.On(obs.ClassForward) {
				c.bus.Emit(obs.ForwardEvent{CPU: c.cpuID, Cycle: done, StoreIPA: a.ipa, VA: a.va})
			}
			return a.newVal, done
		}
		// Forward fail: misaligned overlap.
		lat, _ := c.cache.Access(pa)
		return c.phys.Read64(pa), max64(t, a.drain) + int64(lat)
	}
	lat, _ := c.cache.Access(pa)
	return c.phys.Read64(pa), t + int64(lat)
}

// bypassLoad handles a load predicted non-aliasing: it executes immediately
// from the cache. If it in fact aliases an unresolved older store U, the
// execution is transient — younger instructions consume the stale value
// until U's address generation squashes them (type G).
func (c *Core) bypassLoad(mmu MMU, st *runState, in isa.Inst, q predict.Query, S, U *storeRec, uMaxAddr int64, va, pa uint64, tA int64, ep *episodeCtx) (uint64, int64) {
	c.pmcs.Inc(pmc.Bypasses)
	lat, _ := c.cache.Access(pa)
	tDone := tA + int64(lat)
	stale := c.transientRead(st, pa, tA)

	ty := c.dis.Verify(q, U != nil)
	st.stlds = append(st.stlds, StldEvent{
		StoreIPA: q.StoreIPA, LoadIPA: q.LoadIPA, StoreVA: S.va, LoadVA: va,
		Type: ty, Cycle: S.addrTime,
	})

	if U == nil || ep != nil {
		// Correct bypass (H) — or inside an episode, where the transient
		// behaviour simply continues with the stale value.
		return stale, tDone
	}

	// Type G: misprediction. Run the transient window, then roll back and
	// replay the load with the conflicting stores resolved.
	c.pmcs.Inc(pmc.Rollbacks)
	verify := uMaxAddr + 1
	st.attr.replay = (verify - tA) + int64(c.cfg.RollbackPenalty)
	clone := c.getClone(st)
	clone.regs[in.Dst] = stale
	clone.regTime[in.Dst] = tDone
	if tDone > clone.maxLoadDone {
		clone.maxLoadDone = tDone
	}
	ev, n := c.runEpisode(mmu, clone, verify)
	st.stlds = append(st.stlds, ev...)
	c.putClone(clone)
	c.emitSquash(obs.SquashBypass, q.LoadIVA, tA, verify, int64(c.cfg.RollbackPenalty), n)
	return c.replayLoad(st, pa, verify)
}

// psfLoad handles predictive store forwarding: the store's data is forwarded
// before its address is generated. A non-aliasing truth makes the forward
// wrong (type D) and triggers a rollback.
func (c *Core) psfLoad(mmu MMU, st *runState, in isa.Inst, q predict.Query, S, U *storeRec, uMaxAddr int64, va, pa uint64, tA int64, ep *episodeCtx) (uint64, int64) {
	c.pmcs.Inc(pmc.PSFForwards)
	fwdDone := max64(tA, S.dataTime) + int64(c.cfg.ForwardLatency)
	if c.bus.On(obs.ClassForward) {
		c.bus.Emit(obs.ForwardEvent{CPU: c.cpuID, Cycle: fwdDone, StoreIPA: S.ipa, LoadIPA: q.LoadIPA, VA: va, PSF: true})
	}

	ty := c.dis.Verify(q, U != nil)
	st.stlds = append(st.stlds, StldEvent{
		StoreIPA: q.StoreIPA, LoadIPA: q.LoadIPA, StoreVA: S.va, LoadVA: va,
		Type: ty, Cycle: S.addrTime,
	})

	// The forward is correct only if S really is the store the load must
	// read from — the youngest aliasing store overall — and the addresses
	// match exactly (a partial overlap forwards the wrong bytes).
	correct := U == S && S.pa == pa && st.youngestAliasing(pa, tA) == S
	if correct || ep != nil {
		// Correct forward (C) — or transient continuation with the
		// (possibly wrong) forwarded value inside an episode.
		return S.newVal, fwdDone
	}

	// Type D: forwarded the wrong store's data. Transient window with the
	// forwarded value, then rollback and replay from the cache.
	c.pmcs.Inc(pmc.Rollbacks)
	verify := S.addrTime + 1
	if uMaxAddr+1 > verify {
		verify = uMaxAddr + 1
	}
	st.attr.replay = (verify - tA) + int64(c.cfg.RollbackPenalty)
	clone := c.getClone(st)
	clone.regs[in.Dst] = S.newVal
	clone.regTime[in.Dst] = fwdDone
	if fwdDone > clone.maxLoadDone {
		clone.maxLoadDone = fwdDone
	}
	ev, n := c.runEpisode(mmu, clone, verify)
	st.stlds = append(st.stlds, ev...)
	c.putClone(clone)
	c.emitSquash(obs.SquashPSF, q.LoadIVA, tA, verify, int64(c.cfg.RollbackPenalty), n)
	return c.replayLoad(st, pa, verify)
}

// replayLoad re-executes a squashed load after the rollback penalty, with
// all older stores now resolved.
func (c *Core) replayLoad(st *runState, pa uint64, verify int64) (uint64, int64) {
	redirect := verify + int64(c.cfg.RollbackPenalty)
	// The refetch walks the front end again.
	c.pmcs.Inc(pmc.ITLBHit4K)
	c.pmcs.Inc(pmc.LdDispatch)
	tA := acquire(st.ports.ld, redirect)
	value, complete := c.resolvedLoad(st, pa, tA)
	// Younger instructions refetch behind the load.
	st.redirect(st.pc, redirect)
	return value, complete
}

// faultingLoad models the transient window a faulting load opens: dependents
// transiently consume zero (AMD cores do not forward faulting data), then
// the fault retires and the run stops. Inside an episode the fault simply
// ends the window.
func (c *Core) faultingLoad(mmu MMU, st *runState, in isa.Inst, pc, va uint64, d int64, ep *episodeCtx, f mem.Fault) outcome {
	if ep != nil {
		return outcome{kind: oFault}
	}
	addrReady := max64(d, st.regTime[in.Src1]) + int64(c.cfg.AGULatency)
	tA := acquire(st.ports.ld, addrReady)
	st.attr.issue = tA
	c.pmcs.Inc(pmc.LdDispatch)
	complete := tA + 4
	// The fault is raised at retirement; the page walk and the trap entry
	// leave a window of a few dozen cycles for dependents to run.
	retireAt := max64(st.lastRetire, complete) + 32
	clone := c.getClone(st)
	clone.regs[in.Dst] = 0
	clone.regTime[in.Dst] = complete
	ev, n := c.runEpisode(mmu, clone, retireAt)
	st.stlds = append(st.stlds, ev...)
	c.putClone(clone)
	c.emitSquash(obs.SquashFault, pc, complete, retireAt, 0, n)
	st.retire(complete)
	return outcome{kind: oFault, fault: f, faultVA: va}
}
