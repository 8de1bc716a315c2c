package pipeline

import "zenspec/internal/isa"

// storeRec is an in-flight or recently drained store within one run.
type storeRec struct {
	seq      int
	pa       uint64 // data physical address
	va       uint64 // data virtual address
	ipa      uint64 // instruction physical address of the store
	iva      uint64
	oldVal   uint64 // memory value before this store (for transient reads)
	newVal   uint64
	addrTime int64 // when the data address is generated
	dataTime int64 // when the store data is available
	drain    int64 // when the store leaves the store queue
}

// overlap8 reports whether two 8-byte accesses overlap — the aliasing test.
func overlap8(a, b uint64) bool {
	d := a - b
	return d < 8 || -d < 8
}

// ports tracks next-free cycles for each execution port group.
type ports struct {
	alu []int64
	mul []int64
	ld  []int64
	st  []int64
}

func newPorts(cfg Config) ports {
	return ports{
		alu: make([]int64, cfg.ALUPorts),
		mul: make([]int64, cfg.MulPorts),
		ld:  make([]int64, cfg.LoadPorts),
		st:  make([]int64, cfg.StorePorts),
	}
}

// copyFrom overwrites p with src, reusing p's backing arrays when they are
// large enough (they always are after the first use, since port counts are
// fixed per core).
func (p *ports) copyFrom(src *ports) {
	p.alu = append(p.alu[:0], src.alu...)
	p.mul = append(p.mul[:0], src.mul...)
	p.ld = append(p.ld[:0], src.ld...)
	p.st = append(p.st[:0], src.st...)
}

func (p *ports) fill(v int64) {
	for i := range p.alu {
		p.alu[i] = v
	}
	for i := range p.mul {
		p.mul[i] = v
	}
	for i := range p.ld {
		p.ld[i] = v
	}
	for i := range p.st {
		p.st[i] = v
	}
}

// acquire picks the earliest-free port in group, no earlier than ready, and
// books it. It returns the issue time.
func acquire(group []int64, ready int64) int64 {
	best := 0
	for i := 1; i < len(group); i++ {
		if group[i] < group[best] {
			best = i
		}
	}
	issue := ready
	if group[best] > issue {
		issue = group[best]
	}
	group[best] = issue + 1
	return issue
}

// runState is the complete speculative machine state of one run; transient
// episodes deep-copy it and throw the copy away at rollback.
type runState struct {
	regs    [isa.NumRegs]uint64
	regTime [isa.NumRegs]int64
	pc      uint64

	fetchCycle  int64 // cycle the next instruction dispatches in
	fetchedInCy int   // instructions already dispatched this cycle

	retireRing []int64 // retire times of the last ROBSize instructions
	retireLen  int
	retireIdx  int
	lastRetire int64

	sqRing []int64 // drain times of the last SQSize stores
	sqLen  int
	sqIdx  int

	lqRing []int64 // completion times of the last LQSize loads
	lqLen  int
	lqIdx  int

	ports ports

	stores []storeRec

	maxDone      int64 // completion time of everything so far (LFENCE)
	maxMemDone   int64 // completion of memory ops (MFENCE)
	maxStoreDone int64 // completion of stores (SFENCE)
	maxLoadDone  int64 // completion of loads (RDPRU serializes on this)

	seq   int
	insts uint64

	stlds []StldEvent

	// attr is the cycle-attribution record of the instruction currently in
	// exec, reset at dispatch and read by the InstEvent emit sites. It feeds
	// the profiler's top-down stall breakdown and costs a few stores per
	// instruction whether or not anyone listens.
	attr instAttr
}

// instAttr partitions one instruction's lifetime for cycle attribution:
// dispatch→issue (front-end and operand wait), issue→complete (execution),
// with the store-queue disambiguation stall and the rollback-replay share
// called out separately.
type instAttr struct {
	dispatch int64
	issue    int64
	complete int64
	sqStall  int64
	replay   int64
}

// acquireRun returns the core's reusable top-level run state, fully
// re-initialized — every field a fresh allocation would hold is rewritten, so
// reuse is invisible to the simulation.
func (c *Core) acquireRun(entry uint64, regs [isa.NumRegs]uint64) *runState {
	st := c.runSt
	if st == nil {
		st = &runState{
			retireRing: make([]int64, c.cfg.ROBSize),
			sqRing:     make([]int64, c.cfg.SQSize),
			lqRing:     make([]int64, c.cfg.LQSize),
			ports:      newPorts(c.cfg),
		}
		c.runSt = st
	}
	st.regs = regs
	for i := range st.regTime {
		st.regTime[i] = c.cycle
	}
	st.pc = entry
	st.fetchCycle = c.cycle
	st.fetchedInCy = 0
	st.retireLen, st.retireIdx = 0, 0
	st.lastRetire = c.cycle
	st.sqLen, st.sqIdx = 0, 0
	st.lqLen, st.lqIdx = 0, 0
	st.ports.fill(c.cycle)
	st.stores = st.stores[:0]
	st.maxDone = c.cycle
	st.maxMemDone = c.cycle
	st.maxStoreDone = c.cycle
	st.maxLoadDone = c.cycle
	st.seq = 0
	st.insts = 0
	st.stlds = st.stlds[:0]
	st.attr = instAttr{}
	return st
}

// getClone deep-copies st into a pooled episode state. Episodes never nest
// (every episode-opening path returns early inside one), but the pool keeps a
// free list anyway so a future nesting change stays correct. Callers must
// putClone when the episode's events have been copied out.
func (c *Core) getClone(st *runState) *runState {
	var dst *runState
	if n := len(c.epFree); n > 0 {
		dst = c.epFree[n-1]
		c.epFree = c.epFree[:n-1]
	} else {
		dst = &runState{}
	}
	dst.copyFrom(st)
	return dst
}

// putClone returns an episode state to the pool.
func (c *Core) putClone(st *runState) { c.epFree = append(c.epFree, st) }

// copyFrom makes st a deep copy of src, reusing st's backing arrays.
func (st *runState) copyFrom(src *runState) {
	retire, sq, lq := st.retireRing, st.sqRing, st.lqRing
	prts := st.ports
	stores, stlds := st.stores, st.stlds
	*st = *src
	st.retireRing = append(retire[:0], src.retireRing...)
	st.sqRing = append(sq[:0], src.sqRing...)
	st.lqRing = append(lq[:0], src.lqRing...)
	st.ports = prts
	st.ports.copyFrom(&src.ports)
	st.stores = append(stores[:0], src.stores...)
	st.stlds = stlds[:0] // episode events are appended to the parent by the caller
}

// dispatchSlot returns the dispatch time for the next instruction, modeling
// fetch width and the ROB window, and advances the fetch bookkeeping.
func (st *runState) dispatchSlot(cfg *Config) int64 {
	if st.fetchedInCy >= cfg.FetchWidth {
		st.fetchCycle++
		st.fetchedInCy = 0
	}
	d := st.fetchCycle
	if st.retireLen == cfg.ROBSize {
		// The window is full: we cannot dispatch before the oldest retires.
		if oldest := st.retireRing[st.retireIdx]; oldest+1 > d {
			d = oldest + 1
			st.fetchCycle = d
			st.fetchedInCy = 0
		}
	}
	st.fetchedInCy++
	// A fresh attribution record: portless instructions issue and complete
	// at dispatch unless the op overrides the stamps.
	st.attr = instAttr{dispatch: d, issue: d, complete: d}
	return d
}

// redirect moves the fetch point (branch redirect, rollback refetch).
func (st *runState) redirect(pc uint64, when int64) {
	st.pc = pc
	if when > st.fetchCycle {
		st.fetchCycle = when
	}
	st.fetchedInCy = 0
}

// retire records an in-order retirement and returns its time.
func (st *runState) retire(complete int64) int64 {
	st.attr.complete = complete
	t := max(complete, st.lastRetire)
	st.lastRetire = t
	ringPush(st.retireRing, &st.retireIdx, &st.retireLen, t)
	return t
}

// retireNOPs leaves exactly the state n rounds of dispatchSlot+retire(d)
// would. NOPs step one at a time while an older instruction still retires at
// or after the next dispatch cycle. From then on each NOP retires in the
// cycle it dispatches, FetchWidth to a cycle, and a ROB at least FetchWidth
// wide never stalls them: the entry it waits on is one of these NOPs from an
// earlier cycle, or older and retired before the first. So fetch, retire and
// the last min(n, ROBSize) ring entries follow in closed form. A narrower
// ROB stalls inside the run; there every NOP steps.
func (st *runState) retireNOPs(cfg *Config, n int) {
	w := cfg.FetchWidth
	for ; n > 0; n-- {
		next := st.fetchCycle
		if st.fetchedInCy >= w {
			next++
		}
		if st.lastRetire < next && cfg.ROBSize >= w {
			break
		}
		st.retire(st.dispatchSlot(cfg))
	}
	if n == 0 {
		return
	}
	// NOP j takes fetch slot fetchedInCy+j counted from the start of
	// fetchCycle; NOPs older than the last size are overwritten in the ring.
	size := len(st.retireRing)
	first := max(0, n-size)
	pos := (st.retireIdx + st.retireLen + first) % size
	cyc := st.fetchCycle + int64((st.fetchedInCy+first)/w)
	slot := (st.fetchedInCy + first) % w
	for j := first; j < n; j++ {
		st.retireRing[pos] = cyc
		if pos++; pos == size {
			pos = 0
		}
		if slot++; slot == w {
			slot, cyc = 0, cyc+1
		}
	}
	last := st.fetchedInCy + n - 1
	d := st.fetchCycle + int64(last/w)
	st.fetchCycle, st.fetchedInCy = d, last%w+1
	st.lastRetire = d
	st.attr = instAttr{dispatch: d, issue: d, complete: d}
	if total := st.retireLen + n; total <= size {
		st.retireLen = total
	} else {
		st.retireIdx = (st.retireIdx + total - size) % size
		st.retireLen = size
	}
}

// sqSlot models store-queue occupancy: a new store cannot dispatch before
// the oldest of the last SQSize stores drained.
func (st *runState) sqSlot(d int64) int64 {
	if st.sqLen == len(st.sqRing) {
		if oldest := st.sqRing[st.sqIdx]; oldest > d {
			d = oldest
		}
	}
	return d
}

// lqSlot models load-queue occupancy: a new load cannot dispatch before the
// oldest of the last LQSize loads completed.
func (st *runState) lqSlot(d int64) int64 {
	if st.lqLen == len(st.lqRing) {
		if oldest := st.lqRing[st.lqIdx]; oldest > d {
			d = oldest
		}
	}
	return d
}

func (st *runState) lqPush(done int64) {
	ringPush(st.lqRing, &st.lqIdx, &st.lqLen, done)
}

func (st *runState) sqPush(drain int64) {
	ringPush(st.sqRing, &st.sqIdx, &st.sqLen, drain)
}

// ringPush appends v to the ring whose oldest entry is ring[*idx] and whose
// live entries number *n, evicting the oldest once the ring is full. The
// wrap is a compare rather than a modulo, since every instruction pays it,
// and the function stays cheap enough to inline into retire.
func ringPush(ring []int64, idx, n *int, v int64) {
	i := *idx + *n
	if i >= len(ring) {
		i -= len(ring)
	}
	ring[i] = v
	if *n < len(ring) {
		*n++
	} else if *idx = i + 1; *idx == len(ring) {
		*idx = 0
	}
}

// youngestUnresolved returns the youngest older store whose address is not
// yet generated at time t, or nil.
func (st *runState) youngestUnresolved(t int64) *storeRec {
	for i := len(st.stores) - 1; i >= 0; i-- {
		if st.stores[i].addrTime > t {
			return &st.stores[i]
		}
	}
	return nil
}

// youngestAliasing returns the youngest older store overlapping pa that is
// still in the store queue at time t (not yet drained), or nil.
func (st *runState) youngestAliasing(pa uint64, t int64) *storeRec {
	for i := len(st.stores) - 1; i >= 0; i-- {
		s := &st.stores[i]
		if s.drain > t && overlap8(s.pa, pa) {
			return s
		}
	}
	return nil
}

// unresolvedAliasing returns the youngest older store overlapping pa whose
// address is unresolved at time t, and the latest address-generation time
// over all such stores (the point where a conflict is certain to have been
// detected).
func (st *runState) unresolvedAliasing(pa uint64, t int64) (*storeRec, int64) {
	var youngest *storeRec
	var maxAddr int64
	for i := len(st.stores) - 1; i >= 0; i-- {
		s := &st.stores[i]
		if s.addrTime > t && overlap8(s.pa, pa) {
			if youngest == nil {
				youngest = s
			}
			if s.addrTime > maxAddr {
				maxAddr = s.addrTime
			}
		}
	}
	return youngest, maxAddr
}

// allUnresolvedAddrTime returns the latest address-generation time over all
// older stores unresolved at t (what a stalled load waits for), or t if
// there are none.
func (st *runState) allUnresolvedAddrTime(t int64) int64 {
	out := t
	for i := range st.stores {
		if a := st.stores[i].addrTime; a > out {
			out = a
		}
	}
	return out
}

func (st *runState) bumpDone(t int64) {
	if t > st.maxDone {
		st.maxDone = t
	}
}

func (st *runState) bumpMem(t int64) {
	st.bumpDone(t)
	if t > st.maxMemDone {
		st.maxMemDone = t
	}
}
