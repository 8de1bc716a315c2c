// Package pipeline implements the cycle-level out-of-order core on which all
// of the paper's experiments run.
//
// The model is a timestamp-based dataflow simulation: instructions are
// processed in program order, each receiving issue/complete timestamps from
// its operand readiness, port contention and memory behaviour, with in-order
// retirement. Memory speculation follows the paper's machinery exactly: a
// load that becomes address-ready while an older store's address is still
// being generated consults the speculative memory access predictors
// (predict.Disambiguator). Mispredictions open a transient episode — younger
// instructions execute with the wrong value, leaving cache fills and
// predictor updates behind — and then roll back, replaying from the load
// after a configurable penalty. Predictor updates and cache state are never
// rolled back, which is the paper's Vulnerability 4 and the engine behind
// Spectre-STL and Spectre-CTL.
package pipeline

import (
	"errors"
	"fmt"
	"math/rand"

	"zenspec/internal/cache"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// ErrCancelled is the panic value of a run abandoned by Config.Stop. Callers
// that guard trials with recover (the harness's resilient loop) observe it as
// the recovered value; nothing in the pipeline itself recovers it, because a
// cancelled run's machine is abandoned wholesale.
var ErrCancelled = errors.New("pipeline: run cancelled")

// stopCheckInterval is how many retired instructions pass between polls of
// Config.Stop: frequent enough that a runaway trial dies within microseconds,
// rare enough that the check never shows up in the per-cycle profile.
const stopCheckInterval = 1024

// MMU translates virtual addresses for the running context. *mem.AddrSpace
// satisfies it; the kernel model wraps it with COW handling.
type MMU interface {
	Translate(va uint64, acc mem.Access) (uint64, mem.Fault)
}

// epochMMU is the optional MMU extension the decoded-fetch cache keys on: a
// counter that changes whenever any translation could. *mem.AddrSpace and
// *kernel.Process implement it; an MMU without it runs with the cache off.
type epochMMU interface {
	TranslationEpoch() uint64
}

// Config sets the core's microarchitectural parameters. Zero values are
// replaced by DefaultConfig's.
type Config struct {
	FetchWidth int // instructions dispatched per cycle
	ROBSize    int // reorder-buffer window
	SQSize     int // store-queue entries (48 on Zen 3 family 17h)
	LQSize     int // load-queue entries (72 on Zen 3)
	ALUPorts   int
	MulPorts   int
	LoadPorts  int
	StorePorts int

	ALULatency     int
	MulLatency     int // the IMUL chains delaying store address generation
	ForwardLatency int // store-queue forward (STLF and PSF)
	AGULatency     int // address generation

	BranchMissPenalty int
	RollbackPenalty   int // extra refetch delay after a memory-speculation rollback
	TLBMissPenalty    int
	DTLBSize          int
	ITLBSize          int

	// EpisodeCap bounds how many instructions execute inside one transient
	// episode (the hardware bound is the ROB size).
	EpisodeCap int
	// TimerQuantum, when > 1, quantizes RDPRU readings — the "secure timer"
	// mitigation of Section VI-B (and the coarse browser timer of V-C2).
	TimerQuantum int64
	// TimerJitter, when > 0, adds deterministic pseudo-random noise in
	// [-TimerJitter, +TimerJitter] to RDPRU readings — the measurement noise
	// of a constructed browser timer.
	TimerJitter int64
	// TimerSeed seeds the jitter stream.
	TimerSeed int64

	// Stop, when non-nil, is the cooperative cancellation check: the main
	// simulation loop polls it once every stopCheckInterval instructions and,
	// when it returns true, abandons the run by panicking with ErrCancelled.
	// The panic unwinds through whatever host code drives the machine, so a
	// trial that overran its harness deadline actually stops simulating
	// instead of running detached forever. A nil Stop (the default) costs one
	// predictable branch per instruction and never fires; polling a Stop that
	// returns false leaves results bit-identical to a nil one.
	Stop func() bool
}

// DefaultConfig approximates the paper's Zen 3 test machines.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		ROBSize:           256,
		SQSize:            48,
		LQSize:            72,
		ALUPorts:          4,
		MulPorts:          1,
		LoadPorts:         2,
		StorePorts:        1,
		ALULatency:        1,
		MulLatency:        3,
		ForwardLatency:    8,
		AGULatency:        1,
		BranchMissPenalty: 16,
		RollbackPenalty:   200,
		TLBMissPenalty:    20,
		DTLBSize:          64,
		ITLBSize:          64,
		EpisodeCap:        64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.ROBSize == 0 {
		c.ROBSize = d.ROBSize
	}
	if c.SQSize == 0 {
		c.SQSize = d.SQSize
	}
	if c.LQSize == 0 {
		c.LQSize = d.LQSize
	}
	if c.ALUPorts == 0 {
		c.ALUPorts = d.ALUPorts
	}
	if c.MulPorts == 0 {
		c.MulPorts = d.MulPorts
	}
	if c.LoadPorts == 0 {
		c.LoadPorts = d.LoadPorts
	}
	if c.StorePorts == 0 {
		c.StorePorts = d.StorePorts
	}
	if c.ALULatency == 0 {
		c.ALULatency = d.ALULatency
	}
	if c.MulLatency == 0 {
		c.MulLatency = d.MulLatency
	}
	if c.ForwardLatency == 0 {
		c.ForwardLatency = d.ForwardLatency
	}
	if c.AGULatency == 0 {
		c.AGULatency = d.AGULatency
	}
	if c.BranchMissPenalty == 0 {
		c.BranchMissPenalty = d.BranchMissPenalty
	}
	if c.RollbackPenalty == 0 {
		c.RollbackPenalty = d.RollbackPenalty
	}
	if c.TLBMissPenalty == 0 {
		c.TLBMissPenalty = d.TLBMissPenalty
	}
	if c.DTLBSize == 0 {
		c.DTLBSize = d.DTLBSize
	}
	if c.ITLBSize == 0 {
		c.ITLBSize = d.ITLBSize
	}
	if c.EpisodeCap == 0 {
		c.EpisodeCap = d.EpisodeCap
	}
	return c
}

// StopReason says why a run ended.
type StopReason uint8

// Stop reasons.
const (
	StopHalt StopReason = iota
	StopSyscall
	StopFault
	StopInstLimit
)

func (s StopReason) String() string {
	switch s {
	case StopHalt:
		return "halt"
	case StopSyscall:
		return "syscall"
	case StopFault:
		return "fault"
	case StopInstLimit:
		return "inst-limit"
	}
	return "stop?"
}

// StldEvent records one verified store-load speculation, the ground truth
// the reverse-engineering harness validates its timing classifier against.
type StldEvent struct {
	StoreIPA, LoadIPA uint64 // instruction physical addresses
	StoreVA, LoadVA   uint64 // data virtual addresses
	Type              predict.ExecType
	Transient         bool // verified inside a transient episode
	Cycle             int64
}

// RunResult reports one Run.
type RunResult struct {
	Stop    StopReason
	Cycles  int64  // retirement time of the last instruction, relative to run start
	EndPC   uint64 // pc after the stopping instruction
	Fault   mem.Fault
	FaultVA uint64
	FaultPC uint64 // pc of the faulting instruction (for retry after COW break)
	Insts   uint64 // retired instruction count
	// Stlds are the run's store-load speculation events. They alias the
	// core's run buffer and stay valid only until the core's next Run;
	// copy them to keep them longer.
	Stlds []StldEvent
}

// Core is one simulated hardware thread's execution resources. Caches and
// physical memory may be shared between cores; the predictor unit is
// per-thread (the paper found PSFP/SSBP duplicated across SMT threads).
type Core struct {
	cfg    Config
	phys   *mem.Physical
	cache  *cache.Hierarchy
	dis    predict.Disambiguator
	pmcs   *pmc.Counters
	dtlb   *mem.TLB
	itlb   *mem.TLB
	bp     *branchPredictor
	cycle  int64 // monotonic cycle counter across runs (what RDPRU reads)
	jitter *rand.Rand

	bus   *obs.Bus
	cpuID int

	// Hot-loop reuse. All of it is semantics-preserving: the pooled state is
	// fully re-initialized per use and the fetch cache revalidates against
	// the frame version and translation epoch, so a Run computes exactly
	// what it would with fresh allocations and uncached fetches.
	runSt      *runState   // reusable top-level run state
	epFree     []*runState // pool of transient-episode clones
	fetchCache []fetchPage // direct-mapped decoded code pages
	fetchGen   uint64      // generation tag of the current Run's MMU
	fetchOK    bool        // cache usable for the current Run

	// fetchGens maps recently seen MMUs to their generation tags so that
	// alternating between address spaces (a context-switching attacker and
	// victim) does not evict either one's cached decodes: entries from
	// different MMUs coexist in fetchCache/xlat, distinguished by gen. An
	// MMU whose epoch changed gets a fresh gen, orphaning its old entries.
	fetchGens     [4]fetchGenEntry
	fetchGenSeq   uint64 // last generation handed out (0 = never matches)
	fetchGenClock uint64 // round-robin eviction cursor for fetchGens

	// xlat caches successful data translations ([0] reads, [1] writes),
	// validated by the same generation tag as the fetch cache. Failed
	// translations (faults, COW write breaks) are never cached, so the
	// fault behaviour is exactly the page table's.
	xlat [2][xlatCacheSize]xlatEntry
}

// fetchGenEntry associates one MMU with its current generation tag.
type fetchGenEntry struct {
	mmu   MMU
	epoch uint64
	gen   uint64
}

// xlatEntry caches one successful data-page translation.
type xlatEntry struct {
	vpn uint64
	pa  uint64 // page-aligned physical base
	gen uint64
}

// xlatCacheSize is the per-kind data-translation cache size (power of two).
const xlatCacheSize = 256

// fetchPage caches one whole decoded code page: the first fetch from a page
// decodes all of its instruction slots at once, so freshly placed gadgets
// (new code at new addresses every probe) pay one page walk and one batch
// decode instead of a slow fetch per instruction. An entry is valid while
// the generation matches (same MMU, same translation epoch — see fetchGens)
// and the backing frame is unwritten (Frame.Version); decoding is a pure
// function of the frame bytes, so a valid hit is bit-identical to decoding
// on the spot.
//
// Slots are decoded at the alignment class (pc mod InstBytes) of the fetch
// that filled the entry — code sliding executes at arbitrary byte offsets —
// and a fetch at a different alignment refills the page. Slot i covers bytes
// [align+i*8, align+i*8+8); the partial tail slot of a misaligned page is
// never filled and never served (the fast path bounds the offset).
type fetchPage struct {
	vpn    uint64
	paBase uint64 // page-aligned physical base
	fver   uint64
	gen    uint64
	align  uint64 // pc mod InstBytes this page was decoded at
	frame  *mem.Frame
	insts  *[pageInsts]isa.Inst
}

// pageInsts is the number of fixed-size instruction slots in one page.
const pageInsts = mem.PageSize / isa.InstBytes

// fetchCacheSize is the direct-mapped decoded-page cache size (power of
// two). The fingerprinting experiments keep a few hundred code pages live at
// once (two per placed probe), so the size must comfortably exceed that:
// decoded-inst arrays are allocated lazily per touched slot (≤4KB each).
const fetchCacheSize = 1024

// AttachBus connects the core to an event bus as hardware thread cpuID. The
// kernel model attaches every core of a machine to one shared bus at boot; a
// standalone core keeps a nil bus (all emission disabled) until attached.
func (c *Core) AttachBus(b *obs.Bus, cpuID int) {
	c.bus = b
	c.cpuID = cpuID
}

// Bus returns the attached event bus (nil when unattached).
func (c *Core) Bus() *obs.Bus { return c.bus }

// New assembles a core. pmcs may be nil (a private counter set is created).
func New(cfg Config, phys *mem.Physical, ch *cache.Hierarchy, dis predict.Disambiguator, pmcs *pmc.Counters) *Core {
	if phys == nil || ch == nil || dis == nil {
		panic("pipeline: nil component")
	}
	if pmcs == nil {
		pmcs = &pmc.Counters{}
	}
	cfg = cfg.withDefaults()
	return &Core{
		cfg:    cfg,
		phys:   phys,
		cache:  ch,
		dis:    dis,
		pmcs:   pmcs,
		dtlb:   mem.NewTLB(cfg.DTLBSize),
		itlb:   mem.NewTLB(cfg.ITLBSize),
		bp:     newBranchPredictor(),
		jitter: rand.New(rand.NewSource(cfg.TimerSeed + 1)),
	}
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// PMC returns the core's performance counters.
func (c *Core) PMC() *pmc.Counters { return c.pmcs }

// Disambiguator returns the attached predictor unit.
func (c *Core) Disambiguator() predict.Disambiguator { return c.dis }

// Cache returns the attached hierarchy.
func (c *Core) Cache() *cache.Hierarchy { return c.cache }

// Cycle returns the current absolute cycle count.
func (c *Core) Cycle() int64 { return c.cycle }

// FlushTLBs empties both TLBs (done on address-space switch).
func (c *Core) FlushTLBs() {
	c.dtlb.Flush()
	c.itlb.Flush()
}

// Run executes from entry until HALT, SYSCALL, a fault, or maxInsts retired
// instructions (0 means a default safety cap). The register file is read
// from and written back to regs.
func (c *Core) Run(mmu MMU, entry uint64, regs *[isa.NumRegs]uint64, maxInsts uint64) RunResult {
	if maxInsts == 0 {
		maxInsts = 1 << 20
	}
	if c.bus.On(obs.ClassInst) {
		// The bus hands instruction events over in batches: deliver the
		// last one when the run ends, by ErrCancelled's panic too.
		defer c.bus.Flush()
	}
	pmcOn := c.bus.On(obs.ClassPMC)
	var pmcStart pmc.Counters
	if pmcOn {
		pmcStart = c.pmcs.Snapshot()
	}
	c.prepFetch(mmu)
	st := c.acquireRun(entry, *regs)
	res := c.mainLoop(mmu, st, maxInsts)
	*regs = st.regs
	// Advance the global clock past everything this run did, with a small
	// inter-run gap (pipeline drain).
	end := st.maxDone
	if st.lastRetire > end {
		end = st.lastRetire
	}
	c.cycle = end + 8
	if pmcOn {
		// One counter readout per run — the delta a PMC-instrumented harness
		// would take around a measured region.
		c.bus.Emit(obs.PMCEvent{CPU: c.cpuID, Cycle: c.cycle, Counts: c.pmcs.Delta(pmcStart)})
	}
	return res
}

// prepFetch arms the decoded-fetch cache for one Run. Translations only
// change through mapping calls (which bump the MMU's epoch) and never during
// a Run, so one epoch check per Run suffices; frame content changes are
// caught per-hit through Frame.Version.
func (c *Core) prepFetch(mmu MMU) {
	em, ok := mmu.(epochMMU)
	if !ok {
		c.fetchOK = false
		return
	}
	epoch := em.TranslationEpoch()
	if c.fetchCache == nil {
		c.fetchCache = make([]fetchPage, fetchCacheSize)
	}
	for i := range c.fetchGens {
		g := &c.fetchGens[i]
		if g.mmu == mmu {
			if g.epoch != epoch {
				c.fetchGenSeq++
				g.gen = c.fetchGenSeq
				g.epoch = epoch
			}
			c.fetchGen = g.gen
			c.fetchOK = true
			return
		}
	}
	slot := &c.fetchGens[c.fetchGenClock%uint64(len(c.fetchGens))]
	c.fetchGenClock++
	c.fetchGenSeq++
	*slot = fetchGenEntry{mmu: mmu, epoch: epoch, gen: c.fetchGenSeq}
	c.fetchGen = slot.gen
	c.fetchOK = true
}

func (c *Core) String() string {
	return fmt.Sprintf("core{dis=%s cycle=%d}", c.dis.Name(), c.cycle)
}
