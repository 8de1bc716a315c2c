// Package kernel models the operating-system layer the paper's experiments
// depend on: processes with private page tables, security domains (host
// user, VM guest, kernel thread), fork with copy-on-write, shared mappings,
// mprotect-induced remapping, and — crucially — the context-switch flush
// rules the paper reverse engineered: PSFP is flushed on every context
// switch, syscall and yield; both predictors are flushed when a process
// sleeps; SSBP otherwise survives across processes (Vulnerability 1).
//
// The kernel also owns the machine's hardware threads: two SMT threads per
// physical core, each with its own predictor unit (the paper found the
// predictor resources duplicated, not shared), sharing caches and memory.
package kernel

import (
	"fmt"

	"zenspec/internal/cache"
	"zenspec/internal/fault"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// Domain is a security domain.
type Domain uint8

// Security domains considered in Section IV-A.
const (
	DomainUser Domain = iota
	DomainVM
	DomainKernel
)

func (d Domain) String() string {
	switch d {
	case DomainUser:
		return "user"
	case DomainVM:
		return "vm"
	case DomainKernel:
		return "kernel"
	}
	return "domain?"
}

// Syscall service numbers (placed in RAX before SYSCALL).
const (
	SysYield = 1 // reschedule: flushes PSFP, keeps SSBP
	SysSleep = 2 // suspend: flushes PSFP and SSBP
)

// Config selects the kernel's mitigation posture.
type Config struct {
	// SSBD sets Speculative Store Bypass Disable on every hardware thread.
	SSBD bool
	// PSFD sets the (ineffective) Predictive Store Forwarding Disable bit.
	PSFD bool
	// FlushSSBPOnSwitch enables the Section VI-B mitigation of flushing
	// SSBP on every context switch.
	FlushSSBPOnSwitch bool
	// SaltPerDomain enables the randomized-selection mitigation: each
	// security domain hashes IPAs with its own secret salt. Note that a
	// static salt only defeats precomputed (PTEditor-style) collisions; a
	// sliding attacker with timing feedback still finds colliding offsets
	// empirically — see RotateSalt.
	SaltPerDomain bool
	// RotateSalt draws a fresh selection salt on every context switch,
	// orphaning all previously trained entries. This is the strong form of
	// the randomized-selection mitigation (at the cost of losing predictor
	// state on every switch).
	RotateSalt bool
	// TimerQuantum coarsens RDPRU (secure-timer mitigation); 0 or 1 keeps
	// cycle resolution.
	TimerQuantum int64
	// TimerJitter adds pseudo-random noise to RDPRU (the browser-timer
	// profile of Section V-C2).
	TimerJitter int64
	// Seed drives all randomized structures.
	Seed int64
	// Faults is the deterministic fault-injection plan: extra timer jitter,
	// predictor pollution and cache eviction noise between program runs. The
	// zero plan injects nothing; injections derive from (Faults.Seed, Seed)
	// only, so faulted runs stay reproducible at any parallelism.
	Faults fault.Plan
	// Pipeline overrides the core configuration (zero fields take defaults).
	Pipeline pipeline.Config
	// PredictorConfig overrides predictor sizes (zero fields take the
	// reverse-engineered defaults).
	PredictorConfig predict.Config
	// Observer, when non-nil, is subscribed to the machine's event bus at
	// boot: every structured event (instructions, squashes, forwards,
	// predictor trainings, cache fills, probes, context switches, injected
	// faults) is delivered to it. Observation is read-only — an attached
	// observer never changes simulation results.
	Observer obs.Observer
	// ObserverClasses filters the boot Observer's subscription; empty means
	// every event class.
	ObserverClasses []obs.Class
	// SMTThreads is the number of hardware threads (default 2).
	SMTThreads int
	// Parallelism bounds the worker pool of experiment trial runners; 0
	// means GOMAXPROCS. Trials are deterministic at any value (each trial
	// boots its own machine and derives its RNG from the trial index), so
	// this knob trades wall clock only, never results.
	Parallelism int
}

// CPU is one hardware (SMT) thread: a pipeline core with its private
// predictor unit.
type CPU struct {
	ID      int
	Core    *pipeline.Core
	Unit    *predict.Unit
	current *Process
	salts   map[Domain]uint64
	epoch   uint64
}

// Current returns the process last run on this thread.
func (c *CPU) Current() *Process { return c.current }

// Kernel is the machine plus operating system model.
type Kernel struct {
	cfg    Config
	phys   *mem.Physical
	caches *cache.Hierarchy
	cpus   []*CPU
	procs  []*Process
	nextID int
	inj    *fault.Injector // nil unless cfg.Faults perturbs the machine
	bus    *obs.Bus
}

// New boots a machine.
func New(cfg Config) *Kernel {
	if cfg.SMTThreads == 0 {
		cfg.SMTThreads = 2
	}
	k := &Kernel{
		cfg:    cfg,
		phys:   mem.NewPhysical(),
		caches: cache.New(cache.DefaultConfig()),
		bus:    obs.NewBus(),
	}
	k.caches.AttachBus(k.bus)
	pcfg := cfg.Pipeline
	pcfg.TimerQuantum = cfg.TimerQuantum
	// Browser-profile jitter and injected fault jitter compose: both are
	// independent noise sources on the same timer.
	pcfg.TimerJitter = cfg.TimerJitter + cfg.Faults.TimerJitter
	pcfg.TimerSeed = cfg.Seed
	if cfg.Faults.MachineActive() {
		k.inj = cfg.Faults.Injector(cfg.Seed)
		k.inj.AttachBus(k.bus)
	}
	for i := 0; i < cfg.SMTThreads; i++ {
		ucfg := cfg.PredictorConfig
		ucfg.Seed = cfg.Seed + int64(i)
		ucfg.SSBD = cfg.SSBD
		ucfg.PSFD = cfg.PSFD
		unit := predict.NewUnit(ucfg)
		unit.AttachBus(k.bus, i)
		core := pipeline.New(pcfg, k.phys, k.caches, unit, &pmc.Counters{})
		core.AttachBus(k.bus, i)
		salts := map[Domain]uint64{}
		if cfg.SaltPerDomain {
			// Deterministic per-domain secrets derived from the seed.
			for _, d := range []Domain{DomainUser, DomainVM, DomainKernel} {
				salts[d] = splitmix(uint64(cfg.Seed)*1099511628211 + uint64(d+1)*2654435761)
			}
		}
		k.cpus = append(k.cpus, &CPU{ID: i, Core: core, Unit: unit, salts: salts})
	}
	if cfg.Observer != nil {
		k.bus.Subscribe(cfg.Observer, obs.Options{Classes: cfg.ObserverClasses})
	}
	return k
}

// Bus returns the machine's event bus.
func (k *Kernel) Bus() *obs.Bus { return k.bus }

// Observe subscribes o to the machine's event bus after boot and returns a
// cancel function. One subscription sees every core of the machine.
func (k *Kernel) Observe(o obs.Observer, opts obs.Options) (cancel func()) {
	return k.bus.Subscribe(o, opts)
}

// splitmix is a small deterministic mixer for salt generation.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Phys exposes physical memory (the harness's DMA window).
func (k *Kernel) Phys() *mem.Physical { return k.phys }

// Caches exposes the shared hierarchy.
func (k *Kernel) Caches() *cache.Hierarchy { return k.caches }

// CPU returns hardware thread i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// NumCPUs returns the hardware thread count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Config returns the boot configuration.
func (k *Kernel) Config() Config { return k.cfg }

// SetSSBD toggles SSBD on every hardware thread at run time (the
// SPEC_CTRL write the OS performs).
func (k *Kernel) SetSSBD(on bool) {
	for _, c := range k.cpus {
		c.Unit.SetSSBD(on)
	}
}

// SetPSFD toggles the (ineffective) PSFD bit on every hardware thread.
func (k *Kernel) SetPSFD(on bool) {
	for _, c := range k.cpus {
		c.Unit.SetPSFD(on)
	}
}

// NewProcess creates a process in the given security domain.
func (k *Kernel) NewProcess(name string, d Domain) *Process {
	k.nextID++
	p := &Process{
		ID:       k.nextID,
		Name:     name,
		Domain:   d,
		AS:       mem.NewAddrSpace(),
		kernel:   k,
		nextMmap: 0x7f0000000000,
	}
	k.procs = append(k.procs, p)
	return p
}

// emitFlush reports a predictor flush on the bus; call before flushing so the
// live entry count is still observable.
func (k *Kernel) emitFlush(cpu *CPU, predictor string, entries int, cause string) {
	if entries > 0 && k.bus.On(obs.ClassPredict) {
		k.bus.Emit(obs.PredictorFlushEvent{
			CPU: cpu.ID, Cycle: k.bus.Now(),
			Predictor: predictor, Entries: entries, Cause: cause,
		})
	}
}

// switchTo performs the context-switch bookkeeping before p runs on cpu.
func (k *Kernel) switchTo(cpu *CPU, p *Process) {
	if cpu.current == p {
		return
	}
	// The hardware flushes PSFP on every context switch; SSBP survives —
	// that asymmetry is Vulnerability 1.
	k.emitFlush(cpu, "psfp", cpu.Unit.PSFP().Len(), "context-switch")
	cpu.Unit.FlushPSFP()
	if k.cfg.FlushSSBPOnSwitch {
		k.emitFlush(cpu, "ssbp", cpu.Unit.SSBP().Len(), "mitigation")
		cpu.Unit.FlushSSBP()
	}
	cpu.Core.FlushTLBs()
	if k.cfg.RotateSalt {
		cpu.epoch++
		cpu.Unit.SetSelectionSalt(splitmix(uint64(k.cfg.Seed)*977 + cpu.epoch))
	} else if k.cfg.SaltPerDomain {
		cpu.Unit.SetSelectionSalt(cpu.salts[p.Domain])
	}
	if k.bus.On(obs.ClassKernel) {
		ev := obs.ContextSwitchEvent{
			CPU: cpu.ID, Cycle: k.bus.Now(),
			ToPID: p.ID, ToName: p.Name, ToDomain: p.Domain.String(),
			PSFPFlushed: true,
			SSBPFlushed: k.cfg.FlushSSBPOnSwitch,
			SaltRotated: k.cfg.RotateSalt,
		}
		if from := cpu.current; from != nil {
			ev.FromPID, ev.FromName, ev.FromDomain = from.ID, from.Name, from.Domain.String()
		}
		k.bus.Emit(ev)
	}
	cpu.current = p
}

// RunOn runs process p on hardware thread cpu from entry until it halts,
// faults or exceeds maxInsts. Syscalls are serviced in the loop: every
// syscall flushes PSFP (the paper observed the flush on syscalls and
// yields); SysSleep additionally flushes SSBP. As from Core.Run, the
// result's Stlds are valid until the next run on cpu.
func (k *Kernel) RunOn(cpuIdx int, p *Process, entry uint64, maxInsts uint64) pipeline.RunResult {
	cpu := k.cpus[cpuIdx]
	if k.inj != nil {
		// Run-boundary faults: between program runs is where co-resident
		// activity strikes on hardware (the run itself stays atomic, as a
		// single quantum does).
		defer k.inj.RunBoundary(fault.Targets{
			PSFP:  cpu.Unit.PSFP(),
			SSBP:  cpu.Unit.SSBP(),
			Cache: k.caches,
		})
	}
	k.switchTo(cpu, p)
	// Events of runs the loop continues past are copied into all before the
	// next Core.Run reuses its buffer; a program that ran in one Core.Run
	// returns that run's result as it is.
	var all []pipeline.StldEvent
	var insts uint64
	for {
		res := cpu.Core.Run(p, entry, &p.Regs, maxInsts)
		insts += res.Insts
		switch res.Stop {
		case pipeline.StopSyscall:
			k.emitFlush(cpu, "psfp", cpu.Unit.PSFP().Len(), "syscall")
			cpu.Unit.FlushPSFP()
			switch p.Regs[isa.RAX] {
			case SysSleep:
				k.emitFlush(cpu, "ssbp", cpu.Unit.SSBP().Len(), "sleep")
				cpu.Unit.FlushAll()
			case SysYield:
				// PSFP flush already done; the scheduler picks us again.
			}
			all = append(all, res.Stlds...)
			entry = res.EndPC
			continue
		case pipeline.StopFault:
			// Transparent copy-on-write handling: a write fault on a COW
			// page copies the frame and retries the instruction.
			if pte, ok := p.AS.Lookup(res.FaultVA); ok && pte.COW && pte.Perm&mem.PermW != 0 {
				if err := p.BreakCOW(res.FaultVA); err == nil {
					all = append(all, res.Stlds...)
					entry = res.FaultPC
					continue
				}
			}
		}
		if all != nil {
			res.Stlds = append(all, res.Stlds...)
		}
		res.Insts = insts
		return res
	}
}

// Run runs p on hardware thread 0.
func (k *Kernel) Run(p *Process, entry uint64, maxInsts uint64) pipeline.RunResult {
	return k.RunOn(0, p, entry, maxInsts)
}

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel{cpus=%d procs=%d}", len(k.cpus), len(k.procs))
}
