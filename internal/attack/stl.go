package attack

import (
	"sync"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/revng"
	"zenspec/internal/sidechannel"
)

// Address layout of the Spectre-STL victim (the attack is intra-process:
// out-of-place extends the attack surface within one address space, since
// PSFP is flushed on every context switch).
const (
	stlVictimVA = 0x1000000
	stlArray1VA = 0x2000000
	stlArray2VA = 0x3000000
	stlIdxVA    = 0x4000000
	stlSecretVA = 0x5000000
	stlFRCodeVA = 0x6000000
	// stlStoreIdx is the store's slot during triggers: outside the probed
	// 0..255 range so the store itself does not pollute the channel.
	stlStoreIdx = 256
)

// buildSTLVictim assembles the Listing 2 gadget:
//
//	array2[idx * 4096] = x;                       // store, address delayed
//	temp = array2[array1[array2[0]] * 4096];      // ld1, ld2, ld3
//
// idx is loaded from memory (the attacker flushes its line to delay the
// store's address generation) and x arrives in RDI.
//
// Assembled once (see buildCTLVictim for why host-side memoization is safe).
func buildSTLVictim() []byte {
	stlVictimOnce.Do(func() { stlVictimCode = buildSTLVictimCode() })
	return stlVictimCode
}

var (
	stlVictimOnce sync.Once
	stlVictimCode []byte
)

func buildSTLVictimCode() []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R15, stlIdxVA)
	b.Load(isa.RCX, isa.R15, 0) // idx — slow when flushed
	b.Movi(isa.R12, 1)
	for i := 0; i < 10; i++ {
		b.Imul(isa.RCX, isa.RCX, isa.R12)
	}
	b.Shli(isa.RCX, isa.RCX, 12)
	b.Movi(isa.R13, stlArray2VA)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	b.Store(isa.RCX, 0, isa.RDI) // array2[idx<<12] = x
	b.Load(isa.RDX, isa.R13, 0)  // ld1 = array2[0] (8 bytes after the store)
	b.Movi(isa.R14, stlArray1VA)
	b.Add(isa.RBX, isa.RDX, isa.R14)
	b.Load(isa.R8, isa.RBX, 0) // ld2 = array1[ld1]
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 12)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Load(isa.R10, isa.R9, 0) // ld3: encode into a cache line
	b.Halt()
	return b.MustAssemble(stlVictimVA)
}

// STLOptions configures the Spectre-STL attack run.
type STLOptions struct {
	// SliderPages is the code-sliding window (the paper uses 16 pages for a
	// >90% collision rate).
	SliderPages int
	// MaxInstrStep slides at instruction granularity when true (cheaper)
	// instead of byte granularity.
	InstrStep bool
	// Votes is how many independent recoveries each byte gets; the majority
	// wins (ties break toward the smaller value). 1 keeps the
	// single-reading behavior; raise it under fault injection, where an
	// evicted probe line can fake or mask one Flush+Reload hit. 0 picks
	// automatically: 1 on a quiet machine, 3 when the config's fault plan
	// injects machine noise.
	Votes int
	// Retries is how many extra attempts a reading with no probe hit gets
	// before counting as zero; each retry retrains the predictor harder (one
	// extra aliasing run per attempt). 0 means the default of 1 retry.
	Retries int
}

// stlShardBytes is the fixed shard width of the parallel leak: shard count
// is a pure function of the secret length (never of the worker count), so
// the merged result is identical at any parallelism.
const stlShardBytes = 32

// SpectreSTL runs the out-of-place Spectre-STL attack of Section V-B:
// a PSFP collision is found by code sliding, the predictor is trained
// through the attacker's own store-load pair, and each victim execution
// predictively forwards the attacker-chosen x to the victim's load,
// steering a transient secret fetch that is recovered with Flush+Reload.
//
// Long secrets are split into fixed-size shards; each shard is a full
// attacker instance (own machine, own collision search — the setup cost the
// paper reports per attacker) leaking only its byte range. Setup costs and
// cycles are summed over shards.
func SpectreSTL(cfg kernel.Config, secret []byte, opts STLOptions) Result {
	shards := (len(secret) + stlShardBytes - 1) / stlShardBytes
	if shards <= 1 {
		return spectreSTLShard(cfg, secret, opts, 0, len(secret))
	}
	parts := harness.Trials(harness.Workers(cfg.Parallelism), shards, func(s int) Result {
		lo := s * stlShardBytes
		hi := lo + stlShardBytes
		if hi > len(secret) {
			hi = len(secret)
		}
		return spectreSTLShard(cfg, secret, opts, lo, hi)
	})
	res := Result{Name: "out-of-place spectre-stl", Secret: secret}
	for s, p := range parts {
		lo := s * stlShardBytes
		hi := lo + stlShardBytes
		if hi > len(secret) {
			hi = len(secret)
		}
		leaked := p.Leaked
		for len(leaked) < hi-lo {
			leaked = append(leaked, 0) // shard without a collider: no signal
		}
		res.Leaked = append(res.Leaked, leaked...)
		res.CollisionAttempts += p.CollisionAttempts
		res.VictimCalls += p.VictimCalls
		res.Cycles += p.Cycles
	}
	finalize(&res)
	return res
}

// spectreSTLShard is one attacker instance leaking secret[lo:hi]. With
// lo=0, hi=len(secret) it is the whole attack.
func spectreSTLShard(cfg kernel.Config, secret []byte, opts STLOptions, lo, hi int) Result {
	if opts.SliderPages == 0 {
		opts.SliderPages = 16
	}
	if opts.Votes == 0 && cfg.Faults.MachineActive() {
		// A fault plan without an explicit vote count gets the robust
		// profile by default; pass Votes: 1 to keep the fragile single
		// reading on a noisy machine anyway.
		opts.Votes = 3
	}
	if opts.Retries == 0 {
		opts.Retries = 1
		if opts.Votes > 1 {
			opts.Retries = 3
		}
	}
	res := Result{Name: "out-of-place spectre-stl", Secret: secret[lo:hi]}

	l := revng.NewLab(cfg)
	p := l.P
	victim := buildSTLVictim()
	p.MapCode(stlVictimVA, victim)
	p.MapData(stlArray1VA, mem.PageSize)
	p.MapData(stlArray2VA, (stlStoreIdx+2)*mem.PageSize)
	p.MapData(stlIdxVA, mem.PageSize)
	p.MapData(stlSecretVA, uint64(len(secret))+mem.PageSize)
	p.WriteBytes(stlSecretVA, secret)

	fr := sidechannel.New(l.K, p, 0, stlArray2VA, 256, stlFRCodeVA)

	startCycles := l.K.CPU(0).Core.Cycle()

	runVictim := func(x uint64, idx uint64, flushIdx bool) {
		res.VictimCalls++
		p.Write64(stlIdxVA, idx)
		p.WarmLine(stlArray2VA) // ld1's line
		if flushIdx {
			p.FlushLine(stlIdxVA)
		} else {
			p.WarmLine(stlIdxVA)
		}
		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI] = x
		l.K.Run(p, stlVictimVA, 0)
	}

	// leakVia is one transient read through the collider: retrain PSF
	// through the attacker's own pair (drain to a known state, one hard
	// retrain (G), then aliasing runs until predictive forwarding is
	// enabled — C1 below 12; extra runs retrain harder), trigger the
	// victim with the chosen forwarded value x, and recover the encoded
	// byte with Flush+Reload.
	exclude := map[int]bool{0: true} // ld1 keeps array2[0] hot
	var collider *revng.Stld
	leakVia := func(x uint64, extraTrain int) (int, bool) {
		drainUntilFast(collider, 60)
		for j := 0; j < 7+extraTrain; j++ {
			collider.Run(true)
		}
		fr.FlushAll()
		p.Write64(stlArray2VA, 0)
		runVictim(x, stlStoreIdx, true)
		return fr.Recover(exclude)
	}

	// Phase 1 — collision finding: one aliasing victim run trains the
	// victim pair to predict aliasing (C0=4); sliding probes stall exactly
	// when both hashed IPAs match.
	//
	// The robust profile (Votes > 1) hardens the search against co-resident
	// noise: the victim pair is retrained periodically (an evicted PSFP
	// entry silently hides the true collision), every stall must pass a
	// canary self-test (a spuriously trained entry stalls a probe at the
	// wrong offset, and a false collider poisons the whole leak phase), and
	// an exhausted window is rescanned from the top.
	p.Write64(stlArray2VA, 0)
	runVictim(0, 0, true) // idx=0: the store aliases ld1 -> type G trains C0
	step := 1
	if opts.InstrStep {
		step = isa.InstBytes
	}
	slider := l.NewSlider(p, opts.SliderPages, asm.BuildStld(asm.StldOptions{}))
	robust := opts.Votes > 1
	const canaryOff, canaryVal = 64, 0xa5
	passes := 1
	if robust {
		p.WriteBytes(stlArray1VA+canaryOff, []byte{canaryVal})
		passes = 4
	}
	selfTest := func() bool {
		// Leak a byte the attacker planted itself; only the true collider
		// steers the victim's transient fetch to it. The context switch
		// first flushes PSFP — including the victim's self-trained entry,
		// which the periodic refresh keeps alive and which would otherwise
		// carry the canary leak for a false collider — so the only entry
		// left is the one leakVia retrains through the candidate itself.
		l.Tick()
		for attempt := 0; attempt < 2; attempt++ {
			if v, ok := leakVia(canaryOff, attempt); ok && v == canaryVal {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < passes && collider == nil; pass++ {
		if pass > 0 {
			runVictim(0, 0, true)
		}
		for at := 0; at+len(slider.Tmpl().Code) < slider.MaxOffsets(); at += step {
			res.CollisionAttempts++
			if robust && res.CollisionAttempts%64 == 0 {
				runVictim(0, 0, true) // refresh against entry eviction
			}
			probe := slider.Place(at)
			if probe.Run(false).Class != revng.ClassStall {
				continue
			}
			kept := *probe
			collider = &kept
			if !robust || selfTest() {
				break
			}
			collider = nil
			runVictim(0, 0, true) // the failed self-test drained the training
		}
	}
	if collider == nil {
		res.Cycles = l.K.CPU(0).Core.Cycle() - startCycles
		finalize(&res)
		return res
	}

	// Phase 2 — leak, one byte per victim execution. A reading with no probe
	// hit is retried: the first transient walk of a cold page can fall out
	// of the window (TLB misses), and the retry finds it warm — the same
	// retry loop real PoCs carry. Retries retrain one aliasing run harder,
	// recovering entries a fault plan drained between runs.
	readByte := func(i int) (byte, bool) {
		v, ok := 0, false
		for attempt := 0; attempt <= opts.Retries && !ok; attempt++ {
			v, ok = leakVia(stlSecretVA+uint64(i)-stlArray1VA, attempt)
		}
		if !ok {
			v = 0 // no hit outside the polluted slot: the byte was zero
		}
		return byte(v), ok
	}
	for i := lo; i < hi; i++ {
		if opts.Votes <= 1 {
			b, _ := readByte(i)
			res.Leaked = append(res.Leaked, b)
			continue
		}
		// Majority over the votes that actually saw a hit: a spuriously
		// trained SSBP entry on a victim load can suppress the transient
		// window for a dozen consecutive runs (it drains one step per
		// victim execution), so silent votes are the common failure and
		// must not outvote a real reading. A byte with no hit in any vote
		// reads as zero — slot 0 is architecturally excluded, so genuine
		// zero bytes only ever arrive through the no-hit path.
		var votes []byte
		for v := 0; v < opts.Votes; v++ {
			if b, ok := readByte(i); ok {
				votes = append(votes, b)
			}
		}
		if len(votes) == 0 {
			res.Leaked = append(res.Leaked, 0)
			continue
		}
		res.Leaked = append(res.Leaked, majorityByte(votes))
	}
	res.Cycles = l.K.CPU(0).Core.Cycle() - startCycles
	finalize(&res)
	return res
}
