package revng

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/predict"
)

// Slider implements the paper's code-sliding technique (Fig 3): stld machine
// code is copied into executable pages at successive byte offsets, and each
// placement is probed for a predictor collision with a trained target.
type Slider struct {
	lab   *Lab
	proc  *kernel.Process
	tmpl  asm.Stld
	va    uint64 // base of the sliding window
	pages int
	probe Stld // the instance Place returns, reused across offsets
}

// NewSlider maps `pages` executable pages (kernel-chosen frames, as an
// unprivileged attacker would get) to slide stld code through.
func (l *Lab) NewSlider(p *kernel.Process, pages int, tmpl asm.Stld) *Slider {
	va := l.nextVA
	size := uint64(pages+1) * mem.PageSize // +1 so slid code may spill over
	l.nextVA += size + mem.PageSize
	// Executable and writable: the attacker fills it with stld copies.
	for off := uint64(0); off < size; off += mem.PageSize {
		p.AS.Map(va+off, l.K.Phys().AllocFrame(), mem.PermRWX)
	}
	return &Slider{lab: l, proc: p, tmpl: tmpl, va: va, pages: pages}
}

// Place writes the stld at byte offset `at` within the sliding window and
// returns a runnable instance. The instance is the slider's own and is
// rewritten by its next Place: a caller keeping a probe copies it out.
func (s *Slider) Place(at int) *Stld {
	va := s.va + uint64(at)
	s.proc.WriteBytes(va, s.tmpl.Code)
	s.probe = s.lab.finish(s.proc, 0, va, s.tmpl)
	return &s.probe
}

// MaxOffsets returns the number of byte positions available.
func (s *Slider) MaxOffsets() int { return s.pages * mem.PageSize }

// Tmpl returns the stld template being slid.
func (s *Slider) Tmpl() asm.Stld { return s.tmpl }

// SSBPCollisionSearch slides until it finds an stld whose load shares the
// target's SSBP entry, detected purely by timing: the target is trained to
// C3=15, so a colliding prober stalls (type F) where a non-colliding one is
// fast (type H). It returns the number of attempts, or ok=false if the
// window is exhausted.
func (s *Slider) SSBPCollisionSearch(target *Stld, step int) (attempts int, found *Stld, ok bool) {
	if step <= 0 {
		step = 1
	}
	target.Phi(Seq(7, -1, 7, -1, 7, -1)) // C3=15, C4=3
	for at := 0; at+len(s.tmpl.Code) < s.MaxOffsets(); at += step {
		attempts++
		probe := s.Place(at)
		ob := probe.Run(false)
		if ob.Class == ClassStall {
			if s.confirmSSBP(target, probe) {
				found := *probe
				return attempts, &found, true
			}
		}
	}
	return attempts, nil, false
}

// confirmSSBP separates a true SSBP collision from a spuriously trained
// probe entry when the machine runs under fault injection (always true on a
// quiet machine, keeping the clean search untouched). Only a collider
// shares the target's entry, so after draining the probe to fast, a target
// retrain brings the stall back for the collider alone.
func (s *Slider) confirmSSBP(target, probe *Stld) bool {
	if !s.lab.faulted {
		return true
	}
	for i := 0; i < 40 && probe.Run(false).Class != ClassFast; i++ {
	}
	target.Phi(Seq(7, -1, 7, -1, 7, -1))
	return probe.Run(false).Class == ClassStall
}

// PSFPCollisionSearch slides until it finds an stld selecting the target's
// PSFP entry (both store and load hashes must match). The target is trained
// with a single (7n, a) — C0=4 with C3 still 0 — so a colliding prober
// stalls while everything else is fast.
func (s *Slider) PSFPCollisionSearch(target *Stld, step int) (attempts int, found *Stld, ok bool) {
	if step <= 0 {
		step = 1
	}
	target.Phi(Seq(7, -1)) // C0=4, C3=0 (first G leaves C4=1)
	// Under fault injection the target's PSFP entry has a lifetime of ~1/
	// PSFPEvictRate run boundaries — far shorter than a multi-page sweep —
	// so the search refreshes it periodically, and every stall candidate is
	// cross-examined against a canary (see confirmPSFP). The canary shares
	// only the target's load hash: it selects the target's SSBP entry but
	// can never select its PSFP entry.
	var canary *Stld
	if s.lab.faulted {
		canary = s.lab.PlaceStldHash(target.StoreHash^0x5a5, target.LoadHash)
	}
	for at := 0; at+len(s.tmpl.Code) < s.MaxOffsets(); at += step {
		if canary != nil && attempts%64 == 0 && attempts > 0 {
			// Drain the SSBP side first so the refresh below can only be
			// predicted through C0: a correctly predicted aliasing run
			// (type B) keeps C0 alive without the rollback whose G would
			// ratchet C4 toward saturation; a G happens only when an
			// injected eviction actually killed the entry.
			for i := 0; i < 20 && canary.Run(false).Class != ClassFast; i++ {
			}
			target.Run(true)
		}
		attempts++
		probe := s.Place(at)
		ob := probe.Run(false)
		if ob.Class == ClassStall {
			if s.confirmPSFP(target, probe, canary) {
				found := *probe
				return attempts, &found, true
			}
		}
	}
	return attempts, nil, false
}

// confirmPSFP is the PSFP analog of confirmSSBP: drain the probe's entry,
// refresh the target's, and require the stall back. Without it, every
// spuriously trained pair in the window reads as a "collision" — at
// fault-plan rates that is near-certain over a 16-page sliding search. The
// canary (nil on a quiet machine, where the raw stall is trusted) is the
// search's load-hash-only stld, used to silence the SSBP entry: fault-
// forced retrain rollbacks eventually saturate the target's C4 and arm
// C3=15, after which every probe sharing just the load hash stalls exactly
// like a PSFP collider — only a stall the canary cannot drain away is C0's.
func (s *Slider) confirmPSFP(target, probe, canary *Stld) bool {
	if canary == nil {
		return true
	}
	// A stall here may come from the probe's own spuriously trained SSBP
	// entry (C3 up to 15), not just a PSFP C0 — drain long enough for both.
	for i := 0; i < 40 && probe.Run(false).Class != ClassFast; i++ {
	}
	// Drain the SSBP side, refresh C0 (type B if alive, G if lost), drain
	// the SSBP side again (the G may have armed C3), then re-probe: only
	// the target's PSFP C0 can stall the probe now.
	for i := 0; i < 20 && canary.Run(false).Class != ClassFast; i++ {
	}
	target.Run(true)
	for i := 0; i < 20 && canary.Run(false).Class != ClassFast; i++ {
	}
	return probe.Run(false).Class == ClassStall
}

// Fig4Result demonstrates the hash's mathematical characteristics: for every
// colliding pair found by sliding, the XOR of the two load IPAs folds to
// zero at bit stride 12.
type Fig4Result struct {
	Pairs       int
	StrideXORok int
}

// Fig4 mines colliding load-IPA pairs with the slider and checks the
// stride-12 XOR property. Targets are independent machines, so they run on
// the harness worker pool.
func Fig4(cfg kernel.Config, targets int) Fig4Result {
	type cell struct{ pair, xorOK bool }
	cells := harness.Trials(harness.Workers(cfg.Parallelism), targets, func(int) cell {
		l := NewLab(cfg)
		target := l.PlaceStld()
		slider := l.NewSlider(l.P, 2, asm.BuildStld(asm.StldOptions{}))
		_, found, ok := slider.SSBPCollisionSearch(target, 1)
		if !ok {
			return cell{}
		}
		return cell{pair: true, xorOK: Fold12(target.LoadIPA^found.LoadIPA) == 0}
	})
	var res Fig4Result
	for _, c := range cells {
		if c.pair {
			res.Pairs++
		}
		if c.xorOK {
			res.StrideXORok++
		}
	}
	return res
}

func (r Fig4Result) String() string {
	return fmt.Sprintf("Fig 4 — %d/%d colliding pairs have stride-12 XOR folding to zero", r.StrideXORok, r.Pairs)
}

// EvictionPoint is one (set size, eviction rate) sample of Fig 5.
type EvictionPoint struct {
	SetSize int
	Rate    float64
}

// Fig5Result reproduces Fig 5: eviction rate versus eviction-set size for
// PSFP and SSBP.
type Fig5Result struct {
	PSFP []EvictionPoint
	SSBP []EvictionPoint
}

// Fig5 measures the eviction curves. PSFP shows a sharp step between 11 and
// 12; SSBP rises gradually past 50% at 16 and ~90% at 32. Every (size,
// trial) cell is an independent machine with a seed derived only from the
// cell, so the grid runs flattened on the harness worker pool.
func Fig5(cfg kernel.Config, pool *harness.ArenaPool, sizes []int, trials int) Fig5Result {
	type cell struct{ psfp, ssbp int }
	cells := harness.TrialsArena(pool, harness.Workers(cfg.Parallelism), len(sizes)*trials, func(c int, a *harness.Arena) cell {
		k, trial := sizes[c/trials], c%trials
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(trial*1000+k)
		return cell{fig5PSFPTrial(tcfg, a, k, trial), fig5SSBPTrial(tcfg, a, k, trial)}
	})
	var res Fig5Result
	for si, k := range sizes {
		evPSFP, evSSBP := 0, 0
		for trial := 0; trial < trials; trial++ {
			evPSFP += cells[si*trials+trial].psfp
			evSSBP += cells[si*trials+trial].ssbp
		}
		res.PSFP = append(res.PSFP, EvictionPoint{k, float64(evPSFP) / float64(trials)})
		res.SSBP = append(res.SSBP, EvictionPoint{k, float64(evSSBP) / float64(trials)})
	}
	return res
}

// fig5PSFPTrial follows the paper's protocol: train a base entry, clear the
// shared C3 through a same-load-hash drainer, prime with k random-hash
// stlds, and probe with (5n): stalls mean the base survived.
func fig5PSFPTrial(cfg kernel.Config, a *harness.Arena, k, trial int) int {
	l := NewLab(cfg)
	r := rand.New(rand.NewSource(int64(trial)*7919 + int64(k)))
	base := l.PlaceStldHash(0x0f0, 0x0e0)
	drainer := l.PlaceStldHash(0x0f1, 0x0e0) // same load hash, other store hash
	base.Phi(Seq(7, -1, 7, -1, 7, -1))       // C0=4, C3=15
	drainer.Phi(Seq(40))                     // clears C3 without touching base PSFP
	used := a.BoolMap32()
	used[0x0f000e0] = true
	used[0x0f100e0] = true
	for i := 0; i < k; i++ {
		var sh, lh uint16
		for {
			sh, lh = uint16(r.Intn(predict.HashEntries)), uint16(r.Intn(predict.HashEntries))
			key := uint32(sh)<<16 | uint32(lh)
			if !used[key] && lh != 0x0e0 {
				used[key] = true
				break
			}
		}
		prime := l.PlaceStldHash(sh, lh)
		prime.Run(true) // one G allocates the PSFP entry
	}
	obs := base.Phi(Seq(5))
	stalls := 0
	for _, o := range obs {
		if o.Class == ClassStall {
			stalls++
		}
	}
	if stalls == 0 {
		return 1 // evicted
	}
	return 0
}

// fig5SSBPTrial trains the base SSBP entry to C3=15, primes k random
// entries, and probes: a fast first probe means the entry was evicted.
func fig5SSBPTrial(cfg kernel.Config, a *harness.Arena, k, trial int) int {
	l := NewLab(cfg)
	r := rand.New(rand.NewSource(int64(trial)*104729 + int64(k)))
	base := l.PlaceStldHash(0x0f0, 0x0e0)
	base.Phi(Seq(7, -1, 7, -1, 7, -1)) // C3=15
	// Drain C0 so the probe outcome depends on C3 only (the F runs also
	// drain C3 a little; plenty remains).
	for i := 0; i < 4; i++ {
		base.Run(false)
	}
	used := a.BoolMap32()
	used[0x0e0] = true
	for i := 0; i < k; i++ {
		var lh uint16
		for {
			lh = uint16(r.Intn(predict.HashEntries))
			if !used[uint32(lh)] {
				used[uint32(lh)] = true
				break
			}
		}
		prime := l.PlaceStldHash(uint16(r.Intn(predict.HashEntries)), lh)
		prime.Run(true) // G allocates the SSBP entry
	}
	// First run re-warms the ITLB (the priming walked many code pages);
	// the second run is the measurement. Both leave the C3 verdict intact:
	// an evicted entry reads fast twice, a surviving one stalls twice.
	base.Run(false)
	if !l.faulted {
		ob := base.Run(false)
		if ob.Class == ClassFast {
			return 1 // evicted
		}
		return 0
	}
	// Under a fault plan a single reading against the two-cycle-wide fast
	// boundary is hopeless: injected timer jitter alone is wider than that.
	// Take the minimum of three readings (cancels additive jitter; a
	// surviving entry stalls all three, its C3 is ~11 here) and split at the
	// forward/stall boundary, which sits tens of cycles clear of both sides.
	best := base.Run(false).Cycles
	for i := 0; i < 2; i++ {
		if c := base.Run(false).Cycles; c < best {
			best = c
		}
	}
	if best <= l.Cls.ForwardMax {
		return 1 // evicted
	}
	return 0
}

func (r Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 5 — eviction rate vs eviction-set size\n")
	fmt.Fprintf(&sb, "%6s %8s %8s\n", "size", "PSFP", "SSBP")
	for i := range r.PSFP {
		fmt.Fprintf(&sb, "%6d %7.0f%% %7.0f%%\n", r.PSFP[i].SetSize, 100*r.PSFP[i].Rate, 100*r.SSBP[i].Rate)
	}
	return sb.String()
}

// Fig7Result reproduces Fig 7: the distribution of collision-finding
// attempts for SSBP and the distance dependence for PSFP.
type Fig7Result struct {
	SSBPAttempts []int // per-trial attempts
	SSBPMean     float64
	// SSBPHistogram buckets the attempts into 512-attempt bins (the paper
	// plots the distribution; ours is bounded by 4096 per page).
	SSBPHistogram []int
	// PSFP: attempts by distance delta (attacker distance - victim distance,
	// in bytes); -1 attempts means not found within the window.
	PSFPSameDistanceFound int
	PSFPSameDistanceTried int
	PSFPDiffDistanceFound int
	PSFPDiffDistanceTried int
}

// Fig7 runs the collision-finding measurements. SSBP trials and PSFP trials
// are each independent machines seeded from the trial index, so both grids
// run on the harness worker pool; the distribution statistics are folded in
// trial order afterwards.
func Fig7(cfg kernel.Config, ssbpTrials, psfpTrials int) Fig7Result {
	workers := harness.Workers(cfg.Parallelism)

	// SSBP: byte-granular sliding through fresh attacker pages, random
	// victim placement.
	type ssbpCell struct {
		attempts int
		ok       bool
	}
	ssbp := harness.Trials(workers, ssbpTrials, func(trial int) ssbpCell {
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(trial)
		l := NewLab(tcfg)
		r := rand.New(rand.NewSource(int64(trial)*31 + 7))
		target := l.PlaceStldRandom(r.Intn)
		slider := l.NewSlider(l.P, 2, asm.BuildStld(asm.StldOptions{}))
		attempts, _, ok := slider.SSBPCollisionSearch(target, 1)
		return ssbpCell{attempts, ok}
	})
	var res Fig7Result
	for _, c := range ssbp {
		if c.ok {
			res.SSBPAttempts = append(res.SSBPAttempts, c.attempts)
		}
	}
	var sum int
	res.SSBPHistogram = make([]int, 17)
	for _, a := range res.SSBPAttempts {
		sum += a
		bin := a / 512
		if bin >= len(res.SSBPHistogram) {
			bin = len(res.SSBPHistogram) - 1
		}
		res.SSBPHistogram[bin]++
	}
	if len(res.SSBPAttempts) > 0 {
		res.SSBPMean = float64(sum) / float64(len(res.SSBPAttempts))
	}

	// PSFP: same vs different store→load distance, byte-granular sliding
	// over 16 pages (the paper's configuration, achieving >90% success for
	// equal distances). Both placements of one trial share the trial's RNG,
	// so they stay inside one closure.
	type psfpCell struct{ same, diff bool }
	psfp := harness.Trials(workers, psfpTrials, func(trial int) psfpCell {
		tcfg := cfg
		tcfg.Seed = cfg.Seed + 10_000 + int64(trial)
		// Same distance.
		l := NewLab(tcfg)
		r := rand.New(rand.NewSource(int64(trial)*17 + 3))
		target := l.PlaceStldRandom(r.Intn)
		slider := l.NewSlider(l.P, 16, asm.BuildStld(asm.StldOptions{}))
		var c psfpCell
		_, _, c.same = slider.PSFPCollisionSearch(target, 1)
		// Different distance: the attacker's stld has extra padding between
		// the store and the load.
		l2 := NewLab(tcfg)
		target2 := l2.PlaceStldRandom(r.Intn)
		slider2 := l2.NewSlider(l2.P, 16, asm.BuildStld(asm.StldOptions{PadBetween: 3}))
		_, _, c.diff = slider2.PSFPCollisionSearch(target2, 1)
		return c
	})
	for _, c := range psfp {
		res.PSFPSameDistanceTried++
		if c.same {
			res.PSFPSameDistanceFound++
		}
		res.PSFPDiffDistanceTried++
		if c.diff {
			res.PSFPDiffDistanceFound++
		}
	}
	return res
}

func (r Fig7Result) String() string {
	var sb strings.Builder
	att := append([]int(nil), r.SSBPAttempts...)
	sort.Ints(att)
	median := 0
	if len(att) > 0 {
		median = att[len(att)/2]
	}
	fmt.Fprintf(&sb, "Fig 7 — SSBP collision attempts: %d trials, mean %.0f, median %d (bound 4096 per page set)\n",
		len(r.SSBPAttempts), r.SSBPMean, median)
	sb.WriteString("Fig 7 — attempts distribution (bins of 512): ")
	for i, n := range r.SSBPHistogram {
		if n > 0 {
			fmt.Fprintf(&sb, "[%d-%d):%d ", i*512, (i+1)*512, n)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Fig 7 — PSFP collisions: same distance %d/%d found; different distance %d/%d found\n",
		r.PSFPSameDistanceFound, r.PSFPSameDistanceTried,
		r.PSFPDiffDistanceFound, r.PSFPDiffDistanceTried)
	return sb.String()
}
