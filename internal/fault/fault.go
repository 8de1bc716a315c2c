// Package fault is the deterministic fault-injection subsystem: a seeded,
// serializable Plan describing how the machine misbehaves, and the injectors
// that apply it to the simulator's predictor state, cache hierarchy, timer,
// and the experiment harness's trial loop.
//
// The design constraint is the same as the harness's: injections may depend
// only on the plan, the machine's own seed, and (for trial-level faults) the
// (experiment, trial, attempt) coordinates — never on goroutine scheduling or
// wall clock. Every machine owns a private injector whose RNG stream is
// consumed serially by that machine's runs, so a faulted suite report stays
// byte-identical at any worker count.
package fault

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"zenspec/internal/cache"
	"zenspec/internal/obs"
	"zenspec/internal/predict"
)

// Plan describes one fault regime. The zero value injects nothing. Rates are
// per run boundary (machine faults) or per attempt (trial faults), in [0, 1].
type Plan struct {
	// Seed decorrelates the injection streams from the experiment seed; two
	// plans differing only in Seed inject at different points.
	Seed int64 `json:"seed,omitempty"`

	// TimerJitter adds deterministic noise in [-J, +J] cycles to every RDPRU
	// reading, on top of any browser-profile jitter already configured —
	// the paper's ~1% RDPRU noise bound, dialed up.
	TimerJitter int64 `json:"timer_jitter,omitempty"`

	// PSFPEvictRate is the probability, at each run boundary, of evicting one
	// random live PSFP entry (co-resident code competing for the 12 entries).
	PSFPEvictRate float64 `json:"psfp_evict_rate,omitempty"`
	// SSBPFlipRate is the probability of perturbing one random live SSBP
	// entry's C3 counter (pollution from other store-load pairs hashing to
	// the same entry).
	SSBPFlipRate float64 `json:"ssbp_flip_rate,omitempty"`
	// SpuriousTrainRate is the probability of inserting a spuriously trained
	// entry at a random tag into each predictor (background processes
	// training entries the attacker never placed).
	SpuriousTrainRate float64 `json:"spurious_train_rate,omitempty"`

	// CacheEvictRate is the probability of a cache-noise event at each run
	// boundary; each event flushes up to CacheEvictLines randomly chosen
	// resident lines — the working-set pressure that defeats naive
	// Flush+Reload probes.
	CacheEvictRate  float64 `json:"cache_evict_rate,omitempty"`
	CacheEvictLines int     `json:"cache_evict_lines,omitempty"`

	// TrialErrorRate forces a harness trial attempt to fail with an error.
	TrialErrorRate float64 `json:"trial_error_rate,omitempty"`
	// TrialPanicRate makes a trial attempt panic (exercising the harness's
	// recover isolation).
	TrialPanicRate float64 `json:"trial_panic_rate,omitempty"`
	// TrialOverrunRate makes a trial attempt overrun its deadline (reported
	// as a deadline error without actually sleeping).
	TrialOverrunRate float64 `json:"trial_overrun_rate,omitempty"`
}

// Default is the documented default intensity: the strongest plan at which
// the STL and CTL attacks still recover 100% of the secret through
// majority-vote calibration (see EXPERIMENTS.md's robustness section).
func Default() Plan {
	return Plan{
		TimerJitter:       6,
		PSFPEvictRate:     0.01,
		SSBPFlipRate:      0.005,
		SpuriousTrainRate: 0.005,
		CacheEvictRate:    0.02,
		CacheEvictLines:   4,
		TrialErrorRate:    0.05,
		TrialPanicRate:    0.02,
		TrialOverrunRate:  0.01,
	}
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.TimerJitter > 0 || p.PSFPEvictRate > 0 || p.SSBPFlipRate > 0 ||
		p.SpuriousTrainRate > 0 || p.CacheEvictRate > 0 ||
		p.TrialErrorRate > 0 || p.TrialPanicRate > 0 || p.TrialOverrunRate > 0
}

// MachineActive reports whether the plan perturbs the simulated machine
// (as opposed to only the harness's trial loop).
func (p Plan) MachineActive() bool {
	return p.TimerJitter > 0 || p.PSFPEvictRate > 0 || p.SSBPFlipRate > 0 ||
		p.SpuriousTrainRate > 0 || p.CacheEvictRate > 0
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Scale returns the plan with every rate and the jitter amplitude multiplied
// by f (rates clamped to [0, 1]); the escalation axis of the fault-family
// experiments.
func (p Plan) Scale(f float64) Plan {
	p.TimerJitter = int64(float64(p.TimerJitter) * f)
	p.PSFPEvictRate = clampRate(p.PSFPEvictRate * f)
	p.SSBPFlipRate = clampRate(p.SSBPFlipRate * f)
	p.SpuriousTrainRate = clampRate(p.SpuriousTrainRate * f)
	p.CacheEvictRate = clampRate(p.CacheEvictRate * f)
	p.TrialErrorRate = clampRate(p.TrialErrorRate * f)
	p.TrialPanicRate = clampRate(p.TrialPanicRate * f)
	p.TrialOverrunRate = clampRate(p.TrialOverrunRate * f)
	return p
}

// Parse resolves a plan spec: "" or "none"/"off" is the empty plan; "mild",
// "default" and "harsh" are presets (0.5x, 1x and 2x of Default); anything
// starting with '{' is an inline JSON Plan object.
func Parse(s string) (Plan, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "none", "off":
		return Plan{}, nil
	case "mild":
		return Default().Scale(0.5), nil
	case "default":
		return Default(), nil
	case "harsh":
		return Default().Scale(2), nil
	}
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "{") {
		var p Plan
		dec := json.NewDecoder(strings.NewReader(t))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return Plan{}, fmt.Errorf("fault: invalid plan JSON: %w", err)
		}
		return p, nil
	}
	return Plan{}, fmt.Errorf("fault: unknown plan %q (want none|mild|default|harsh or a JSON object)", s)
}

func (p Plan) String() string {
	if !p.Active() {
		return "fault-plan{none}"
	}
	b, _ := json.Marshal(p)
	return "fault-plan" + string(b)
}

// Targets is the machine state an injector perturbs at a run boundary.
type Targets struct {
	PSFP  *predict.PSFP
	SSBP  *predict.SSBP
	Cache *cache.Hierarchy
}

// Injector applies a plan's machine-level faults. Each simulated machine
// owns one; its RNG stream is consumed serially by that machine's run
// boundaries, keeping injections reproducible at any worker count.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	bus  *obs.Bus
}

// AttachBus connects the injector to an event bus: every machine-level
// injection surfaces as an obs.FaultEvent. Attaching (or not) never changes
// what is injected — the RNG stream is consumed identically either way.
func (in *Injector) AttachBus(b *obs.Bus) { in.bus = b }

func (in *Injector) emit(kind string, count int) {
	if in.bus.On(obs.ClassFault) {
		obs.Emit(in.bus, obs.FaultEvent{Cycle: in.bus.Now(), Kind: kind, Count: count})
	}
}

// Injector derives a machine-level injector for one stream (typically the
// machine's seed); the same (plan, stream) always injects identically.
func (p Plan) Injector(stream int64) *Injector {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Seed))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(stream))
	h.Write(buf[:])
	return &Injector{plan: p, rng: rand.New(rand.NewSource(int64(h.Sum64() & (1<<63 - 1))))}
}

// RunBoundary rolls the machine-level faults once — called by the kernel
// between program runs, where co-resident activity would strike on hardware.
func (in *Injector) RunBoundary(t Targets) {
	if p := in.plan.PSFPEvictRate; p > 0 && t.PSFP != nil && in.rng.Float64() < p {
		if n := t.PSFP.Len(); n > 0 && t.PSFP.EvictAt(in.rng.Intn(n)) {
			in.emit("psfp-evict", 1)
		}
	}
	if p := in.plan.SSBPFlipRate; p > 0 && t.SSBP != nil && in.rng.Float64() < p {
		// Knock C3 down by 1..4: the drain other pairs' type-F stalls cause.
		if n := t.SSBP.Len(); n > 0 && t.SSBP.FlipAt(in.rng.Intn(n), -(1+in.rng.Intn(4))) {
			in.emit("ssbp-flip", 1)
		}
	}
	if p := in.plan.SpuriousTrainRate; p > 0 && in.rng.Float64() < p {
		if t.SSBP != nil {
			t.SSBP.Put(uint16(in.rng.Intn(4096)), 1+in.rng.Intn(15), in.rng.Intn(4))
		}
		if t.PSFP != nil {
			t.PSFP.Put(uint16(in.rng.Intn(4096)), uint16(in.rng.Intn(4096)),
				1+in.rng.Intn(4), in.rng.Intn(13), 0)
		}
		in.emit("spurious-train", 1)
	}
	if p := in.plan.CacheEvictRate; p > 0 && t.Cache != nil && in.rng.Float64() < p {
		lines := in.plan.CacheEvictLines
		if lines <= 0 {
			lines = 1
		}
		if flushed := t.Cache.FlushRandom(in.rng.Intn, lines); flushed > 0 {
			in.emit("cache-evict", flushed)
		}
	}
}

// TrialFault is a harness-level fault decision.
type TrialFault uint8

// Trial fault kinds.
const (
	TrialNone TrialFault = iota
	TrialError
	TrialPanic
	TrialOverrun
)

func (f TrialFault) String() string {
	switch f {
	case TrialNone:
		return "none"
	case TrialError:
		return "error"
	case TrialPanic:
		return "panic"
	case TrialOverrun:
		return "overrun"
	}
	return "fault?"
}

// TrialFaultAt decides which fault (if any) strikes one attempt of one trial
// of one experiment. It is a pure function of (plan, id, trial, attempt) —
// worker count and execution order cannot change it.
func (p Plan) TrialFaultAt(id string, trial, attempt int) TrialFault {
	total := p.TrialErrorRate + p.TrialPanicRate + p.TrialOverrunRate
	if total <= 0 {
		return TrialNone
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Seed))
	h.Write(buf[:])
	h.Write([]byte(id))
	binary.LittleEndian.PutUint64(buf[:], uint64(trial))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	// 53 uniform bits, exactly representable as a float64 in [0, 1).
	u := float64(h.Sum64()>>11) / float64(1<<53)
	switch {
	case u < p.TrialErrorRate:
		return TrialError
	case u < p.TrialErrorRate+p.TrialPanicRate:
		return TrialPanic
	case u < total:
		return TrialOverrun
	}
	return TrialNone
}
