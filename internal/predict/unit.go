package predict

import (
	"math/rand"

	"zenspec/internal/obs"
)

// Query identifies the store-load pair consulting the disambiguator. AMD
// selects by instruction physical addresses; the Intel and ARM baselines
// select by instruction virtual addresses (TABLE IV), so both are carried.
type Query struct {
	StoreIPA, LoadIPA uint64
	StoreIVA, LoadIVA uint64
}

// Prediction is the disambiguator's answer for a load younger than an
// address-unresolved store.
type Prediction struct {
	// Aliasing predicts the load and store target the same address: the load
	// must wait for the store (and may receive its data by forwarding).
	Aliasing bool
	// PSF additionally predicts that the store's data can be forwarded to
	// the load before the store's address is generated.
	PSF bool
	// Counters is the combined state snapshot behind the prediction (AMD
	// unit only; zero for baselines).
	Counters Counters
}

// Disambiguator is the interface between the pipeline's load-store unit and
// a store bypass predictor, satisfied by the AMD Unit and by the Intel/ARM
// baselines.
type Disambiguator interface {
	// Predict is consulted when a load is ready but an older store's address
	// is not. It must not mutate predictor state.
	Predict(q Query) Prediction
	// Verify is called once the store's address resolves, with the ground
	// truth; it applies the training update and returns the execution type.
	Verify(q Query, aliasing bool) ExecType
	// FlushPredictor models a context switch flush.
	FlushPredictor()
	// Name identifies the design for reports.
	Name() string
}

// Stats counts predictor events.
type Stats struct {
	Predicts uint64
	Verifies uint64
	Types    [numTypes]uint64
	Flushes  uint64
}

// Config configures the AMD unit.
type Config struct {
	// PSFPSize overrides the reverse-engineered PSFP capacity when non-zero.
	PSFPSize int
	// Seed drives SSBP victim selection.
	Seed int64
	// SSBD is Speculative Store Bypass Disable (SPEC_CTRL bit 2): every load
	// serializes behind unresolved stores; all entries behave as the Block
	// state and training stops (Section VI-A).
	SSBD bool
	// PSFD is Predictive Store Forwarding Disable (SPEC_CTRL bit 7). The
	// paper found the predictors continue to function with PSFD set on every
	// tested platform, so the flag is recorded but — faithfully to the
	// measured hardware — has no effect on behavior.
	PSFD bool
	// SelectionSalt, when non-zero, is XORed into IPAs before hashing — the
	// "randomize selection" mitigation sketched in Section VI-B. The kernel
	// model gives each security domain its own salt, making cross-domain
	// collision finding infeasible.
	SelectionSalt uint64
}

// Unit is the combined AMD Zen 3 speculative memory access predictor: PSFP
// (C0,C1,C2) and SSBP (C3,C4) behind the TABLE I state machine. One Unit
// models the predictor resources of one SMT hardware thread; the paper found
// the resources are duplicated, not shared, between threads.
type Unit struct {
	cfg   Config
	psfp  *PSFP
	ssbp  *SSBP
	stats Stats
	bus   *obs.Bus
	cpu   int
}

var _ Disambiguator = (*Unit)(nil)

// NewUnit returns a fresh predictor unit.
func NewUnit(cfg Config) *Unit {
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Unit{
		cfg:  cfg,
		psfp: NewPSFP(cfg.PSFPSize),
		ssbp: NewSSBP(rng),
	}
}

// Clone returns a copy of u's entries, in PSFP LRU order and SSBP slot
// order, with its stats and config, whose SSBP replacement generator
// restarts from seed as NewUnit seeds it. The copy has no bus attached. It
// only reads u, so clones of one unit may be taken concurrently.
func (u *Unit) Clone(seed int64) *Unit {
	c := &Unit{cfg: u.cfg, stats: u.stats}
	c.cfg.Seed = seed
	c.psfp = &PSFP{size: u.psfp.size, entries: append(make([]psfpEntry, 0, u.psfp.size), u.psfp.entries...)}
	c.ssbp = &SSBP{entries: append(make([]ssbpEntry, 0, SSBPWays), u.ssbp.entries...), rng: rand.New(rand.NewSource(seed))}
	return c
}

// Name implements Disambiguator.
func (u *Unit) Name() string { return "amd-psfp-ssbp" }

// AttachBus connects the unit to an event bus as hardware thread cpu's
// predictor resources. Capacity evictions inside PSFP (LRU drop) and SSBP
// (random replacement) surface as obs.PredictorEvictEvent; fault-injector
// hooks (EvictAt, FlipAt) do not fire these — they are reported by the
// injector itself as fault events.
func (u *Unit) AttachBus(b *obs.Bus, cpu int) {
	u.bus = b
	u.cpu = cpu
	u.psfp.onEvict = func(e psfpEntry) {
		if u.bus.On(obs.ClassPredict) {
			obs.Emit(u.bus, obs.PredictorEvictEvent{
				CPU: u.cpu, Cycle: u.bus.Now(), Predictor: "psfp",
				StoreTag: e.storeTag, LoadTag: e.loadTag,
				Counters: obs.Counters{C0: e.c0, C1: e.c1, C2: e.c2},
			})
		}
	}
	u.ssbp.onEvict = func(e ssbpEntry) {
		if u.bus.On(obs.ClassPredict) {
			obs.Emit(u.bus, obs.PredictorEvictEvent{
				CPU: u.cpu, Cycle: u.bus.Now(), Predictor: "ssbp",
				LoadTag:  e.tag,
				Counters: obs.Counters{C3: e.c3, C4: e.c4},
			})
		}
	}
}

func (u *Unit) hash(ipa uint64) uint16 { return Hash48(ipa ^ u.cfg.SelectionSalt) }

// counters gathers the combined 5-counter state for a pair.
func (u *Unit) counters(q Query) Counters {
	st, lt := u.hash(q.StoreIPA), u.hash(q.LoadIPA)
	var c Counters
	c.C0, c.C1, c.C2 = u.psfp.Get(st, lt)
	c.C3, c.C4 = u.ssbp.Get(lt)
	return c
}

// Predict implements Disambiguator.
func (u *Unit) Predict(q Query) Prediction {
	u.stats.Predicts++
	var pred Prediction
	if u.cfg.SSBD {
		// Block state everywhere: always alias-predicted, never PSF.
		pred = Prediction{Aliasing: true, PSF: false}
	} else {
		c := u.counters(q)
		pred = Prediction{Aliasing: c.PredictAliasing(), PSF: c.PSFEnabled(), Counters: c}
	}
	if u.bus.On(obs.ClassPredict) {
		st, lt := u.hash(q.StoreIPA), u.hash(q.LoadIPA)
		cs := pred.Counters
		obs.Emit(u.bus, obs.PredictEvent{
			CPU: u.cpu, Cycle: u.bus.Now(),
			StoreIPA: q.StoreIPA, LoadIPA: q.LoadIPA,
			Aliasing: pred.Aliasing, PSF: pred.PSF,
			PSFPHit:  u.psfp.Contains(st, lt),
			Counters: obs.Counters{C0: cs.C0, C1: cs.C1, C2: cs.C2, C3: cs.C3, C4: cs.C4},
		})
	}
	return pred
}

// Verify implements Disambiguator: it applies the TABLE I update for the
// pair and returns the execution type. With SSBD set, entries are pinned and
// the outcome is the Block-state behaviour (φ(n)=E, φ(a)=A).
func (u *Unit) Verify(q Query, aliasing bool) ExecType {
	u.stats.Verifies++
	if u.cfg.SSBD {
		t := TypeE
		if aliasing {
			t = TypeA
		}
		u.stats.Types[t]++
		return t
	}
	st, lt := u.hash(q.StoreIPA), u.hash(q.LoadIPA)
	present := u.psfp.Contains(st, lt)
	c := u.counters(q)
	n, t := c.UpdateWithPresence(aliasing, present)
	// PSFP entries are created only by a type-G rollback (the hard retrain);
	// other execution types update an existing entry in place but never
	// allocate — which is why the paper's (40 n_0^j) drain sequences clear
	// C3 without disturbing the PSFP eviction experiments.
	if present || t == TypeG {
		u.psfp.Put(st, lt, n.C0, n.C1, n.C2)
	}
	if n.C3 != c.C3 || n.C4 != c.C4 || u.ssbp.Contains(lt) {
		u.ssbp.Put(lt, n.C3, n.C4)
	}
	u.stats.Types[t]++
	if u.bus.On(obs.ClassPredict) {
		now := u.bus.Now()
		before := obs.Counters{C0: c.C0, C1: c.C1, C2: c.C2, C3: c.C3, C4: c.C4}
		after := obs.Counters{C0: n.C0, C1: n.C1, C2: n.C2, C3: n.C3, C4: n.C4}
		obs.Emit(u.bus, obs.PSFPTrainEvent{
			CPU: u.cpu, Cycle: now, StoreTag: st, LoadTag: lt,
			Type: t.String(), Aliasing: aliasing,
			Before: before, After: after,
			Allocated: !present && t == TypeG,
		})
		obs.Emit(u.bus, obs.SSBPTransitionEvent{
			CPU: u.cpu, Cycle: now, LoadTag: lt,
			Type: t.String(), Aliasing: aliasing,
			Before: before, After: after,
			StateBefore: c.State(), StateAfter: n.State(),
		})
	}
	return t
}

// FlushPredictor implements Disambiguator; for the AMD unit a context switch
// flushes PSFP only (Section IV-A).
func (u *Unit) FlushPredictor() { u.FlushPSFP() }

// FlushPSFP empties PSFP — performed by the hardware on every context
// switch, syscall and yield.
func (u *Unit) FlushPSFP() {
	u.stats.Flushes++
	u.psfp.Flush()
}

// FlushAll empties both predictors — performed when the process sleeps.
func (u *Unit) FlushAll() {
	u.stats.Flushes++
	u.psfp.Flush()
	u.ssbp.Flush()
}

// FlushSSBP empties SSBP only; no hardware event does this, but the
// flush-on-switch mitigation (Section VI-B) uses it.
func (u *Unit) FlushSSBP() { u.ssbp.Flush() }

// PeekCounters returns the combined counter state for a pair without
// recording a prediction — introspection for tests and experiment reports.
func (u *Unit) PeekCounters(q Query) Counters { return u.counters(q) }

// PSFP exposes the PSF predictor for white-box experiments.
func (u *Unit) PSFP() *PSFP { return u.psfp }

// SSBP exposes the SSB predictor for white-box experiments.
func (u *Unit) SSBP() *SSBP { return u.ssbp }

// Stats returns a copy of the event counters.
func (u *Unit) Stats() Stats { return u.stats }

// SetSelectionSalt installs a hash salt (randomized-selection mitigation).
func (u *Unit) SetSelectionSalt(s uint64) { u.cfg.SelectionSalt = s }
