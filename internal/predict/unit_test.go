package predict

import (
	"math/rand"
	"strings"
	"testing"
)

// mkQuery builds a query whose store/load IPAs hash to the given tags (using
// page offsets in distinct frames so hashes are directly controllable).
func mkQuery(storeTag, loadTag uint16) Query {
	storeIPA := uint64(CollidingOffset(0x100, storeTag)) | 0x100<<12
	loadIPA := uint64(CollidingOffset(0x200, loadTag)) | 0x200<<12
	return Query{StoreIPA: storeIPA, LoadIPA: loadIPA, StoreIVA: storeIPA, LoadIVA: loadIPA}
}

// trainVerify runs a φ sequence through the unit and returns the types.
func trainVerify(u *Unit, q Query, inputs []bool) []ExecType {
	out := make([]ExecType, len(inputs))
	for i, a := range inputs {
		out[i] = u.Verify(q, a)
	}
	return out
}

func TestUnitMatchesStateMachine(t *testing.T) {
	// A unit driven with a single pair must behave exactly like the bare
	// state machine over random sequences.
	r := rand.New(rand.NewSource(11))
	u := NewUnit(Config{Seed: 1})
	q := mkQuery(3, 5)
	ref := Counters{}
	for i := 0; i < 300; i++ {
		aliasing := r.Intn(2) == 0
		var refType ExecType
		ref, refType = ref.Update(aliasing)
		got := u.Verify(q, aliasing)
		if got != refType {
			t.Fatalf("step %d: unit %v, reference %v", i, got, refType)
		}
		if c := u.PeekCounters(q); c != ref {
			t.Fatalf("step %d: unit counters %+v, reference %+v", i, c, ref)
		}
	}
}

func TestUnitPredictConsistency(t *testing.T) {
	u := NewUnit(Config{Seed: 1})
	q := mkQuery(1, 2)
	if p := u.Predict(q); p.Aliasing || p.PSF {
		t.Error("fresh pair should predict non-aliasing")
	}
	u.Verify(q, true) // G: trains aliasing
	if p := u.Predict(q); !p.Aliasing {
		t.Error("after G the pair should predict aliasing")
	}
	// PSF after dropping C1 below 12 with aliasing runs.
	for i := 0; i < 5; i++ {
		u.Verify(q, true)
	}
	if p := u.Predict(q); !p.PSF {
		t.Errorf("PSF should be enabled after 5 aliasing runs: %+v", p.Counters)
	}
}

// TestUnitC3SharedByLoadTag verifies the TABLE II conclusion: C3/C4 are
// selected by the load IPA only, C0/C1/C2 by both.
func TestUnitC3SharedByLoadTag(t *testing.T) {
	u := NewUnit(Config{Seed: 1})
	base := mkQuery(0, 0)
	// Train to C3=15 on load tag 0.
	trainVerify(u, base, seq(7, -1, 7, -1, 7, -1))
	if c := u.PeekCounters(base); c.C3 != 15 {
		t.Fatalf("training failed: %+v", c)
	}
	// Same load tag, different store tag: shares C3/C4, fresh C0/C1/C2.
	other := mkQuery(9, 0)
	c := u.PeekCounters(other)
	if c.C3 != 15 || c.C4 != 3 {
		t.Errorf("a_0^1 should share SSBP entry: %+v", c)
	}
	if c.C0 != 0 || c.C1 != 0 || c.C2 != 0 {
		t.Errorf("a_0^1 should have fresh PSFP entry: %+v", c)
	}
	// Different load tag: nothing shared.
	far := mkQuery(0, 7)
	if c := u.PeekCounters(far); c.C3 != 0 || c.C0 != 0 {
		t.Errorf("different load tag shares state: %+v", c)
	}
}

// TestUnitSSBD checks Section VI-A: with SSBD all pairs behave as the Block
// state — φ(n)=E, φ(a)=A — and no training happens.
func TestUnitSSBD(t *testing.T) {
	u := NewUnit(Config{SSBD: true, Seed: 1})
	q := mkQuery(1, 1)
	for i := 0; i < 10; i++ {
		if ty := u.Verify(q, false); ty != TypeE {
			t.Fatalf("SSBD φ(n) = %v, want E", ty)
		}
		if ty := u.Verify(q, true); ty != TypeA {
			t.Fatalf("SSBD φ(a) = %v, want A", ty)
		}
	}
	if p := u.Predict(q); !p.Aliasing || p.PSF {
		t.Error("SSBD must predict aliasing without PSF")
	}
	if u.PSFP().Len() != 0 || u.SSBP().Len() != 0 {
		t.Error("SSBD must not train entries")
	}
}

// TestUnitPSFDIneffective checks the paper's negative result: setting PSFD
// changes nothing — the predictors continue to function.
func TestUnitPSFDIneffective(t *testing.T) {
	on := NewUnit(Config{PSFD: true, Seed: 1})
	off := NewUnit(Config{Seed: 1})
	q := mkQuery(2, 3)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		aliasing := r.Intn(2) == 0
		if on.Verify(q, aliasing) != off.Verify(q, aliasing) {
			t.Fatal("PSFD changed behaviour; the paper found it does not")
		}
	}
}

// TestUnitFlushSemantics: context switch flushes PSFP only; sleep flushes
// both (Section IV-A).
func TestUnitFlushSemantics(t *testing.T) {
	u := NewUnit(Config{Seed: 1})
	q := mkQuery(1, 2)
	trainVerify(u, q, seq(7, -1, 7, -1, 7, -1))
	pre := u.PeekCounters(q)
	if pre.C0 == 0 || pre.C3 == 0 {
		t.Fatalf("training failed: %+v", pre)
	}
	u.FlushPSFP() // context switch
	c := u.PeekCounters(q)
	if c.C0 != 0 || c.C1 != 0 || c.C2 != 0 {
		t.Errorf("PSFP survived context switch: %+v", c)
	}
	if c.C3 != pre.C3 || c.C4 != pre.C4 {
		t.Errorf("SSBP must survive context switch: %+v", c)
	}
	u.FlushAll() // sleep
	if c := u.PeekCounters(q); !c.Zero() {
		t.Errorf("sleep must flush everything: %+v", c)
	}
}

func TestUnitSelectionSalt(t *testing.T) {
	u := NewUnit(Config{Seed: 1, SelectionSalt: 0xdeadbeef})
	// With a salt, two IPAs that collide unsalted may no longer collide, but
	// the unit must still be internally consistent.
	q := mkQuery(1, 1)
	trainVerify(u, q, seq(7, -1))
	if c := u.PeekCounters(q); c.C0 != 4 {
		t.Errorf("salted unit broken: %+v", c)
	}
	// The salted hash differs from the unsalted one for most inputs.
	plain := NewUnit(Config{Seed: 1})
	diff := 0
	for ipa := uint64(0); ipa < 64; ipa++ {
		if u.hash(ipa<<12) != plain.hash(ipa<<12) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("salt has no effect on selection")
	}
	plain.SetSelectionSalt(0xdeadbeef)
	if plain.hash(0x1234) != u.hash(0x1234) {
		t.Error("SetSelectionSalt mismatch")
	}
}

func TestUnitStats(t *testing.T) {
	u := NewUnit(Config{Seed: 1})
	q := mkQuery(1, 1)
	u.Predict(q)
	u.Verify(q, false) // H
	u.Verify(q, true)  // G
	s := u.Stats()
	if s.Predicts != 1 || s.Verifies != 2 {
		t.Errorf("stats %+v", s)
	}
	if s.Types[TypeH] != 1 || s.Types[TypeG] != 1 {
		t.Errorf("type counts %+v", s.Types)
	}
	if u.Name() != "amd-psfp-ssbp" {
		t.Error("Name")
	}
}

// TestTransitionTable: the generated TABLE I rendering covers every named
// state and never claims an impossible transition.
func TestTransitionTable(t *testing.T) {
	table := TransitionTable()
	for _, state := range []string{"Initialize", "Block", "LoadFromCache",
		"PSFEnabledS1", "PSFDisabledS1", "PSFEnabledS2", "PSFDisabledS2"} {
		if !strings.Contains(table, state) {
			t.Errorf("state %s missing from the rendered table", state)
		}
	}
	if !strings.Contains(table, "no change") {
		t.Error("the Block row should show 'no change'")
	}
}
