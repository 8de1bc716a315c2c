package predict

import (
	"math/rand"
	"testing"
)

// refModel is a trivially correct reference for the Unit: unbounded maps of
// PSFP/SSBP entries keyed by hash, with the same update rules but no
// capacity effects. Differential runs with few distinct pairs (no eviction
// pressure) must match the Unit exactly.
type refModel struct {
	psfp map[[2]uint16][3]int
	ssbp map[uint16][2]int
}

func newRefModel() *refModel {
	return &refModel{psfp: map[[2]uint16][3]int{}, ssbp: map[uint16][2]int{}}
}

func (m *refModel) counters(st, lt uint16) Counters {
	p := m.psfp[[2]uint16{st, lt}]
	s := m.ssbp[lt]
	return Counters{C0: p[0], C1: p[1], C2: p[2], C3: s[0], C4: s[1]}
}

func (m *refModel) verify(st, lt uint16, aliasing bool) ExecType {
	_, present := m.psfp[[2]uint16{st, lt}]
	c := m.counters(st, lt)
	n, ty := c.UpdateWithPresence(aliasing, present)
	if present || ty == TypeG {
		m.psfp[[2]uint16{st, lt}] = [3]int{n.C0, n.C1, n.C2}
	}
	if n.C3 != c.C3 || n.C4 != c.C4 || m.ssbpHas(lt) {
		if n.C3 != 0 || n.C4 != 0 || m.ssbpHas(lt) {
			m.ssbp[lt] = [2]int{n.C3, n.C4}
		}
	}
	return ty
}

func (m *refModel) ssbpHas(lt uint16) bool {
	_, ok := m.ssbp[lt]
	return ok
}

// TestUnitDifferentialMultiPair drives the Unit and the unbounded reference
// with interleaved random executions of several store-load pairs (few
// enough that no physical eviction can occur) and requires identical types
// and counters at every step.
func TestUnitDifferentialMultiPair(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		u := NewUnit(Config{Seed: seed})
		ref := newRefModel()
		// At most 6 distinct pairs sharing 3 load hashes: PSFP (12 entries)
		// and SSBP (10 ways) never evict.
		type pair struct{ st, lt uint16 }
		var pairs []pair
		for i := 0; i < 6; i++ {
			pairs = append(pairs, pair{uint16(100 + i), uint16(200 + i%3)})
		}
		for step := 0; step < 500; step++ {
			p := pairs[r.Intn(len(pairs))]
			aliasing := r.Intn(2) == 0
			q := mkQuery(p.st, p.lt)
			got := u.Verify(q, aliasing)
			want := ref.verify(p.st, p.lt, aliasing)
			if got != want {
				t.Fatalf("seed %d step %d pair %v: unit %v, reference %v", seed, step, p, got, want)
			}
			if gc, wc := u.PeekCounters(q), ref.counters(p.st, p.lt); gc != wc {
				t.Fatalf("seed %d step %d pair %v: counters %+v vs %+v", seed, step, p, gc, wc)
			}
		}
	}
}

// TestUnitPredictNeverMutates: Predict must be read-only.
func TestUnitPredictNeverMutates(t *testing.T) {
	u := NewUnit(Config{Seed: 1})
	q := mkQuery(4, 9)
	u.Verify(q, true) // create some state
	before := u.PeekCounters(q)
	for i := 0; i < 50; i++ {
		u.Predict(q)
	}
	if after := u.PeekCounters(q); after != before {
		t.Errorf("Predict mutated state: %+v -> %+v", before, after)
	}
	if u.PSFP().Len() != 1 || u.SSBP().Len() != 1 {
		t.Error("Predict allocated entries")
	}
}

// TestUnitCrossPairC3Sharing: with two pairs sharing a load hash, aliasing
// activity on one drains/retrains the C3 the other observes, exactly as the
// out-of-place attacks require.
func TestUnitCrossPairC3Sharing(t *testing.T) {
	u := NewUnit(Config{Seed: 2})
	victim := mkQuery(1, 7)
	collider := mkQuery(2, 7) // same load hash
	// Saturate via the victim.
	for i := 0; i < 3; i++ {
		// drain C0 then one aliasing run (G)
		for j := 0; j < 6; j++ {
			u.Verify(victim, false)
		}
		u.Verify(victim, true)
	}
	if c := u.PeekCounters(victim); c.C3 != 15 {
		t.Fatalf("victim C3 = %d", c.C3)
	}
	// The collider drains it one step per non-aliasing stall.
	for i := 0; i < 5; i++ {
		if ty := u.Verify(collider, false); ty != TypeF {
			t.Fatalf("collider run %d: %v, want F", i, ty)
		}
	}
	if c := u.PeekCounters(victim); c.C3 != 10 {
		t.Errorf("victim C3 after 5 collider drains = %d, want 10", c.C3)
	}
}

// TestUnitEvictionInteraction: pushing more than 12 distinct pairs through
// type-G training evicts the oldest PSFP entry but leaves its SSBP state
// intact (different capacities, different structures).
func TestUnitEvictionInteraction(t *testing.T) {
	u := NewUnit(Config{Seed: 3})
	base := mkQuery(0, 0)
	u.Verify(base, true) // G: allocates PSFP and SSBP entries
	baseC := u.PeekCounters(base)
	if baseC.C0 != 4 || baseC.C4 != 1 {
		t.Fatalf("training failed: %+v", baseC)
	}
	for i := 1; i <= 12; i++ {
		u.Verify(mkQuery(uint16(i), uint16(i)), true)
	}
	c := u.PeekCounters(base)
	if c.C0 != 0 || c.C1 != 0 || c.C2 != 0 {
		t.Errorf("PSFP entry should be LRU-evicted: %+v", c)
	}
	// SSBP is 10-way with random replacement; the base tag may or may not
	// survive 12 more inserts, but the structure must still answer.
	if u.SSBP().Len() != SSBPWays {
		t.Errorf("SSBP should be full: %d/%d", u.SSBP().Len(), SSBPWays)
	}
}
