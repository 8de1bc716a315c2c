package predict

import (
	"math/rand"
	"testing"
)

func TestPSFPMissReadsZero(t *testing.T) {
	p := NewPSFP(0)
	if c0, c1, c2 := p.Get(1, 2); c0 != 0 || c1 != 0 || c2 != 0 {
		t.Error("missing entry should read zero")
	}
	if p.Len() != 0 {
		t.Error("Get must not allocate")
	}
}

func TestPSFPPutGet(t *testing.T) {
	p := NewPSFP(0)
	p.Put(1, 2, 4, 16, 2)
	if c0, c1, c2 := p.Get(1, 2); c0 != 4 || c1 != 16 || c2 != 2 {
		t.Errorf("got %d,%d,%d", c0, c1, c2)
	}
	// Same load tag, different store tag is a different entry.
	if c0, _, _ := p.Get(3, 2); c0 != 0 {
		t.Error("store tag must participate in selection")
	}
	p.Put(1, 2, 3, 16, 2)
	if c0, _, _ := p.Get(1, 2); c0 != 3 {
		t.Error("update in place failed")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

func TestPSFPAllZeroPutDoesNotAllocate(t *testing.T) {
	p := NewPSFP(0)
	p.Put(5, 6, 0, 0, 0)
	if p.Len() != 0 {
		t.Error("all-zero put should not allocate")
	}
}

// TestPSFPEvictionStepAt12 is the heart of Fig 5's PSFP curve: a trained
// base entry survives 11 distinct fills and is evicted by the 12th.
func TestPSFPEvictionStepAt12(t *testing.T) {
	for k := 8; k <= 14; k++ {
		p := NewPSFP(0)
		p.Put(0, 0, 4, 16, 2) // base entry
		for i := 1; i <= k; i++ {
			p.Put(uint16(i), uint16(i), 4, 16, 2)
		}
		evicted := !p.Contains(0, 0)
		if k <= 11 && evicted {
			t.Errorf("k=%d: base evicted too early", k)
		}
		if k >= 12 && !evicted {
			t.Errorf("k=%d: base should be evicted", k)
		}
	}
}

func TestPSFPLRUPromotionOnPut(t *testing.T) {
	p := NewPSFP(2)
	p.Put(1, 1, 1, 0, 0)
	p.Put(2, 2, 1, 0, 0)
	p.Put(1, 1, 2, 0, 0) // promote entry 1
	p.Put(3, 3, 1, 0, 0) // must evict entry 2
	if !p.Contains(1, 1) || p.Contains(2, 2) || !p.Contains(3, 3) {
		t.Error("LRU promotion on Put failed")
	}
}

func TestPSFPFlush(t *testing.T) {
	p := NewPSFP(0)
	p.Put(1, 1, 4, 0, 0)
	p.Flush()
	if p.Len() != 0 || p.Contains(1, 1) {
		t.Error("flush failed")
	}
	if p.size != PSFPSize {
		t.Errorf("size = %d", p.size)
	}
}

func TestSSBPMissReadsZero(t *testing.T) {
	s := NewSSBP(nil)
	if c3, c4 := s.Get(7); c3 != 0 || c4 != 0 {
		t.Error("missing entry should read zero")
	}
}

func TestSSBPPutGetUpdate(t *testing.T) {
	s := NewSSBP(nil)
	s.Put(7, 15, 3)
	if c3, c4 := s.Get(7); c3 != 15 || c4 != 3 {
		t.Errorf("got %d,%d", c3, c4)
	}
	s.Put(7, 14, 3)
	if c3, _ := s.Get(7); c3 != 14 {
		t.Error("in-place update failed")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSSBPZeroPutDoesNotAllocate(t *testing.T) {
	s := NewSSBP(nil)
	s.Put(9, 0, 0)
	if s.Len() != 0 {
		t.Error("zero put should not allocate")
	}
}

// TestSSBPGradualEviction reproduces the Fig 5 SSBP curve shape: the
// eviction rate grows smoothly with the eviction-set size, exceeding 50% at
// 16 and approaching 90% at 32.
func TestSSBPGradualEviction(t *testing.T) {
	rate := func(k int) float64 {
		evictions := 0
		const trials = 400
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial*1000 + k)))
			s := NewSSBP(rng)
			s.Put(0, 15, 3) // base entry
			for i := 1; i <= k; i++ {
				s.Put(uint16(i), 0, 1)
			}
			if !s.Contains(0) {
				evictions++
			}
		}
		return float64(evictions) / trials
	}
	r8, r16, r32, r48 := rate(8), rate(16), rate(32), rate(48)
	if !(r8 < r16 && r16 < r32 && r32 < r48) {
		t.Errorf("eviction rate not monotonic: %v %v %v %v", r8, r16, r32, r48)
	}
	if r16 <= 0.5 {
		t.Errorf("rate at 16 = %v, want > 0.5 (paper: exceeds 50%%)", r16)
	}
	if r32 < 0.8 || r32 > 0.95 {
		t.Errorf("rate at 32 = %v, want ~0.9", r32)
	}
}

func TestSSBPFlushAndSnapshot(t *testing.T) {
	s := NewSSBP(nil)
	s.Put(1, 5, 1)
	s.Put(2, 7, 2)
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	seen := map[uint16]int{}
	for _, e := range snap {
		seen[e.Tag] = e.C3
	}
	if seen[1] != 5 || seen[2] != 7 {
		t.Errorf("snapshot contents wrong: %v", snap)
	}
	s.Flush()
	if s.Len() != 0 {
		t.Error("flush failed")
	}
}
