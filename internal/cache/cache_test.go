package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{
		L1:         LevelConfig{Sets: 2, Ways: 2, Latency: 4},
		L2:         LevelConfig{Sets: 4, Ways: 2, Latency: 12},
		L3:         LevelConfig{Sets: 8, Ways: 4, Latency: 40},
		MemLatency: 200,
	}
}

func TestMissThenHitLatencies(t *testing.T) {
	h := New(DefaultConfig())
	lat, lvl := h.Access(0x1000)
	if lvl != Memory || lat != 200 {
		t.Errorf("first access = %d,%v; want 200,memory", lat, lvl)
	}
	lat, lvl = h.Access(0x1008) // same line
	if lvl != L1 || lat != 4 {
		t.Errorf("second access = %d,%v; want 4,L1", lat, lvl)
	}
}

func TestFlushEvictsEverywhere(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0x2000)
	if !h.Cached(0x2000) {
		t.Fatal("line should be cached after access")
	}
	h.Flush(0x2010) // same line, different offset
	if h.Cached(0x2000) {
		t.Fatal("flush should remove line from all levels")
	}
	if lat, lvl := h.Access(0x2000); lvl != Memory || lat != 200 {
		t.Errorf("post-flush access = %d,%v; want memory", lat, lvl)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	h := New(small())
	// L1 has 2 sets x 2 ways. Lines mapping to set 0: line addresses with
	// (line>>6)%2==0, i.e. 0x000, 0x080, 0x100, ...
	h.Access(0x000)
	h.Access(0x080)
	h.Access(0x100) // evicts 0x000 from L1
	if h.l1.contains(LineOf(0x000)) {
		t.Fatal("0x000 should be evicted from L1")
	}
	if !h.l2.contains(LineOf(0x000)) {
		t.Fatal("0x000 should remain in L2")
	}
	if lat, lvl := h.Access(0x000); lvl != L2 || lat != 12 {
		t.Errorf("access = %d,%v; want 12,L2", lat, lvl)
	}
}

func TestLRUOrder(t *testing.T) {
	h := New(small())
	h.Access(0x000)
	h.Access(0x080)
	h.Access(0x000) // make 0x080 the LRU
	h.Access(0x100) // should evict 0x080
	if !h.l1.contains(LineOf(0x000)) {
		t.Error("recently-used line evicted")
	}
	if h.l1.contains(LineOf(0x080)) {
		t.Error("LRU line not evicted")
	}
}

func TestTouchWarmsWithoutCountingAccess(t *testing.T) {
	h := New(DefaultConfig())
	h.Touch(0x3000)
	if h.Stats().Accesses != 0 {
		t.Error("Touch should not count as an access")
	}
	if lat, lvl := h.Access(0x3000); lvl != L1 || lat != 4 {
		t.Errorf("access after touch = %d,%v", lat, lvl)
	}
}

func TestStatsCounting(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0x1000) // miss
	h.Access(0x1000) // L1 hit
	h.Flush(0x1000)
	s := h.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.L1Hits != 1 || s.Flushes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInclusionProperty(t *testing.T) {
	// After any sequence of accesses (no flushes), every L1-resident line is
	// also L2- and L3-resident in this mostly-inclusive model, as long as the
	// outer levels are big enough not to evict.
	h := New(DefaultConfig())
	r := rand.New(rand.NewSource(42))
	lines := make([]uint64, 64)
	for i := range lines {
		lines[i] = uint64(r.Intn(1 << 20))
	}
	for i := 0; i < 2000; i++ {
		h.Access(lines[r.Intn(len(lines))])
	}
	for _, pa := range lines {
		if h.l1.contains(LineOf(pa)) && (!h.l2.contains(LineOf(pa)) || !h.l3.contains(LineOf(pa))) {
			t.Fatalf("line %#x in L1 but not in outer levels", pa)
		}
	}
}

func TestAccessIdempotentLatency(t *testing.T) {
	// Property: two consecutive accesses to the same address — the second is
	// always an L1 hit.
	f := func(pa uint64) bool {
		h := New(DefaultConfig())
		h.Access(pa)
		lat, lvl := h.Access(pa)
		return lvl == L1 && lat == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0x1234) != 0x1200 {
		t.Errorf("LineOf(0x1234) = %#x", LineOf(0x1234))
	}
	if LineSize != 64 {
		t.Errorf("LineSize = %d", LineSize)
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{L1: "L1", L2: "L2", L3: "L3", Memory: "memory"} {
		if lvl.String() != want {
			t.Errorf("%v != %q", lvl, want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-way config")
		}
	}()
	New(Config{L1: LevelConfig{Sets: 1, Ways: 0, Latency: 1},
		L2: LevelConfig{Sets: 1, Ways: 1, Latency: 1},
		L3: LevelConfig{Sets: 1, Ways: 1, Latency: 1}})
}
