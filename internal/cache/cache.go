// Package cache models a three-level set-associative data cache hierarchy.
//
// The hierarchy tracks only line presence and recency — data always lives in
// physical memory — which is all that timing attacks such as Flush+Reload
// observe. Latencies are configurable per level; the defaults approximate a
// Zen 3 core (L1 4 cycles, L2 12, L3 40, DRAM 200).
package cache

import (
	"fmt"
	"slices"

	"zenspec/internal/obs"
)

// LineShift is log2 of the cache line size (64-byte lines).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// LineOf returns the line address (physical address with the offset bits
// cleared) containing pa.
func LineOf(pa uint64) uint64 { return pa >> LineShift << LineShift }

// Level identifies where an access hit.
type Level uint8

// Hit levels.
const (
	L1 Level = iota
	L2
	L3
	Memory
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "memory"
	}
	return "level?"
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Sets    int
	Ways    int
	Latency int
}

// Config describes the hierarchy.
type Config struct {
	L1, L2, L3 LevelConfig
	// MemLatency is the DRAM access latency in cycles.
	MemLatency int
}

// DefaultConfig approximates a Zen 3 data-cache hierarchy (32 KiB L1,
// 512 KiB L2, 2 MiB of L3 slice).
func DefaultConfig() Config {
	return Config{
		L1:         LevelConfig{Sets: 64, Ways: 8, Latency: 4},
		L2:         LevelConfig{Sets: 1024, Ways: 8, Latency: 12},
		L3:         LevelConfig{Sets: 4096, Ways: 8, Latency: 40},
		MemLatency: 200,
	}
}

// set is one associative set; lines are ordered most-recently-used first.
type set struct {
	lines []uint64
}

func (s *set) find(line uint64) int {
	for i, l := range s.lines {
		if l == line {
			return i
		}
	}
	return -1
}

func (s *set) touch(i int) {
	line := s.lines[i]
	copy(s.lines[1:i+1], s.lines[:i])
	s.lines[0] = line
}

// insert adds line as MRU, evicting the LRU line if the set is full.
// It returns the evicted line and whether an eviction happened.
func (s *set) insert(line uint64, ways int) (uint64, bool) {
	if len(s.lines) < ways {
		s.lines = append(s.lines, 0)
		copy(s.lines[1:], s.lines)
		s.lines[0] = line
		return 0, false
	}
	victim := s.lines[len(s.lines)-1]
	copy(s.lines[1:], s.lines)
	s.lines[0] = line
	return victim, true
}

func (s *set) remove(line uint64) bool {
	i := s.find(line)
	if i < 0 {
		return false
	}
	s.lines = append(s.lines[:i], s.lines[i+1:]...)
	return true
}

// level is one cache level.
type level struct {
	cfg  LevelConfig
	sets []set
}

func newLevel(cfg LevelConfig) *level {
	return &level{cfg: cfg, sets: make([]set, cfg.Sets)}
}

func (l *level) setOf(line uint64) *set {
	return &l.sets[(line>>LineShift)%uint64(l.cfg.Sets)]
}

func (l *level) lookup(line uint64) bool {
	s := l.setOf(line)
	i := s.find(line)
	if i < 0 {
		return false
	}
	s.touch(i)
	return true
}

func (l *level) fill(line uint64) (uint64, bool) {
	s := l.setOf(line)
	if i := s.find(line); i >= 0 {
		s.touch(i)
		return 0, false
	}
	return s.insert(line, l.cfg.Ways)
}

func (l *level) invalidate(line uint64) bool { return l.setOf(line).remove(line) }

func (l *level) contains(line uint64) bool { return l.setOf(line).find(line) >= 0 }

// clone copies the level; each non-empty set gets its own lines, so a fill
// in the copy never writes into the original.
func (l *level) clone() *level {
	c := newLevel(l.cfg)
	for i, s := range l.sets {
		if len(s.lines) > 0 {
			c.sets[i].lines = slices.Clone(s.lines)
		}
	}
	return c
}

// Stats counts hierarchy events.
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L2Hits   uint64
	L3Hits   uint64
	Misses   uint64
	Flushes  uint64
}

// Hierarchy is the three-level cache.
type Hierarchy struct {
	cfg   Config
	l1    *level
	l2    *level
	l3    *level
	stats Stats
	bus   *obs.Bus
}

// AttachBus connects the hierarchy to an event bus: line fills, the capacity
// evictions they displace, and explicit flushes surface as obs.CacheEvent.
func (h *Hierarchy) AttachBus(b *obs.Bus) { h.bus = b }

// fillInto fills line into l, reporting the fill and any displaced victim.
func (h *Hierarchy) fillInto(l *level, name string, line uint64) {
	victim, evicted := l.fill(line)
	if h.bus.On(obs.ClassCache) {
		now := h.bus.Now()
		obs.Emit(h.bus, obs.CacheEvent{Cycle: now, Kind: "fill", Level: name, Line: line})
		if evicted {
			obs.Emit(h.bus, obs.CacheEvent{Cycle: now, Kind: "evict", Level: name, Line: line, Victim: victim})
		}
	}
}

// New returns an empty hierarchy.
func New(cfg Config) *Hierarchy {
	for _, lc := range []LevelConfig{cfg.L1, cfg.L2, cfg.L3} {
		if lc.Sets <= 0 || lc.Ways <= 0 {
			panic(fmt.Sprintf("cache: invalid level config %+v", lc))
		}
	}
	return &Hierarchy{cfg: cfg, l1: newLevel(cfg.L1), l2: newLevel(cfg.L2), l3: newLevel(cfg.L3)}
}

// Access performs a load or store access to pa and returns the latency and
// the level that served it. Misses fill all levels (mostly-inclusive).
func (h *Hierarchy) Access(pa uint64) (int, Level) {
	h.stats.Accesses++
	line := LineOf(pa)
	if h.l1.lookup(line) {
		h.stats.L1Hits++
		return h.cfg.L1.Latency, L1
	}
	if h.l2.lookup(line) {
		h.stats.L2Hits++
		h.fillInto(h.l1, "L1", line)
		return h.cfg.L2.Latency, L2
	}
	if h.l3.lookup(line) {
		h.stats.L3Hits++
		h.fillInto(h.l1, "L1", line)
		h.fillInto(h.l2, "L2", line)
		return h.cfg.L3.Latency, L3
	}
	h.stats.Misses++
	h.fillInto(h.l1, "L1", line)
	h.fillInto(h.l2, "L2", line)
	h.fillInto(h.l3, "L3", line)
	return h.cfg.MemLatency, Memory
}

// Touch fills pa's line into all levels without recording an access; used to
// warm caches deterministically in experiments.
func (h *Hierarchy) Touch(pa uint64) {
	line := LineOf(pa)
	h.fillInto(h.l1, "L1", line)
	h.fillInto(h.l2, "L2", line)
	h.fillInto(h.l3, "L3", line)
}

// Flush removes pa's line from every level (CLFLUSH).
func (h *Hierarchy) Flush(pa uint64) {
	h.stats.Flushes++
	line := LineOf(pa)
	h.l1.invalidate(line)
	h.l2.invalidate(line)
	h.l3.invalidate(line)
	if h.bus.On(obs.ClassCache) {
		obs.Emit(h.bus, obs.CacheEvent{Cycle: h.bus.Now(), Kind: "flush", Line: line})
	}
}

// FlushRandom flushes up to n randomly chosen resident lines from the whole
// hierarchy and returns how many were actually flushed. pick(k) must return a
// uniform value in [0, k); the caller supplies it (typically a seeded RNG) so
// eviction noise stays reproducible. Picks that land on an empty set are
// counted against n but flush nothing — sparse caches see less noise, as on
// hardware.
func (h *Hierarchy) FlushRandom(pick func(int) int, n int) int {
	levels := [3]*level{h.l1, h.l2, h.l3}
	flushed := 0
	for i := 0; i < n; i++ {
		l := levels[pick(3)]
		s := &l.sets[pick(l.cfg.Sets)]
		if len(s.lines) == 0 {
			continue
		}
		h.Flush(s.lines[pick(len(s.lines))])
		flushed++
	}
	return flushed
}

// Cached reports whether pa's line is present at any level.
func (h *Hierarchy) Cached(pa uint64) bool {
	line := LineOf(pa)
	return h.l1.contains(line) || h.l2.contains(line) || h.l3.contains(line)
}

// Stats returns a copy of the event counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Clone returns a copy of the hierarchy's resident lines, in LRU order, and
// its statistics, with no bus attached. It only reads h, so clones of one
// hierarchy may be taken concurrently.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{cfg: h.cfg, l1: h.l1.clone(), l2: h.l2.clone(), l3: h.l3.clone(), stats: h.stats}
}
