package predict

import "math/rand"

// SSBPWays is the modeled physical capacity of the SSB predictor. The paper
// could not determine the exact size (Fig 5 shows no abrupt change, only a
// gradual eviction curve exceeding 50% at set size 16 and reaching ~90% at
// 32). A 10-way fully-associative store with random replacement reproduces
// that curve: replacement begins once the store is full, so after k distinct
// fills the base entry survives with probability (9/10)^(k-9), giving an
// eviction rate of 52% at k=16 and 91% at k=32.
const SSBPWays = 10

type ssbpEntry struct {
	tag    uint16
	c3, c4 int
}

// SSBP is the Speculative Store Bypass Predictor: a logical space of 4096
// entries selected by the hashed load IPA (Section III-C), physically backed
// by a small store with random replacement. Missing entries read as zeros.
// Unlike PSFP it survives context switches — the root of Vulnerability 1.
type SSBP struct {
	entries []ssbpEntry
	rng     *rand.Rand
	// onEvict observes random-replacement evictions only — not Flush and not
	// the fault injector's FlipAt, which are reported by their initiators.
	onEvict func(ssbpEntry)
}

// NewSSBP returns an empty SSBP. The rng drives victim selection and must be
// seeded by the caller for reproducible experiments.
func NewSSBP(rng *rand.Rand) *SSBP {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &SSBP{entries: make([]ssbpEntry, 0, SSBPWays), rng: rng}
}

func (s *SSBP) find(tag uint16) int {
	for i := range s.entries {
		if s.entries[i].tag == tag {
			return i
		}
	}
	return -1
}

// Get returns the C3, C4 counters for the hashed load IPA.
func (s *SSBP) Get(tag uint16) (c3, c4 int) {
	if i := s.find(tag); i >= 0 {
		return s.entries[i].c3, s.entries[i].c4
	}
	return 0, 0
}

// Put stores the counters for the tag, allocating (with random replacement
// when full) if the tag is absent and the counters are non-zero.
func (s *SSBP) Put(tag uint16, c3, c4 int) {
	if i := s.find(tag); i >= 0 {
		s.entries[i].c3 = c3
		s.entries[i].c4 = c4
		return
	}
	if c3 == 0 && c4 == 0 {
		return
	}
	e := ssbpEntry{tag: tag, c3: c3, c4: c4}
	if len(s.entries) < SSBPWays {
		s.entries = append(s.entries, e)
		return
	}
	victim := s.rng.Intn(len(s.entries))
	if s.onEvict != nil {
		s.onEvict(s.entries[victim])
	}
	s.entries[victim] = e
}

// Contains reports whether the tag currently has a physical entry.
func (s *SSBP) Contains(tag uint16) bool { return s.find(tag) >= 0 }

// Len returns the number of live entries.
func (s *SSBP) Len() int { return len(s.entries) }

// Flush empties the predictor. The hardware only does this when a process
// sleeps (Section IV-A); the flush-on-context-switch mitigation of Section
// VI-B calls it on every switch.
func (s *SSBP) Flush() { s.entries = s.entries[:0] }

// FlipAt adds delta to live entry i's C3 counter, clamped to [0, MaxC3] —
// the fault injector's model of predictor pollution by co-resident pairs
// hashing onto the same entry. An entry whose C3 and C4 both reach zero is
// dropped (it would read as absent anyway). Reports whether an entry was
// perturbed.
func (s *SSBP) FlipAt(i, delta int) bool {
	if i < 0 || i >= len(s.entries) {
		return false
	}
	c3 := s.entries[i].c3 + delta
	if c3 < 0 {
		c3 = 0
	}
	if c3 > MaxC3 {
		c3 = MaxC3
	}
	s.entries[i].c3 = c3
	if c3 == 0 && s.entries[i].c4 == 0 {
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
	}
	return true
}

// Snapshot returns the live (tag, C3, C4) triples, most useful to tests and
// the fingerprinting analysis tooling.
func (s *SSBP) Snapshot() []struct {
	Tag    uint16
	C3, C4 int
} {
	out := make([]struct {
		Tag    uint16
		C3, C4 int
	}, len(s.entries))
	for i, e := range s.entries {
		out[i] = struct {
			Tag    uint16
			C3, C4 int
		}{e.tag, e.c3, e.c4}
	}
	return out
}
