package predict

// PSFPSize is the reverse-engineered capacity of the PSF predictor: a
// 12-entry fully-associative buffer (Section III-D1, Fig 5's sharp eviction
// step between sizes 11 and 12).
const PSFPSize = 12

// psfpEntry is one PSFP entry: the C0/C1/C2 counters tagged by the hashed
// store and load IPAs.
type psfpEntry struct {
	storeTag, loadTag uint16
	c0, c1, c2        int
}

// PSFP is the Predictive Store Forwarding Predictor: a small fully
// associative buffer with LRU replacement, flushed on context switches.
// Entries are ordered most-recently-used first.
type PSFP struct {
	size    int
	entries []psfpEntry
	// onEvict observes capacity (LRU) evictions only — not Flush and not the
	// fault injector's EvictAt, which are reported by their initiators.
	onEvict func(psfpEntry)
}

// NewPSFP returns an empty PSFP with the given capacity (0 means the
// reverse-engineered default of 12).
func NewPSFP(size int) *PSFP {
	if size == 0 {
		size = PSFPSize
	}
	return &PSFP{size: size, entries: make([]psfpEntry, 0, size)}
}

func (p *PSFP) find(storeTag, loadTag uint16) int {
	for i := range p.entries {
		if p.entries[i].storeTag == storeTag && p.entries[i].loadTag == loadTag {
			return i
		}
	}
	return -1
}

// Get returns the C0, C1, C2 counters for the tagged pair. A missing entry
// reads as zeros and is not allocated. Lookups do not disturb LRU order:
// only Put (i.e. an actual counter update at verification time) promotes.
func (p *PSFP) Get(storeTag, loadTag uint16) (c0, c1, c2 int) {
	if i := p.find(storeTag, loadTag); i >= 0 {
		e := p.entries[i]
		return e.c0, e.c1, e.c2
	}
	return 0, 0, 0
}

// Put stores the counters for the tagged pair, allocating an entry (and
// evicting the LRU entry if full) when the pair is absent and the counters
// are non-zero. The touched entry becomes most recently used.
func (p *PSFP) Put(storeTag, loadTag uint16, c0, c1, c2 int) {
	if i := p.find(storeTag, loadTag); i >= 0 {
		e := p.entries[i]
		e.c0, e.c1, e.c2 = c0, c1, c2
		copy(p.entries[1:i+1], p.entries[:i])
		p.entries[0] = e
		return
	}
	if c0 == 0 && c1 == 0 && c2 == 0 {
		return // nothing to remember
	}
	e := psfpEntry{storeTag: storeTag, loadTag: loadTag, c0: c0, c1: c1, c2: c2}
	if len(p.entries) < p.size {
		p.entries = append(p.entries, psfpEntry{})
	} else if p.onEvict != nil {
		p.onEvict(p.entries[len(p.entries)-1])
	}
	copy(p.entries[1:], p.entries)
	p.entries[0] = e
}

// Contains reports whether the tagged pair currently has an entry.
func (p *PSFP) Contains(storeTag, loadTag uint16) bool {
	return p.find(storeTag, loadTag) >= 0
}

// Len returns the number of live entries.
func (p *PSFP) Len() int { return len(p.entries) }

// Flush empties the predictor — what the hardware does on a context switch
// (Section IV-A).
func (p *PSFP) Flush() { p.entries = p.entries[:0] }

// EvictAt removes live entry i (0 <= i < Len) — the fault injector's model
// of co-resident code competing for the 12 entries. Reports whether an entry
// was removed.
func (p *PSFP) EvictAt(i int) bool {
	if i < 0 || i >= len(p.entries) {
		return false
	}
	p.entries = append(p.entries[:i], p.entries[i+1:]...)
	return true
}
