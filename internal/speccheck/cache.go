package speccheck

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sync"

	"zenspec/internal/isa"
	"zenspec/internal/speccheck/summary"
)

// Cache is the incremental analysis front end: Analyze through a Cache
// produces byte-identical results to the whole-program AnalyzeAll, but reuses
// prior work at two granularities:
//
//   - program level: a scan of a byte-identical buffer under the same options
//     replays the stored result after one hash of the buffer;
//   - source level: after an edit, only sources whose dependency closure (the
//     code their transient walk can reach, hashed with the analysis
//     fingerprint) covers the change recompute — and the closure keys are
//     relocation-stable, so shared gadget bytes hit across programs.
//
// A source that misses the source tier runs the same instruction walk as
// AnalyzeAll. Both tiers persist when the Cache comes from OpenCache.
//
// A Cache is safe for concurrent use; analysis calls serialize.
type Cache struct {
	mu       sync.Mutex
	programs map[string]*Result
	sources  map[string]*sourceEntry
	disk     *summary.DirStore
	stats    CacheStats
}

// sourceEntry is one cached per-source result. All offsets are relative to
// the source so the entry relocates with its bytes.
type sourceEntry struct {
	Findings  []relFinding `json:"findings,omitempty"`
	Truncated bool         `json:"truncated,omitempty"`
}

// relFinding is a Finding with the source-relative offsets that the cache
// stores; Kind and SourceOff are implied by the lookup.
type relFinding struct {
	Loads []int `json:"loads"`
	Tx    int   `json:"tx"`
}

// CacheStats counts what a Cache did, for tests, telemetry and the CLI.
type CacheStats struct {
	// ProgramHits counts whole scans answered by a program-level entry (a
	// byte-identical buffer under identical options); such scans never reach
	// the per-source machinery at all.
	ProgramHits int
	// Sources is the number of speculation sources scanned.
	Sources int
	// SourceHits / SourceMisses split Sources by whether the per-source
	// result came from the cache or from a fresh exploration.
	SourceHits, SourceMisses int
	// DiskHits counts program and source hits served from the persistent
	// store rather than this process's memory.
	DiskHits int
	// StatesExplored totals the abstract states walked by cache misses;
	// a fully warm scan explores zero.
	StatesExplored int
}

// diskCacheCap bounds a persistent cache directory's entry count.
const diskCacheCap = 1 << 16

// NewCache returns an in-memory incremental analyzer cache.
func NewCache() *Cache {
	return &Cache{
		programs: make(map[string]*Result),
		sources:  make(map[string]*sourceEntry),
	}
}

// OpenCache returns an incremental cache backed by a persistent store at dir
// (created if needed), so warm scans survive process restarts. Disk failures
// degrade the cache, never the analysis.
func OpenCache(dir string) (*Cache, error) {
	ds, err := summary.NewDirStore(dir, diskCacheCap)
	if err != nil {
		return nil, err
	}
	c := NewCache()
	c.disk = ds
	return c, nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Analyze is AnalyzeAll through the cache: identical results, incremental
// cost. Every source is keyed by the content hash of its dependency closure;
// hits replay the stored relative findings, misses run AnalyzeAll's walk and
// populate the cache for next time.
func (c *Cache) Analyze(code []byte, opts Options) Result {
	opts = opts.Normalized()
	c.mu.Lock()
	defer c.mu.Unlock()

	pkey := programKey(code, opts)
	if res, ok := c.lookupProgram(pkey); ok {
		c.stats.ProgramHits++
		return res
	}

	// The engine only needs instruction decoding and successor resolution,
	// both independent of the block layout, so skip BuildCFG's block passes.
	g := &CFG{code: code, Base: opts.Base}
	e := &engine{g: g, opts: opts, seen: make(map[findKey]bool)}
	fp := summary.Fingerprint{Window: opts.Window, MaxStates: opts.MaxStates}

	var res Result
	var keyer summary.Keyer
	for off := 0; off+isa.InstBytes <= len(code); off += opts.Stride {
		in := g.InstAt(off)
		var kind Kind
		switch {
		case opts.STL && in.IsStore():
			kind = KindSTL
		case opts.CTL && isCondBranch(in):
			kind = KindCTL
		default:
			continue
		}
		c.stats.Sources++

		cl := summary.CloseOver(code, opts.Base, off, opts.Window)
		key := keyer.SourceKey(code, off, byte(kind), fp, cl)
		if ent, ok := c.lookupSource(key); ok {
			c.stats.SourceHits++
			for _, rf := range ent.Findings {
				loads := make([]int, len(rf.Loads))
				for i, l := range rf.Loads {
					loads[i] = off + l
				}
				e.findings = append(e.findings, Finding{
					Kind:        kind,
					SourceOff:   off,
					LoadOffs:    loads,
					TransmitOff: off + rf.Tx,
					Depth:       len(loads),
				})
			}
			if ent.Truncated {
				res.Truncated++
			}
			continue
		}
		c.stats.SourceMisses++

		before := len(e.findings)
		truncated := e.explore(kind, off)
		c.stats.StatesExplored += e.states
		if truncated {
			res.Truncated++
		}
		ent := &sourceEntry{Truncated: truncated}
		for _, f := range e.findings[before:] {
			loads := make([]int, len(f.LoadOffs))
			for i, l := range f.LoadOffs {
				loads[i] = l - off
			}
			ent.Findings = append(ent.Findings, relFinding{Loads: loads, Tx: f.TransmitOff - off})
		}
		c.storeSource(key, ent)
	}
	res.Findings = e.findings
	c.storeProgram(pkey, res)
	return res
}

// programKey content-addresses a whole analysis call: every normalized
// option that can change the result, plus the raw buffer.
func programKey(code []byte, opts Options) string {
	h := sha256.New()
	var buf [64]byte
	b := buf[:0]
	b = append(b, "zenspec/speccheck/program/v2"...)
	for _, v := range []uint64{
		uint64(opts.Window), uint64(opts.MaxStates), uint64(opts.Stride), opts.Base,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	flag := func(f bool) byte {
		if f {
			return 1
		}
		return 0
	}
	b = append(b, flag(opts.STL), flag(opts.CTL))
	h.Write(b)
	h.Write(code)
	return string(h.Sum(nil))
}

// copyResult deep-copies a result so cached entries and caller-visible
// results never alias.
func copyResult(r *Result) Result {
	out := Result{Truncated: r.Truncated}
	if r.Findings != nil {
		out.Findings = make([]Finding, len(r.Findings))
		for i, f := range r.Findings {
			f.LoadOffs = append([]int(nil), f.LoadOffs...)
			out.Findings[i] = f
		}
	}
	return out
}

// lookupProgram resolves a program key through the in-memory layer and the
// persistent store.
func (c *Cache) lookupProgram(key string) (Result, bool) {
	if res, ok := c.programs[key]; ok {
		return copyResult(res), true
	}
	if c.disk == nil {
		return Result{}, false
	}
	raw, ok := c.disk.Get(key)
	if !ok {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return Result{}, false
	}
	c.stats.DiskHits++
	c.programs[key] = &res
	return copyResult(&res), true
}

// storeProgram records a whole-scan result in both layers.
func (c *Cache) storeProgram(key string, res Result) {
	cp := copyResult(&res)
	c.programs[key] = &cp
	if c.disk != nil {
		if raw, err := json.Marshal(&cp); err == nil {
			c.disk.Put(key, raw)
		}
	}
}

// lookupSource resolves a source key through the in-memory layer and then the
// persistent store. A disk entry that fails to parse is a miss (the store
// already discarded framing-level corruption; this guards the payload).
func (c *Cache) lookupSource(key string) (*sourceEntry, bool) {
	if ent, ok := c.sources[key]; ok {
		return ent, true
	}
	if c.disk == nil {
		return nil, false
	}
	raw, ok := c.disk.Get(key)
	if !ok {
		return nil, false
	}
	var ent sourceEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		return nil, false
	}
	c.stats.DiskHits++
	c.sources[key] = &ent
	return &ent, true
}

// storeSource records a freshly computed per-source result in both layers.
func (c *Cache) storeSource(key string, ent *sourceEntry) {
	c.sources[key] = ent
	if c.disk != nil {
		if raw, err := json.Marshal(ent); err == nil {
			c.disk.Put(key, raw)
		}
	}
}
