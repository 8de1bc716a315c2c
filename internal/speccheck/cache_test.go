package speccheck_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/speccheck"
)

// checkEquivalent asserts that a cache run reproduces AnalyzeAll exactly.
func checkEquivalent(t *testing.T, c *speccheck.Cache, code []byte, opts speccheck.Options) {
	t.Helper()
	want := speccheck.AnalyzeAll(code, opts)
	got := c.Analyze(code, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache result diverged\n got: %+v\nwant: %+v", got, want)
	}
}

func TestCacheWarmScanIsAllHits(t *testing.T) {
	code := speccheck.GenProgram(7, 2000)
	c := speccheck.NewCache()
	checkEquivalent(t, c, code, speccheck.Options{})
	cold := c.Stats()
	if cold.Sources == 0 || cold.SourceMisses != cold.Sources || cold.ProgramHits != 0 {
		t.Fatalf("cold scan stats = %+v", cold)
	}
	// A byte-identical re-scan is one program-level hit: the per-source
	// machinery is skipped entirely.
	checkEquivalent(t, c, code, speccheck.Options{})
	warm := c.Stats()
	if warm.ProgramHits != 1 {
		t.Errorf("warm scan program hits = %d, want 1", warm.ProgramHits)
	}
	if warm.Sources != cold.Sources || warm.StatesExplored != cold.StatesExplored {
		t.Errorf("warm scan reran per-source work: cold %+v warm %+v", cold, warm)
	}
	// A warm result must be isolated from caller mutation.
	res := c.Analyze(code, speccheck.Options{})
	if len(res.Findings) > 0 {
		res.Findings[0].SourceOff = -1
		if again := c.Analyze(code, speccheck.Options{}); again.Findings[0].SourceOff == -1 {
			t.Error("cached result aliases a previously returned one")
		}
	}
}

// TestCacheEditLocality: editing one instruction recomputes only the sources
// whose dependency closure covers it; everything else stays cached.
func TestCacheEditLocality(t *testing.T) {
	code := speccheck.GenProgram(11, 2000)
	c := speccheck.NewCache()
	res := c.Analyze(code, speccheck.Options{})
	if !reflect.DeepEqual(res, speccheck.AnalyzeAll(code, speccheck.Options{})) {
		t.Fatal("cold cache diverged")
	}
	if len(res.Findings) == 0 {
		t.Fatal("generated program has no findings to edit away")
	}
	cold := c.Stats()

	// NOP out one finding's transmitter: its source's closure must cover it
	// (the walk reached it), so at least that source recomputes — but only
	// sources whose windows span the slot may.
	f := res.Findings[len(res.Findings)/2]
	edited := append([]byte(nil), code...)
	isa.Inst{Op: isa.NOP}.Encode(edited[f.TransmitOff:])
	checkEquivalent(t, c, edited, speccheck.Options{})
	warm := c.Stats()

	misses := warm.SourceMisses - cold.SourceMisses
	if misses == 0 {
		t.Error("editing a transmitter invalidated nothing; the closure is unsound")
	}
	if total := warm.Sources - cold.Sources; misses > total/4 {
		t.Errorf("tail edit recomputed %d of %d sources; closures are far too coarse", misses, total)
	}
}

// TestCacheRelocationSharing: a gadget's cached result is keyed by content
// relative to the source, so the same bytes at a different position in a
// different program hit the cache — and the findings relocate correctly.
func TestCacheRelocationSharing(t *testing.T) {
	gadgetCode := listing2STL() // self-contained: ends in HALT, no branches
	pad := func(nops int) []byte {
		var out []byte
		var b [isa.InstBytes]byte
		isa.Inst{Op: isa.NOP}.Encode(b[:])
		for i := 0; i < nops; i++ {
			out = append(out, b[:]...)
		}
		return append(out, gadgetCode...)
	}
	prog1, prog2 := pad(4), pad(9)

	c := speccheck.NewCache()
	checkEquivalent(t, c, prog1, speccheck.Options{STL: true})
	before := c.Stats()
	checkEquivalent(t, c, prog2, speccheck.Options{STL: true})
	after := c.Stats()
	if hits := after.SourceHits - before.SourceHits; hits == 0 {
		t.Error("relocated gadget bytes missed the cache")
	}
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code := speccheck.GenProgram(3, 1500)

	c1, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c1, code, speccheck.Options{})

	c2, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c2, code, speccheck.Options{})
	st := c2.Stats()
	if st.ProgramHits != 1 || st.DiskHits != 1 {
		t.Errorf("reopened cache stats = %+v, want one program hit from disk", st)
	}
	if st.SourceMisses != 0 || st.StatesExplored != 0 {
		t.Errorf("reopened cache re-explored: %+v", st)
	}

	// The per-source entries persist too: an edited buffer misses the
	// program layer but still mostly hits source entries from disk.
	edited := append([]byte(nil), code...)
	isa.Inst{Op: isa.NOP}.Encode(edited[:])
	c3, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c3, edited, speccheck.Options{})
	st3 := c3.Stats()
	if st3.ProgramHits != 0 || st3.SourceHits == 0 {
		t.Errorf("edited-buffer scan stats = %+v, want source-level disk hits", st3)
	}
}

// TestCacheCorruptionRecovery: flipping bytes in (or truncating) every cache
// file must never change results — corrupt entries read as misses, get
// recomputed, and are rewritten.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	code := speccheck.GenProgram(5, 1200)

	c1, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c1, code, speccheck.Options{})

	files, err := filepath.Glob(filepath.Join(dir, "*.sce"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files written (err=%v)", err)
	}
	for i, f := range files {
		switch i % 3 {
		case 0: // truncate mid-header
			os.WriteFile(f, []byte("SC"), 0o644)
		case 1: // flip a payload byte (framing survives, JSON does not)
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xff
			os.WriteFile(f, raw, 0o644)
		case 2: // replace wholesale with garbage
			os.WriteFile(f, []byte("garbage"), 0o644)
		}
	}

	c2, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c2, code, speccheck.Options{})
	st := c2.Stats()
	if st.DiskHits != 0 || st.ProgramHits != 0 {
		t.Errorf("corrupt entries served hits: %+v", st)
	}
	if st.Sources == 0 || st.SourceMisses != st.Sources {
		t.Errorf("stats after corruption = %+v, want all misses", st)
	}

	// The recomputation healed the store.
	c3, err := speccheck.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c3, code, speccheck.Options{})
	if st := c3.Stats(); st.ProgramHits != 1 || st.DiskHits != 1 {
		t.Errorf("healed cache stats = %+v, want a program hit from disk", st)
	}
}

// TestCacheOptionsIsolation: results cached under one Options fingerprint
// must not leak into an analysis under another.
func TestCacheOptionsIsolation(t *testing.T) {
	code := speccheck.GenProgram(9, 1200)
	c := speccheck.NewCache()
	for _, opts := range []speccheck.Options{
		{},
		{Window: 16},
		{STL: true},
		{CTL: true},
		{MaxStates: 32},
	} {
		checkEquivalent(t, c, code, opts)
	}
}

func TestCacheTruncationCached(t *testing.T) {
	code := branchDense(10)
	opts := speccheck.Options{STL: true, MaxStates: 8}
	c := speccheck.NewCache()
	cold := c.Analyze(code, opts)
	warm := c.Analyze(code, opts)
	if cold.Truncated == 0 {
		t.Fatal("expected truncation under the tiny budget")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("truncation not replayed from cache: cold %+v, warm %+v", cold, warm)
	}
}
