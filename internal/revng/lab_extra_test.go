package revng

import (
	"fmt"
	"runtime"
	"testing"

	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/predict"
)

// TestTickFlushesPSFPOnly: the scheduler tick behaves like a real context
// switch — PSFP lost, SSBP kept.
func TestTickFlushesPSFPOnly(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	s.Phi(Seq(7, -1, 7, -1, 7, -1))
	pre := s.Counters()
	if pre.C0 == 0 || pre.C3 != 15 {
		t.Fatalf("training failed: %+v", pre)
	}
	l.Tick()
	// Running the lab process again re-switches; peek BEFORE running.
	c := l.K.CPU(0).Unit.PeekCounters(predict.Query{StoreIPA: s.StoreIPA, LoadIPA: s.LoadIPA})
	if c.C0 != 0 {
		t.Errorf("tick did not flush PSFP: %+v", c)
	}
	if c.C3 != 15 {
		t.Errorf("tick flushed SSBP: %+v", c)
	}
}

// TestPlaceStldRandomValid: random placement yields runnable stlds at
// arbitrary byte offsets with coherent metadata.
func TestPlaceStldRandomValid(t *testing.T) {
	l := NewLab(baseCfg())
	seeds := []int{3, 17, 99, 4095}
	for i, sd := range seeds {
		r := pseudoRand(sd)
		s := l.PlaceStldRandom(r)
		if predict.Hash48(s.LoadIPA) != s.LoadHash {
			t.Errorf("placement %d: hash metadata inconsistent", i)
		}
		ob := s.Run(false)
		if ob.TrueType != predict.TypeH {
			t.Errorf("placement %d: fresh run type %v", i, ob.TrueType)
		}
	}
}

// pseudoRand returns a deterministic rnd(int)int closure.
func pseudoRand(seed int) func(int) int {
	state := uint64(seed)*2654435761 + 1
	return func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
}

// TestClassifierUnderSSBD: with SSBD every execution is a stall; the
// calibration must not produce nonsense thresholds (the classifier's fast
// band just goes unused).
func TestClassifierUnderSSBD(t *testing.T) {
	cfg := baseCfg()
	cfg.SSBD = true
	l := NewLab(cfg)
	s := l.PlaceStld()
	for _, ob := range s.Phi(Seq(3, -3)) {
		if ob.TrueType != predict.TypeE && ob.TrueType != predict.TypeA {
			t.Errorf("SSBD execution type %v", ob.TrueType)
		}
	}
}

// TestLabAddressesAreMapped: the lab's data addresses are mapped in its
// process and distinct.
func TestLabAddresses(t *testing.T) {
	l := NewLab(baseCfg())
	if l.StoreAddr() == l.NonAliasAddr() {
		t.Error("aliasing and non-aliasing addresses must differ")
	}
	if _, f := l.P.AS.Translate(l.StoreAddr(), mem.AccessWrite); f != mem.FaultNone {
		t.Error("store address unmapped")
	}
	if _, f := l.P.AS.Translate(l.NonAliasAddr(), mem.AccessRead); f != mem.FaultNone {
		t.Error("load address unmapped")
	}
}

// TestObservationHelpers: Types extraction and the type-to-class map.
func TestObservationHelpers(t *testing.T) {
	obs := []Observation{
		{Cycles: 10, Class: ClassFast, TrueType: predict.TypeH},
		{Cycles: 300, Class: ClassRollback, TrueType: predict.TypeG},
	}
	if ts := Types(obs); ts[0] != predict.TypeH || ts[1] != predict.TypeG {
		t.Error("Types")
	}
	if ClassOf(predict.TypeB) != ClassStall || ClassOf(predict.TypeC) != ClassForward {
		t.Error("ClassOf")
	}
	for _, c := range []TimingClass{ClassFast, ClassForward, ClassStall, ClassRollback} {
		if c.String() == "" {
			t.Error("class name")
		}
	}
	if TimingClass(99).String() == "" {
		t.Error("unknown class should print")
	}
}

// TestSliderPlacementMetadata: slid instances carry offsets consistent with
// the window base.
func TestSliderPlacementMetadata(t *testing.T) {
	l := NewLab(baseCfg())
	slider := l.NewSlider(l.P, 2, l.PlaceStld().Tmpl)
	for _, at := range []int{0, 1, 4095, 4100} {
		s := slider.Place(at)
		if predict.Hash48(s.LoadIPA) != s.LoadHash {
			t.Errorf("at=%d: inconsistent hash metadata", at)
		}
		if s.Run(false).TrueType != predict.TypeH {
			t.Errorf("at=%d: fresh probe not H", at)
		}
	}
	if slider.MaxOffsets() != 2*mem.PageSize {
		t.Errorf("MaxOffsets %d", slider.MaxOffsets())
	}
}

// TestIsolationResultString covers the report rendering.
func TestIsolationResultString(t *testing.T) {
	res := IsolationResult{Rows: []IsolationRow{
		{Predictor: "SSBP", Train: kernel.DomainUser, Probe: kernel.DomainVM, InPlace: true, Leaked: true},
	}}
	if res.String() == "" {
		t.Error("empty report")
	}
	if !res.Vulnerability1() {
		t.Error("an SSBP cross-domain leak with no PSFP leak is Vulnerability 1")
	}
	// A PSFP leak would falsify it.
	res.Rows = append(res.Rows, IsolationRow{Predictor: "PSFP",
		Train: kernel.DomainUser, Probe: kernel.DomainVM, Leaked: true})
	if res.Vulnerability1() {
		t.Error("a PSFP cross-domain leak contradicts the paper's finding")
	}
}

func TestParseSeq(t *testing.T) {
	in, err := ParseSeq("7n 1a, 2n")
	if err != nil {
		t.Fatal(err)
	}
	want := Seq(7, -1, 2)
	if len(in) != len(want) {
		t.Fatalf("len %d", len(in))
	}
	for i := range want {
		if in[i] != want[i] {
			t.Errorf("step %d", i)
		}
	}
	for _, bad := range []string{"7x", "zn a", "-3n"} {
		if _, err := ParseSeq(bad); err == nil {
			t.Errorf("ParseSeq(%q) should fail", bad)
		}
	}
	if out, err := ParseSeq(""); err != nil || len(out) != 0 {
		t.Error("empty sequence should parse to nothing")
	}
	if out, err := ParseSeq(fmt.Sprintf("%dn", maxSeqSteps-1) + " a"); err != nil || len(out) != maxSeqSteps {
		t.Errorf("a sequence of exactly %d steps: %d steps, %v", maxSeqSteps, len(out), err)
	}
	// Counts past the cap, alone or summed over tokens, are refused before
	// anything is expanded: a count of 1e11 would take 100 GB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, long := range []string{"99999999999n", fmt.Sprintf("%dn", maxSeqSteps+1), "40000n 40000a"} {
		if _, err := ParseSeq(long); err == nil {
			t.Errorf("ParseSeq(%q) should fail", long)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing long sequences allocated %d bytes", grew)
	}
}

// TestStldRunAllocFree pins the stld hot path allocation-free on a warmed
// lab without faults: a run returns the core's events without copying them,
// and sliding reuses one Stld across offsets.
func TestStldRunAllocFree(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	for _, aliasing := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(50, func() { s.Run(aliasing) }); allocs != 0 {
			t.Errorf("Run(%v) allocates %.1f objects per run, want 0", aliasing, allocs)
		}
	}
	slider := l.NewSlider(l.P, 1, s.Tmpl)
	const offsets = 64
	for at := 0; at < offsets; at++ { // warm every placement's pages
		slider.Place(at).Run(false)
	}
	at := 0
	allocs := testing.AllocsPerRun(50, func() {
		slider.Place(at % offsets).Run(false)
		at++
	})
	if allocs != 0 {
		t.Errorf("Place then Run allocates %.1f objects per run, want 0", allocs)
	}
}
