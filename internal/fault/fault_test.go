package fault

import (
	"maps"
	"strings"
	"testing"

	"zenspec/internal/cache"
	"zenspec/internal/obs"
	"zenspec/internal/predict"
)

func TestParsePresets(t *testing.T) {
	for _, s := range []string{"", "none", "off", " None "} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if p.Active() {
			t.Fatalf("Parse(%q) is active: %v", s, p)
		}
	}
	def, err := Parse("default")
	if err != nil || def != Default() {
		t.Fatalf("Parse(default) = %v, %v", def, err)
	}
	mild, _ := Parse("mild")
	harsh, _ := Parse("harsh")
	if mild.PSFPEvictRate >= def.PSFPEvictRate || harsh.PSFPEvictRate <= def.PSFPEvictRate {
		t.Fatalf("preset ordering broken: mild %v default %v harsh %v",
			mild.PSFPEvictRate, def.PSFPEvictRate, harsh.PSFPEvictRate)
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(bogus) accepted")
	}
	if _, err := Parse(`{"no_such_knob": 1}`); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

// TestStringRoundTrip: the String rendering (minus its prefix) parses back to
// the same plan, so a suite report's fault echo is replayable.
func TestStringRoundTrip(t *testing.T) {
	want := Default()
	want.Seed = 42
	got, err := Parse(strings.TrimPrefix(want.String(), "fault-plan"))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %v want %v", got, want)
	}
}

func TestScaleClamps(t *testing.T) {
	p := Default().Scale(1000)
	if p.TrialErrorRate != 1 || p.CacheEvictRate != 1 {
		t.Fatalf("rates not clamped to 1: %v", p)
	}
	if z := Default().Scale(0); z.MachineActive() || z.TrialFaultAt("x", 0, 0) != TrialNone {
		t.Fatalf("Scale(0) still active: %v", z)
	}
}

// drive runs n boundaries against a freshly populated machine and returns
// the Count its bus saw injected per kind of obs.FaultEvent — a
// deterministic injector yields identical counts for identical (plan,
// stream) pairs and different counts for different streams.
func drive(p Plan, stream int64, n int) map[string]int {
	in := p.Injector(stream)
	got := map[string]int{}
	bus := obs.NewBus()
	bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) {
		f := ev.(obs.FaultEvent)
		got[f.Kind] += f.Count
	}), obs.Options{Classes: []obs.Class{obs.ClassFault}})
	in.AttachBus(bus)
	psfp := predict.NewPSFP(0)
	ssbp := predict.NewSSBP(nil)
	h := cache.New(cache.DefaultConfig())
	for i := 0; i < 8; i++ {
		psfp.Put(uint16(i), uint16(i+100), 4, 16, 2)
		ssbp.Put(uint16(i), 15, 3)
		h.Touch(uint64(i) * 64)
	}
	for i := 0; i < n; i++ {
		in.RunBoundary(Targets{PSFP: psfp, SSBP: ssbp, Cache: h})
	}
	return got
}

func TestInjectorDeterminism(t *testing.T) {
	p := Default()
	a := drive(p, 7, 4000)
	b := drive(p, 7, 4000)
	if !maps.Equal(a, b) {
		t.Fatalf("same (plan, stream) diverged: %v vs %v", a, b)
	}
	if c := drive(p, 8, 4000); maps.Equal(c, a) {
		t.Fatalf("different streams injected identically: %v", c)
	}
	for _, kind := range []string{"psfp-evict", "ssbp-flip", "spurious-train", "cache-evict"} {
		if a[kind] == 0 {
			t.Fatalf("default plan left %s idle over 4000 boundaries: %v", kind, a)
		}
	}
	// Plan seed decorrelates injection streams even for the same machine seed.
	q := p
	q.Seed = 99
	if d := drive(q, 7, 4000); maps.Equal(d, a) {
		t.Fatalf("plan seed ignored: %v", d)
	}
}

func TestTrialFaultAt(t *testing.T) {
	p := Default()
	counts := map[TrialFault]int{}
	const trials, attempts = 500, 4
	for trial := 0; trial < trials; trial++ {
		for attempt := 0; attempt < attempts; attempt++ {
			f := p.TrialFaultAt("exp", trial, attempt)
			if g := p.TrialFaultAt("exp", trial, attempt); g != f {
				t.Fatalf("TrialFaultAt not pure at (%d,%d): %v then %v", trial, attempt, f, g)
			}
			counts[f]++
		}
	}
	n := float64(trials * attempts)
	// Rates are 5% / 2% / 1%; allow generous slack around each.
	checks := []struct {
		kind TrialFault
		rate float64
	}{{TrialError, p.TrialErrorRate}, {TrialPanic, p.TrialPanicRate}, {TrialOverrun, p.TrialOverrunRate}}
	for _, c := range checks {
		got := float64(counts[c.kind]) / n
		if got < c.rate/3 || got > c.rate*3 {
			t.Errorf("%v frequency %.4f, configured %.4f", c.kind, got, c.rate)
		}
	}
	// Different experiment IDs decorrelate the decision.
	same := 0
	for trial := 0; trial < trials; trial++ {
		if p.TrialFaultAt("exp", trial, 0) != TrialNone &&
			p.TrialFaultAt("exp", trial, 0) == p.TrialFaultAt("other", trial, 0) {
			same++
		}
	}
	if same > trials/10 {
		t.Errorf("fault decisions track across experiment IDs: %d/%d", same, trials)
	}
}
