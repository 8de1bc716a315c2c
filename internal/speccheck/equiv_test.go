package speccheck_test

import (
	"reflect"
	"testing"

	"zenspec/internal/speccheck"
)

// equivOptions is the matrix of analysis modes the equivalence properties run
// under: both kinds, each alone, byte-exact sliding, and tight window/budget
// bounds that force truncation paths.
var equivOptions = []speccheck.Options{
	{},
	{STL: true},
	{CTL: true},
	{Stride: 1},
	{Window: 12},
	{MaxStates: 24},
	{Stride: 3, Window: 20, MaxStates: 100},
}

// TestSummaryEquivalenceShapes: the source-closure cache reproduces the
// whole-program scan exactly on every hand-built gadget shape in the test
// suite.
func TestSummaryEquivalenceShapes(t *testing.T) {
	shapes := map[string][]byte{
		"listing2":    listing2STL(),
		"branchy":     branchySTL(),
		"ctl":         ctlGadget(),
		"branchdense": branchDense(10),
	}
	for name, code := range shapes {
		for _, opts := range equivOptions {
			c := speccheck.NewCache()
			want := speccheck.AnalyzeAll(code, opts)
			if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: cold cache diverged\n got %+v\nwant %+v", name, opts, got, want)
			}
			if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: warm cache diverged\n got %+v\nwant %+v", name, opts, got, want)
			}
		}
	}
}

// TestSummaryEquivalenceRandom: the property holds on seeded pseudo-random
// programs, including warm replays and cross-seed cache reuse (the same cache
// serves every program, so source entries computed for one seed replay in
// another).
func TestSummaryEquivalenceRandom(t *testing.T) {
	c := speccheck.NewCache()
	for seed := int64(0); seed < 12; seed++ {
		code := speccheck.GenProgram(seed, 600)
		for _, opts := range equivOptions {
			want := speccheck.AnalyzeAll(code, opts)
			if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %+v: cold diverged\n got %+v\nwant %+v", seed, opts, got, want)
			}
			if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %+v: warm diverged", seed, opts)
			}
		}
	}
}

// FuzzSummaryEquivalence feeds arbitrary bytes to AnalyzeAll and to the
// cache; any divergence in findings or truncation is a bug in the closure
// keys or in the relocation of cached per-source results.
func FuzzSummaryEquivalence(f *testing.F) {
	f.Add(listing2STL(), uint8(0))
	f.Add(branchySTL(), uint8(1))
	f.Add(ctlGadget(), uint8(2))
	f.Add(branchDense(6), uint8(3))
	f.Add(speccheck.GenProgram(1, 64), uint8(4))
	f.Fuzz(func(t *testing.T, code []byte, optSel uint8) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		opts := equivOptions[int(optSel)%len(equivOptions)]
		want := speccheck.AnalyzeAll(code, opts)
		c := speccheck.NewCache()
		if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("cold cache diverged under %+v\n got %+v\nwant %+v", opts, got, want)
		}
		if got := c.Analyze(code, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("warm cache diverged under %+v", opts)
		}
	})
}
