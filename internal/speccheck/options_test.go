package speccheck_test

import (
	"fmt"
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/speccheck"
)

// norm is the fully-defaulted baseline every zero field resolves to.
func norm(mut func(*speccheck.Options)) speccheck.Options {
	o := speccheck.Options{
		Window:    speccheck.DefaultWindow,
		Stride:    isa.InstBytes,
		MaxStates: 16384,
		STL:       true,
		CTL:       true,
	}
	if mut != nil {
		mut(&o)
	}
	return o
}

// TestOptionsNormalized tables every kind-selection combination plus the
// clamping rules.
func TestOptionsNormalized(t *testing.T) {
	cases := []struct {
		name string
		in   speccheck.Options
		want speccheck.Options
	}{
		{"zero selects everything", speccheck.Options{}, norm(nil)},
		{"stl only", speccheck.Options{STL: true},
			norm(func(o *speccheck.Options) { o.CTL = false })},
		{"ctl only", speccheck.Options{CTL: true},
			norm(func(o *speccheck.Options) { o.STL = false })},
		{"both explicit", speccheck.Options{STL: true, CTL: true}, norm(nil)},
		{"negative knobs clamp to defaults",
			speccheck.Options{Window: -1, Stride: -3, MaxStates: -7}, norm(nil)},
		{"explicit knobs survive",
			speccheck.Options{Window: 5, Stride: 3, MaxStates: 9, STL: true},
			speccheck.Options{Window: 5, Stride: 3, MaxStates: 9, STL: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalized(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Normalized(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestNegativeKnobsRegression: a negative stride used to loop forever and a
// negative window silently scanned nothing; both now behave like the default.
func TestNegativeKnobsRegression(t *testing.T) {
	code := listing2STL()
	want := speccheck.Analyze(code, speccheck.Options{STL: true})
	for _, opts := range []speccheck.Options{
		{STL: true, Stride: -isa.InstBytes},
		{STL: true, Window: -10},
		{STL: true, MaxStates: -1},
	} {
		if got := speccheck.Analyze(code, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("Analyze with %+v = %v, want %v", opts, got, want)
		}
	}
}

// TestNonDividingStride: strides that divide neither the buffer length nor
// the instruction size must terminate cleanly and only ever visit in-bounds
// slots; every finding they produce is also found by the byte-exact scan.
func TestNonDividingStride(t *testing.T) {
	code := listing2STL()
	all := speccheck.Analyze(code, speccheck.Options{STL: true, Stride: 1})
	index := make(map[int]bool, len(all))
	for _, f := range all {
		index[f.SourceOff] = true
	}
	for _, stride := range []int{1, 2, 3, 5, 7, 16, 1000} {
		got := speccheck.Analyze(code, speccheck.Options{STL: true, Stride: stride})
		for _, f := range got {
			if f.SourceOff%stride != 0 {
				t.Errorf("stride %d reported source at off-grid offset %d", stride, f.SourceOff)
			}
			if !index[f.SourceOff] {
				t.Errorf("stride %d found a source %d the stride-1 scan did not", stride, f.SourceOff)
			}
		}
	}
}

// branchDense builds a store-rooted gadget behind a cascade of diamonds
// whose arms taint distinct registers, so the state count grows combinatorially
// and a small MaxStates budget must truncate.
func branchDense(diamonds int) []byte {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // source
	b.Load(isa.RDX, isa.R14, 0)  // ld1
	arms := []isa.Reg{isa.RSP, isa.RBP, isa.RSI, isa.RDI, isa.R12, isa.R15, isa.R9, isa.R10}
	for i := 0; i < diamonds; i++ {
		lbl := fmt.Sprintf("skip%d", i)
		b.Jnz(isa.RCX, lbl)
		b.Mov(arms[i%len(arms)], isa.RDX) // taint one more register on this arm
		b.Label(lbl)
	}
	b.Load(isa.R8, isa.RDX, 0) // ld2
	b.Shli(isa.R9, isa.R8, 3)
	b.Load(isa.R10, isa.R9, 0) // transmit
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeAllSurfacesTruncation(t *testing.T) {
	code := branchDense(10)
	full := speccheck.AnalyzeAll(code, speccheck.Options{STL: true})
	if full.Truncated != 0 {
		t.Fatalf("default budget truncated %d sources; enlarge the test budget", full.Truncated)
	}
	if len(full.Findings) == 0 {
		t.Fatal("branch-dense gadget not found under the default budget")
	}
	small := speccheck.AnalyzeAll(code, speccheck.Options{STL: true, MaxStates: 8})
	if small.Truncated == 0 {
		t.Error("MaxStates=8 on a branch-dense program did not report truncation")
	}
	// The plain Analyze wrapper stays finding-compatible.
	if got := speccheck.Analyze(code, speccheck.Options{STL: true}); !reflect.DeepEqual(got, full.Findings) {
		t.Error("Analyze and AnalyzeAll disagree on findings")
	}
}
