package speccheck_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/speccheck"
)

// chain returns a finding's full witness chain: source, dependent loads,
// transmitter.
func chain(f speccheck.Finding) []int {
	c := append([]int{f.SourceOff}, f.LoadOffs...)
	return append(c, f.TransmitOff)
}

// listing2STL builds the paper's Listing 2/3 STL shape: a slow store, a
// bypassing load, a dependent load and a transmitter.
func listing2STL() []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R15, 0x4000)
	b.Load(isa.RCX, isa.R15, 0)
	b.Shli(isa.RCX, isa.RCX, 3)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	b.Store(isa.RCX, 0, isa.RAX) // store (address resolves late)
	b.Load(isa.RDX, isa.R14, 0)  // ld1: may bypass the store
	b.Add(isa.RBX, isa.RDX, isa.R11)
	b.Load(isa.R8, isa.RBX, 0) // ld2: address from ld1
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 3)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Load(isa.R10, isa.R9, 0) // transmit: address from ld2
	b.Halt()
	return b.MustAssemble(0)
}

// storeTransmitter ends the Listing 2 chain in a store whose address
// derives from ld2: a tainted-address store transmits like a load.
func storeTransmitter() []byte {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // store
	b.Load(isa.RDX, isa.R14, 0)  // ld1
	b.Load(isa.R8, isa.RDX, 0)   // ld2
	b.Store(isa.R8, 0, isa.RAX)  // transmit
	b.Halt()
	return b.MustAssemble(0)
}

// stlVictim rebuilds the victim shape internal/attack's Spectre-STL uses: a
// store address behind a ten-deep imul chain, then the Listing 2 chain.
func stlVictim() []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R15, 0x4000000)
	b.Load(isa.RCX, isa.R15, 0)
	for i := 0; i < 10; i++ {
		b.Imul(isa.RCX, isa.RCX, isa.R12)
	}
	b.Shli(isa.RCX, isa.RCX, 12)
	b.Movi(isa.R13, 0x3000000)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	b.Store(isa.RCX, 0, isa.RDI) // +120 store
	b.Load(isa.RDX, isa.R13, 0)  // +128 ld1
	b.Movi(isa.R14, 0x2000000)
	b.Add(isa.RBX, isa.RDX, isa.R14)
	b.Load(isa.R8, isa.RBX, 0) // +152 ld2
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 12)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Load(isa.R10, isa.R9, 0) // +184 transmit
	b.Halt()
	return b.MustAssemble(0)
}

// TestAnalyzeFindsListing2STL: each STL shape yields exactly one finding,
// with the store → ld1 → ld2 → transmitter witness chain.
func TestAnalyzeFindsListing2STL(t *testing.T) {
	for _, tc := range []struct {
		name  string
		code  []byte
		chain []int
	}{
		{"listing2", listing2STL(), []int{32, 40, 56, 88}},
		{"store transmitter", storeTransmitter(), []int{0, 8, 16, 24}},
		{"attack victim", stlVictim(), []int{120, 128, 152, 184}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stl []speccheck.Finding
			for _, f := range speccheck.Analyze(tc.code, speccheck.Options{}) {
				if f.Kind == speccheck.KindSTL {
					stl = append(stl, f)
				}
			}
			if len(stl) != 1 {
				t.Fatalf("stl findings = %v, want exactly 1", stl)
			}
			if got := chain(stl[0]); !reflect.DeepEqual(got, tc.chain) {
				t.Errorf("witness chain = %#v, want %#v", got, tc.chain)
			}
			if stl[0].Depth != 2 {
				t.Errorf("depth = %d, want 2", stl[0].Depth)
			}
		})
	}
}

// branchySTL interposes a conditional branch between ld1 and ld2; the
// analyzer must follow the branch to find ld2.
func branchySTL() []byte {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // +0  store
	b.Load(isa.RDX, isa.R14, 0)  // +8  ld1
	b.Jnz(isa.RAX, "cont")       // +16 branch inside the window
	b.Nop()                      // +24
	b.Label("cont")
	b.Add(isa.RBX, isa.RDX, isa.R11) // +32
	b.Load(isa.R8, isa.RBX, 0)       // +40 ld2
	b.Shli(isa.R9, isa.R8, 3)        // +48
	b.Load(isa.R10, isa.R9, 0)       // +56 transmit
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeSTLAcrossBranch(t *testing.T) {
	findings := speccheck.Analyze(branchySTL(), speccheck.Options{STL: true})
	if len(findings) == 0 {
		t.Fatal("CFG analyzer missed the STL gadget behind a branch")
	}
	f := findings[0]
	want := speccheck.Finding{
		Kind:        speccheck.KindSTL,
		SourceOff:   0,
		LoadOffs:    []int{8, 40},
		TransmitOff: 56,
		Depth:       2,
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("finding = %+v, want %+v", f, want)
	}
}

// ctlGadget is the Spectre-V1/CTL shape: a bounds-check branch guarding a
// secret load whose value indexes the transmitter.
func ctlGadget() []byte {
	b := asm.NewBuilder()
	b.Jnz(isa.RDI, "out")       // +0  guard: mispredicted not-taken
	b.Load(isa.RDX, isa.RSI, 0) // +8  ld1: the secret
	b.Andi(isa.RDX, isa.RDX, 0x3f)
	b.Shli(isa.RDX, isa.RDX, 6)
	b.Add(isa.RDX, isa.RDX, isa.RBP)
	b.Load(isa.R8, isa.RDX, 0) // +40 transmit
	b.Label("out")
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeFindsCTL(t *testing.T) {
	findings := speccheck.Analyze(ctlGadget(), speccheck.Options{CTL: true})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	f := findings[0]
	want := speccheck.Finding{
		Kind:        speccheck.KindCTL,
		SourceOff:   0,
		LoadOffs:    []int{8},
		TransmitOff: 40,
		Depth:       1,
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("finding = %+v, want %+v", f, want)
	}
	if got := chain(f); !reflect.DeepEqual(got, []int{0, 8, 40}) {
		t.Errorf("chain = %v", got)
	}
}

// TestAnalyzeTaintThroughMemory: a transient value spilled to memory and
// reloaded keeps its taint (the finite abstract store), across a branch.
func TestAnalyzeTaintThroughMemory(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // +0  source store
	b.Load(isa.RDX, isa.R14, 0)  // +8  ld1
	b.Store(isa.R15, 8, isa.RDX) // +16 spill the tainted value
	b.Jnz(isa.RAX, "next")       // +24
	b.Label("next")
	b.Load(isa.RBX, isa.R15, 8) // +32 reload: taint survives
	b.Load(isa.R8, isa.RBX, 0)  // +40 ld2
	b.Load(isa.R10, isa.R8, 0)  // +48 transmit
	b.Halt()
	findings := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{STL: true})
	if len(findings) == 0 {
		t.Fatal("taint did not survive the spill/reload round trip")
	}
	f := findings[0]
	if f.SourceOff != 0 || f.TransmitOff != 48 {
		t.Errorf("finding = %+v", f)
	}
	if !reflect.DeepEqual(f.LoadOffs, []int{8, 40}) {
		t.Errorf("load chain = %v, want [8 40]", f.LoadOffs)
	}
}

func TestAnalyzeWindowBound(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX)
	b.Load(isa.RDX, isa.R14, 0)
	for i := 0; i < 60; i++ {
		b.Addi(isa.RDX, isa.RDX, 0)
	}
	b.Load(isa.R8, isa.RDX, 0)
	b.Load(isa.R10, isa.R8, 0)
	b.Halt()
	code := b.MustAssemble(0)
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: 16}); len(got) != 0 {
		t.Errorf("finding beyond the window: %v", got)
	}
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: 80}); len(got) == 0 {
		t.Error("finding inside a large window missed")
	}
}

func TestAnalyzeFenceEndsWindow(t *testing.T) {
	b := asm.NewBuilder()
	b.Jnz(isa.RDI, "out")
	b.Load(isa.RDX, isa.RSI, 0)
	b.Lfence() // speculation barrier: the classic V1 mitigation
	b.Shli(isa.RDX, isa.RDX, 6)
	b.Load(isa.R8, isa.RDX, 0)
	b.Label("out")
	b.Halt()
	if got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{}); len(got) != 0 {
		t.Errorf("fenced gadget still reported: %v", got)
	}
}

func TestAnalyzeInnocuousCode(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.RAX, 1)
	b.Label("loop")
	b.Store(isa.R15, 0, isa.RAX)
	b.Load(isa.RBX, isa.R15, 8)
	b.Subi(isa.RCX, isa.RCX, 1)
	b.Jnz(isa.RCX, "loop")
	b.Halt()
	if got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{}); len(got) != 0 {
		t.Errorf("innocuous loop flagged: %v", got)
	}
}

// TestAnalyzeSlideStride: with Stride 1 the analyzer finds a gadget placed
// at a non-slot byte offset, the way the paper's code-sliding search places
// code anywhere in a page.
func TestAnalyzeSlideStride(t *testing.T) {
	gadgetCode := listing2STL()
	const shift = 3
	code := make([]byte, shift+len(gadgetCode))
	code[0], code[1], code[2] = 0x90, 0x90, 0x90 // junk prefix
	copy(code[shift:], gadgetCode)

	aligned := speccheck.Analyze(code, speccheck.Options{STL: true})
	for _, f := range aligned {
		if f.SourceOff == shift+4*isa.InstBytes {
			t.Fatalf("aligned scan should miss the shifted gadget, found %v", f)
		}
	}
	slid := speccheck.Analyze(code, speccheck.Options{STL: true, Stride: 1})
	found := false
	for _, f := range slid {
		if f.SourceOff == shift+4*isa.InstBytes && f.TransmitOff == shift+11*isa.InstBytes {
			found = true
		}
	}
	if !found {
		t.Errorf("stride-1 scan missed the gadget at byte offset %d: %v", shift, slid)
	}
}

func TestAnalyzeLoopTerminates(t *testing.T) {
	// A tight loop with a store inside: the state dedup and window bound
	// must terminate the exploration.
	b := asm.NewBuilder()
	b.Label("loop")
	b.Store(isa.RCX, 0, isa.RAX)
	b.Load(isa.RDX, isa.R14, 0)
	b.Load(isa.R8, isa.RDX, 0)
	b.Load(isa.R10, isa.R8, 0)
	b.Jnz(isa.RCX, "loop")
	b.Halt()
	findings := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{})
	if len(findings) == 0 {
		t.Error("looped gadget not found")
	}
}

func TestFindingJSONRoundTrip(t *testing.T) {
	f := speccheck.Finding{Kind: speccheck.KindCTL, SourceOff: 0, LoadOffs: []int{8}, TransmitOff: 40, Depth: 1}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var got speccheck.Finding
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("round trip %+v -> %s -> %+v", f, raw, got)
	}
}
