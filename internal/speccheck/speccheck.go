// Package speccheck is a static analyzer for speculative-leak gadgets in
// micro-ISA machine code, paired with a dynamic validator that replays its
// findings through the cycle-level pipeline simulator.
//
// The analyzer is a dataflow analysis over a control-flow graph, run under
// an always-mispredict speculative semantics in the style of the
// compositional speculative-leak detectors in the literature:
//
//   - every store is assumed bypassable: a younger load may transiently read
//     the stale memory value (Spectre-STL via an SSBP/PSFP misprediction);
//   - every conditional branch is assumed mispredicted: both successors are
//     explored as transient continuations (Spectre-CTL's branch-shadow
//     windows);
//   - taint propagates through registers and a finite abstract store, so a
//     transient value spilled to memory and reloaded keeps its taint.
//
// A finding is a witness chain source → dependent loads → transmitter, where
// the source is a bypassed store (STL) or a mispredicted conditional branch
// (CTL) and the transmitter is a memory access whose address depends on the
// speculatively obtained value — the shape of the paper's Listings 2 and 3.
//
// Static findings over-approximate: the analyzer cannot know whether a store
// address really resolves late or whether the predictors can be mistrained.
// Validate replays each finding on internal/pipeline with the predictors
// mistrained and classifies it as confirmed (a transient execution of the
// transmitter was observed) or as an over-approximation.
package speccheck

import (
	"encoding/json"
	"fmt"
	"strings"

	"zenspec/internal/isa"
)

// DefaultWindow is the default transient-window reach in instructions: 48,
// the Zen 3 store queue depth.
const DefaultWindow = 48

// Kind classifies the speculation primitive a finding relies on.
type Kind uint8

// Finding kinds.
const (
	// KindSTL is a store-bypass leak: a store whose address may resolve
	// late, a load that can transiently read stale data past it, and a
	// dependent chain transmitting that data (Spectre-STL).
	KindSTL Kind = iota
	// KindCTL is a branch-shadow leak: a conditional branch whose
	// misprediction window contains a load feeding the address of a second
	// memory access (Spectre-CTL / Spectre-V1 shape).
	KindCTL
)

func (k Kind) String() string {
	switch k {
	case KindSTL:
		return "stl"
	case KindCTL:
		return "ctl"
	}
	return fmt.Sprintf("kind?%d", uint8(k))
}

// MarshalJSON renders the kind as its short name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the short name form.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "stl":
		*k = KindSTL
	case "ctl":
		*k = KindCTL
	default:
		return fmt.Errorf("speccheck: unknown kind %q", s)
	}
	return nil
}

// Finding is one leak candidate with its instruction-offset witness chain.
type Finding struct {
	Kind Kind `json:"kind"`
	// SourceOff is the byte offset of the speculation source: the bypassed
	// store (STL) or the mispredicted conditional branch (CTL).
	SourceOff int `json:"source_off"`
	// LoadOffs are the byte offsets of the dependent-load chain, in order:
	// the speculative load first, then each load whose address derives from
	// the previous one.
	LoadOffs []int `json:"load_offs"`
	// TransmitOff is the byte offset of the transmitter: the memory access
	// whose address carries the speculative value into the cache state.
	TransmitOff int `json:"transmit_off"`
	// Depth is the dependent-load chain length (len(LoadOffs)).
	Depth int `json:"depth"`
}

func (f Finding) String() string {
	var sb strings.Builder
	src := "store"
	if f.Kind == KindCTL {
		src = "branch"
	}
	fmt.Fprintf(&sb, "%s: %s@+%#x", f.Kind, src, f.SourceOff)
	for i, off := range f.LoadOffs {
		fmt.Fprintf(&sb, "  ld%d@+%#x", i+1, off)
	}
	fmt.Fprintf(&sb, "  transmit@+%#x", f.TransmitOff)
	return sb.String()
}

// Options tunes Analyze.
type Options struct {
	// Window is the maximum instruction distance from the source to the
	// transmitter (a transient window's reach). 0 means DefaultWindow.
	Window int
	// Base is the virtual address of code[0]; branch targets (absolute VAs
	// in the encoding) are resolved against it.
	Base uint64
	// STL and CTL select which source kinds to analyze. Both false means
	// both (the zero Options value analyzes everything).
	STL, CTL bool
	// Stride is the byte step between scanned source slots. 0 means
	// isa.InstBytes (the aligned grid); 1 scans every byte offset, matching
	// the paper's code-sliding placement where a gadget may live on any of
	// the eight instruction grids.
	Stride int
	// MaxStates bounds the abstract states explored per source before the
	// walk gives up (termination backstop for branchy code). 0 means 16384.
	MaxStates int
}

// defaultMaxStates is the per-source exploration budget when Options leaves
// MaxStates unset.
const defaultMaxStates = 16384

// Normalized resolves every defaulting and consistency rule of Options, so
// that two Options values describing the same analysis compare (and cache)
// equal:
//
//   - Window, Stride and MaxStates treat any value <= 0 as "unset" and clamp
//     to their defaults. A zero or negative stride would otherwise make the
//     source scan loop forever (or run backwards), and a negative window or
//     state budget would silently scan nothing.
//   - STL and CTL both false selects both kinds (the zero Options value
//     analyzes everything).
//
// Analyze and Cache.Analyze both normalize first; callers only need this to
// inspect what an Options value will actually do.
func (o Options) Normalized() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Stride <= 0 {
		o.Stride = isa.InstBytes
	}
	if o.MaxStates <= 0 {
		o.MaxStates = defaultMaxStates
	}
	if !o.STL && !o.CTL {
		o.STL, o.CTL = true, true
	}
	return o
}

// Result is a full analysis outcome: the findings plus how trustworthy they
// are as an over-approximation.
type Result struct {
	// Findings are the leak candidates in source order, deduplicated by
	// (kind, source, transmitter).
	Findings []Finding `json:"findings"`
	// Truncated counts the sources whose exploration hit the MaxStates
	// budget and gave up with paths still pending. A nonzero value means
	// the findings may be incomplete for branch-dense code; raise
	// Options.MaxStates to trade time for completeness.
	Truncated int `json:"truncated"`
}

// Analyze scans code for speculative-leak candidates under the
// always-mispredict semantics and returns the findings in source order,
// deduplicated by (kind, source, transmitter). Use AnalyzeAll to also learn
// whether any exploration was truncated by the MaxStates budget.
func Analyze(code []byte, opts Options) []Finding {
	return AnalyzeAll(code, opts).Findings
}

// AnalyzeAll is Analyze plus the truncation count (see Result.Truncated).
func AnalyzeAll(code []byte, opts Options) Result {
	opts = opts.Normalized()
	g := BuildCFG(code, opts.Base)
	e := &engine{g: g, opts: opts, seen: make(map[findKey]bool)}
	var res Result
	for off := 0; off+isa.InstBytes <= len(code); off += opts.Stride {
		in := g.InstAt(off)
		var hit bool
		switch {
		case opts.STL && in.IsStore():
			hit = e.explore(KindSTL, off)
		case opts.CTL && isCondBranch(in):
			hit = e.explore(KindCTL, off)
		}
		if hit {
			res.Truncated++
		}
	}
	res.Findings = e.findings
	return res
}

func isCondBranch(in isa.Inst) bool { return in.Op == isa.JZ || in.Op == isa.JNZ }
