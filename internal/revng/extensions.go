package revng

import (
	"fmt"
	"strings"

	"zenspec/internal/asm"
	"zenspec/internal/harness"
	"zenspec/internal/kernel"
	"zenspec/internal/predict"
)

// SMTModeResult reproduces the Section III-D3 observation: the PSFP eviction
// threshold does not change between SMT and single-thread mode, so the
// predictor resources are duplicated per thread rather than competitively
// shared.
type SMTModeResult struct {
	SMTThreshold    int // smallest eviction-set size that evicts, SMT mode
	SingleThreshold int // same, single-thread mode
}

// Duplicated reports the paper's conclusion: the thresholds match.
func (r SMTModeResult) Duplicated() bool { return r.SMTThreshold == r.SingleThreshold }

func (r SMTModeResult) String() string {
	return fmt.Sprintf("Section III-D3 — PSFP eviction threshold: SMT mode %d, single-thread mode %d (duplicated resources: %v)",
		r.SMTThreshold, r.SingleThreshold, r.Duplicated())
}

// SMTMode measures the PSFP eviction threshold with the machine booted in
// SMT (2 hardware threads) and single-thread mode.
func SMTMode(cfg kernel.Config) SMTModeResult {
	threshold := func(threads int) int {
		for k := 8; k <= 16; k++ {
			tcfg := cfg
			tcfg.SMTThreads = threads
			if fig5PSFPTrial(tcfg, new(harness.Arena), k, 1) == 1 {
				return k
			}
		}
		return -1
	}
	return SMTModeResult{SMTThreshold: threshold(2), SingleThreshold: threshold(1)}
}

// AddrLeakResult demonstrates the second Section V-D side channel: the
// selection hash mixes physical-frame bits into an attacker-observable
// value, so an unprivileged process can learn physical-address relations
// between its own pages — information the kernel does not expose.
type AddrLeakResult struct {
	Pages     int
	Recovered int // page pairs whose frame-fold XOR was recovered correctly
}

func (r AddrLeakResult) String() string {
	return fmt.Sprintf("Section V-D — physical-address relation leak: recovered frame-fold XOR for %d/%d page pairs",
		r.Recovered, r.Pages)
}

// AddrLeak runs the experiment: the attacker trains one SSBP entry through a
// reference stld, then finds the colliding byte offset inside each of its
// executable pages. Since hash(frame<<12 | offset) = Fold12(frame) ^ offset
// for in-page offsets, the colliding offsets reveal Fold12(Fi) ^ Fold12(Fj)
// for every page pair — 12 bits of virtual-to-physical mapping information
// per pair, recovered without any privilege.
func AddrLeak(cfg kernel.Config, pages int) AddrLeakResult {
	res := AddrLeakResult{}

	type pageInfo struct {
		ok     bool
		offset int    // colliding byte offset of the LOAD instruction
		pfn    uint64 // ground truth
	}
	tmpl := asm.BuildStld(asm.StldOptions{})
	// Pages share the lab's sequential frame allocator, so trial p replays
	// the single-machine experiment up to its own page on a fresh machine:
	// sliders 0..p-1 are allocated (never probed) purely to reproduce the
	// frames page p would have received, then only page p is searched. That
	// keeps the result identical at any worker count.
	perPage := harness.Trials(harness.Workers(cfg.Parallelism), pages, func(p int) pageInfo {
		l := NewLab(cfg)
		// Reference entry with a known (to the experiment; unknown to the
		// attacker) hash.
		target := l.PlaceStld()
		var slider *Slider
		for q := 0; q <= p; q++ {
			slider = l.NewSlider(l.P, 1, tmpl)
		}
		target.Phi(Seq(7, -1, 7, -1, 7, -1)) // train C3=15
		_, found, ok := slider.SSBPCollisionSearch(target, 1)
		if !ok {
			return pageInfo{}
		}
		// The attacker observes the colliding load's page offset.
		loadVA := found.VA + uint64(found.Tmpl.LoadOff)
		ipa, err := l.P.IPA(loadVA)
		if err != nil {
			return pageInfo{}
		}
		return pageInfo{ok: true, offset: int(ipa & 0xfff), pfn: ipa >> 12}
	})
	var infos []pageInfo
	for _, in := range perPage {
		if in.ok {
			infos = append(infos, in)
		}
	}
	// For each pair (i, j): offset_i ^ offset_j == Fold12(Fi) ^ Fold12(Fj).
	for i := 0; i < len(infos); i++ {
		for j := i + 1; j < len(infos); j++ {
			res.Pages++
			leaked := uint16(infos[i].offset^infos[j].offset) & 0xfff
			truth := Fold12(infos[i].pfn) ^ Fold12(infos[j].pfn)
			if leaked == truth {
				res.Recovered++
			}
		}
	}
	return res
}

// AblationPoint is one configuration of a design-choice sweep.
type AblationPoint struct {
	Value     int
	Threshold int // PSFP eviction threshold measured at this configuration
}

// PSFPSizeAblation sweeps the PSFP capacity and re-measures the Fig 5
// eviction threshold — the experiment that would have localized the "12" if
// the hardware were configurable.
func PSFPSizeAblation(cfg kernel.Config, sizes []int) []AblationPoint {
	var out []AblationPoint
	for _, size := range sizes {
		tcfg := cfg
		tcfg.PredictorConfig = predict.Config{PSFPSize: size}
		threshold := -1
		for k := 1; k <= size+6; k++ {
			if fig5PSFPTrial(tcfg, new(harness.Arena), k, 1) == 1 {
				threshold = k
				break
			}
		}
		out = append(out, AblationPoint{Value: size, Threshold: threshold})
	}
	return out
}

// AblationString renders a sweep.
func AblationString(name string, points []AblationPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s ablation:\n", name)
	for _, p := range points {
		fmt.Fprintf(&sb, "  %s=%d -> eviction threshold %d\n", name, p.Value, p.Threshold)
	}
	return sb.String()
}
