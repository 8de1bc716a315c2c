package revng

import (
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// PMCClass is the verdict of the performance-counter classifier: the
// execution type as far as PMC deltas can tell. The S1/S2 split (A vs B,
// E vs F) is invisible to counters — the paper separated those using the
// sequence context — so those pairs share a verdict.
type PMCClass uint8

// PMC classifier verdicts.
const (
	PMCUnknown         PMCClass = iota
	PMCFastBypass               // type H
	PMCBypassRollback           // type G
	PMCForward                  // type C
	PMCForwardRollback          // type D
	PMCStallForward             // type A or B (stalled, then store-to-load forward)
	PMCStallCache               // type E or F (stalled, then cache fill)
)

func (c PMCClass) String() string {
	switch c {
	case PMCFastBypass:
		return "H"
	case PMCBypassRollback:
		return "G"
	case PMCForward:
		return "C"
	case PMCForwardRollback:
		return "D"
	case PMCStallForward:
		return "A|B"
	case PMCStallCache:
		return "E|F"
	}
	return "?"
}

// Matches reports whether the verdict is consistent with a ground-truth
// execution type.
func (c PMCClass) Matches(t predict.ExecType) bool {
	switch c {
	case PMCFastBypass:
		return t == predict.TypeH
	case PMCBypassRollback:
		return t == predict.TypeG
	case PMCForward:
		return t == predict.TypeC
	case PMCForwardRollback:
		return t == predict.TypeD
	case PMCStallForward:
		return t == predict.TypeA || t == predict.TypeB
	case PMCStallCache:
		return t == predict.TypeE || t == predict.TypeF
	}
	return false
}

// ClassifyPMC reads the per-execution PMC delta of one stld the way the
// paper's Fig 2 does:
//
//   - a rollback (pipeline flush) separates D and G from the rest; whether a
//     predictive store forward fired separates D from G;
//   - among the non-rollback types, a PSF event is C, a store-queue stall
//     with a store-to-load forward is A/B, a stall without one is E/F, and
//     no stall at all is H.
func ClassifyPMC(d pmc.Counters) PMCClass {
	rollback := d.Get(pmc.Rollbacks) > 0
	psf := d.Get(pmc.PSFForwards) > 0
	stall := d.Get(pmc.SQStallCycles) > 0
	stlf := d.Get(pmc.StoreToLoadForwarding) > 0
	bypass := d.Get(pmc.Bypasses) > 0
	switch {
	case rollback && psf:
		return PMCForwardRollback
	case rollback:
		return PMCBypassRollback
	case psf:
		return PMCForward
	case stall && stlf:
		return PMCStallForward
	case stall:
		return PMCStallCache
	case bypass:
		return PMCFastBypass
	}
	return PMCUnknown
}
