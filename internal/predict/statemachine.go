package predict

import "fmt"

// ExecType is one of the eight execution types of Fig 2, the observable
// outcome of one store-load pair execution.
type ExecType uint8

// Execution types. The first letter group (A, B, C) is "predicted aliasing,
// truth aliasing"; (D, E, F) is "predicted aliasing, truth non-aliasing";
// G is "predicted non-aliasing, truth aliasing" (rollback); H is the fully
// correct fast path.
const (
	TypeA ExecType = iota // stall, forward from store queue (S1)
	TypeB                 // stall, forward from store queue (S2, C3>0)
	TypeC                 // predictive store forwarding before address generation
	TypeD                 // PSF fired but wrong: rollback
	TypeE                 // stall, then fetch from cache (S1)
	TypeF                 // stall, then fetch from cache (S2, C3>0)
	TypeG                 // bypassed but aliasing: rollback
	TypeH                 // bypassed, non-aliasing: fast path
	numTypes
)

// String returns the type's letter, a slice of a constant: naming the type of
// every verification an observed run reports allocates nothing.
func (t ExecType) String() string {
	if t < numTypes {
		return "ABCDEFGH"[t : t+1]
	}
	return fmt.Sprintf("type?%d", uint8(t))
}

// Counter saturation bounds. The paper's footnotes state C0 <= 4 and
// C3 <= 32 always hold; the C1/C2/C4 bounds follow from the update rules
// (C1 is set to 16 and re-raised by +4 steps; C2 is set to 2 and only
// decremented; C4 only counts up to the >=3 test).
const (
	MaxC0 = 4
	MaxC1 = 16
	MaxC2 = 2
	MaxC3 = 32
	MaxC4 = 3
	// PSFDisableC1 is the C1 threshold at and above which predictive store
	// forwarding is disabled (TABLE I distinguishes C1<12 from C1>12; we
	// normalize the boundary to "disabled at >= 12").
	PSFDisableC1 = 12
)

// Counters is the combined 5-counter state of one store-load pair:
// C0, C1, C2 live in the PSFP entry selected by (hash(store IPA),
// hash(load IPA)); C3, C4 live in the SSBP entry selected by hash(load IPA).
type Counters struct {
	C0, C1, C2, C3, C4 int
}

// Zero reports whether all counters are zero (the Initialize state).
func (c Counters) Zero() bool {
	return c.C0 == 0 && c.C1 == 0 && c.C2 == 0 && c.C3 == 0 && c.C4 == 0
}

// PredictAliasing reports whether the combined state predicts the store-load
// pair as aliasing. Per Section III-B3: "The prediction is non-aliasing only
// when both C0 and C3 are equal to 0."
func (c Counters) PredictAliasing() bool { return c.C0 > 0 || c.C3 > 0 }

// PSFEnabled reports whether predictive store forwarding would fire: the
// store's data is forwarded to the load before the store's address is
// generated. Requires an aliasing prediction driven by the PSFP entry with
// C1 below the disable threshold and C2 credit remaining.
func (c Counters) PSFEnabled() bool {
	return c.C0 > 0 && c.C1 < PSFDisableC1 && c.C2 > 0
}

// State names the TABLE I row the counters currently occupy, for diagnostics.
func (c Counters) State() string {
	switch {
	case c.C0 == 0 && c.C3 == 0 && c.C2 == 0:
		return "Initialize"
	case c.C0 == 0 && c.C3 == 0:
		return "LoadFromCache"
	case c.C3 == 0 && c.C2 == 0:
		return "Block"
	case c.C3 == 0 && c.PSFEnabled():
		return "PSFEnabledS1"
	case c.C3 == 0:
		return "PSFDisabledS1"
	case c.PSFEnabled():
		return "PSFEnabledS2"
	default:
		return "PSFDisabledS2"
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Update applies one store-load pair execution to the state machine and
// returns the new counters and the execution type, implementing TABLE I.
// It models a pair whose PSFP entry exists (or is being created); see
// UpdateWithPresence for the pair-without-entry case.
//
// Two deviations from the table as printed, both required to reproduce the
// paper's own example sequences (Section III-B2):
//
//  1. On a type-G rollback, C4 increments before the C3 conditional, so the
//     third G in φ(a,4n,a,4n,a,16n) = (G,4E,G,4E,G,15F,H) sets C3=15.
//  2. Type F decays C0 toward zero (like type E); otherwise the same
//     sequence could never end in H.
func (c Counters) Update(aliasing bool) (Counters, ExecType) {
	return c.UpdateWithPresence(aliasing, true)
}

// UpdateWithPresence is Update with explicit knowledge of whether the pair
// currently has a PSFP entry. The distinction matters for the C3 retrain
// rule "if C0 > 0 then C3-1 else C3+16": the +16 burst is the PSFP entry
// (C0 drained to zero) strongly re-training SSBP; a pair that merely shares
// the SSBP entry through its load hash but has no PSFP entry of its own
// decrements C3 like any aliasing stall. This reproduces the TABLE II C3
// experiment, where probing with a_0^1 drains C3 one step at a time.
func (c Counters) UpdateWithPresence(aliasing, psfpPresent bool) (Counters, ExecType) {
	retrainC3 := func(cur int) int {
		if c.C0 > 0 || !psfpPresent {
			return clamp(cur-1, 0, MaxC3)
		}
		return clamp(cur+16, 0, MaxC3)
	}
	return c.update(aliasing, retrainC3)
}

func (c Counters) update(aliasing bool, retrainC3 func(int) int) (Counters, ExecType) {
	if !c.PredictAliasing() {
		if !aliasing {
			return c, TypeH // correct bypass, no update
		}
		// Rollback: train hard toward aliasing.
		n := c
		n.C0, n.C1, n.C2 = MaxC0, MaxC1, MaxC2
		n.C4 = clamp(c.C4+1, 0, MaxC4)
		if n.C4 < MaxC4 {
			n.C3 = 0
		} else {
			n.C3 = 15
		}
		return n, TypeG
	}

	psf := c.PSFEnabled()
	if c.C3 == 0 {
		// PSFP-driven prediction (C0 > 0).
		if c.C2 == 0 {
			// Block state: prediction pinned to aliasing, SSB and PSF
			// disabled, no counter movement. This is also the state SSBD
			// forces globally.
			if aliasing {
				return c, TypeA
			}
			return c, TypeE
		}
		if psf {
			n := c
			if aliasing {
				if c.C1&3 == 3 {
					n.C0 = clamp(c.C0+1, 0, MaxC0)
				}
				n.C1 = clamp(c.C1-1, 0, MaxC1)
				return n, TypeC
			}
			n.C0 = clamp(c.C0-1, 0, MaxC0)
			n.C1 = clamp(c.C1+4, 0, MaxC1)
			n.C2 = clamp(c.C2-1, 0, MaxC2)
			return n, TypeD
		}
		// PSF disabled, S1.
		n := c
		if aliasing {
			if c.C1&3 == 3 {
				n.C0 = clamp(c.C0+1, 0, MaxC0)
			}
			n.C1 = clamp(c.C1-1, 0, MaxC1)
			return n, TypeA
		}
		n.C0 = clamp(c.C0-1, 0, MaxC0)
		n.C1 = clamp(c.C1+4, 0, MaxC1)
		return n, TypeE
	}

	// C3 > 0: SSBP participates (S2 states).
	if psf {
		n := c
		if aliasing {
			if c.C1&3 == 3 && c.C0 > 0 {
				n.C0 = clamp(c.C0+1, 0, MaxC0)
			}
			n.C1 = clamp(c.C1-1, 0, MaxC1)
			n.C3 = retrainC3(c.C3)
			return n, TypeC
		}
		n.C0 = clamp(c.C0-1, 0, MaxC0)
		n.C1 = clamp(c.C1+4, 0, MaxC1)
		n.C3 = clamp(c.C3-2, 0, MaxC3)
		return n, TypeD
	}
	// PSF disabled, S2.
	n := c
	if aliasing {
		if c.C1&3 == 3 && c.C0 > 0 {
			n.C0 = clamp(c.C0+1, 0, MaxC0)
		}
		n.C1 = clamp(c.C1-1, 0, MaxC1)
		n.C3 = retrainC3(c.C3)
		return n, TypeB
	}
	n.C0 = clamp(c.C0-1, 0, MaxC0)
	n.C1 = clamp(c.C1+4, 0, MaxC1)
	n.C3 = clamp(c.C3-1, 0, MaxC3)
	return n, TypeF
}
