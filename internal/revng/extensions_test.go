package revng

import "testing"

// TestSMTModeDuplication reproduces Section III-D3: the PSFP eviction
// threshold is the same in SMT and single-thread mode, indicating duplicated
// (not competitively shared) predictor resources.
func TestSMTModeDuplication(t *testing.T) {
	res := SMTMode(baseCfg())
	if res.SMTThreshold != 12 || res.SingleThreshold != 12 {
		t.Errorf("thresholds %d/%d, want 12/12", res.SMTThreshold, res.SingleThreshold)
	}
	if !res.Duplicated() {
		t.Error("resources should read as duplicated")
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

// TestAddrLeak reproduces the Section V-D observation that the selection
// hash leaks physical-address information: every recovered page-pair XOR
// matches the ground-truth frame folds.
func TestAddrLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("page sweep is slow")
	}
	res := AddrLeak(baseCfg(), 4)
	if res.Pages < 3 {
		t.Fatalf("only %d page pairs measured", res.Pages)
	}
	if res.Recovered != res.Pages {
		t.Errorf("recovered %d/%d frame-fold XORs", res.Recovered, res.Pages)
	}
}

// TestPSFPSizeAblation: the eviction threshold tracks the configured PSFP
// capacity exactly — the design parameter the Fig 5 experiment pins down.
func TestPSFPSizeAblation(t *testing.T) {
	points := PSFPSizeAblation(baseCfg(), []int{4, 8, 12, 16})
	for _, p := range points {
		if p.Threshold != p.Value {
			t.Errorf("PSFP size %d: threshold %d, want %d", p.Value, p.Threshold, p.Value)
		}
	}
	if AblationString("psfp-size", points) == "" {
		t.Error("empty report")
	}
}
