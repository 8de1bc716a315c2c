package predict

import (
	"strings"
	"testing"
)

func TestIntelMDUSaturationTraining(t *testing.T) {
	m := NewIntelMDU()
	q := Query{LoadIVA: 0x40, StoreIVA: 0x38}
	if p := m.Predict(q); !p.Aliasing {
		t.Fatal("cold MDU must be conservative (stall)")
	}
	// 15 non-aliasing outcomes saturate the counter.
	for i := 0; i < intelSaturated; i++ {
		if ty := m.Verify(q, false); ty != TypeE {
			t.Fatalf("training step %d: %v, want E", i, ty)
		}
	}
	if p := m.Predict(q); p.Aliasing {
		t.Fatal("saturated MDU must allow bypass")
	}
	if ty := m.Verify(q, false); ty != TypeH {
		t.Errorf("saturated non-aliasing: %v, want H", ty)
	}
	// One aliasing misprediction resets to conservative.
	if ty := m.Verify(q, true); ty != TypeG {
		t.Errorf("aliasing after saturation: %v, want G (rollback)", ty)
	}
	if m.Counter(0x40) != 0 {
		t.Error("counter must reset on misprediction")
	}
	if p := m.Predict(q); !p.Aliasing {
		t.Error("post-reset must stall again")
	}
}

func TestIntelMDUSelectionLow8Bits(t *testing.T) {
	m := NewIntelMDU()
	q1 := Query{LoadIVA: 0x1040}
	q2 := Query{LoadIVA: 0x2040} // same low 8 bits -> same entry
	q3 := Query{LoadIVA: 0x1041} // different entry
	for i := 0; i < intelSaturated; i++ {
		m.Verify(q1, false)
	}
	if p := m.Predict(q2); p.Aliasing {
		t.Error("aliased entry (same low 8 IVA bits) should share training")
	}
	if p := m.Predict(q3); !p.Aliasing {
		t.Error("different entry should be untrained")
	}
}

func TestARMMDUOneBit(t *testing.T) {
	m := NewARMMDU()
	q := Query{LoadIVA: 0xbeef}
	// Cold: hazard clear -> bypass allowed.
	if p := m.Predict(q); p.Aliasing {
		t.Fatal("cold ARM MDU allows bypass")
	}
	if ty := m.Verify(q, true); ty != TypeG {
		t.Errorf("first aliasing: %v, want G", ty)
	}
	if !m.Hazard(0xbeef) {
		t.Error("hazard bit should be set")
	}
	if ty := m.Verify(q, true); ty != TypeA {
		t.Errorf("predicted aliasing + truth aliasing: %v, want A", ty)
	}
	if ty := m.Verify(q, false); ty != TypeE {
		t.Errorf("predicted aliasing + truth non-aliasing: %v, want E", ty)
	}
	if m.Hazard(0xbeef) {
		t.Error("hazard bit should clear after non-aliasing")
	}
}

func TestARMMDUSelectionLow16Bits(t *testing.T) {
	m := NewARMMDU()
	m.Verify(Query{LoadIVA: 0x1beef}, true)
	if !m.Hazard(0x2beef) {
		t.Error("entries share low 16 bits")
	}
	if m.Hazard(0xbee0) {
		t.Error("distinct entry affected")
	}
}

func TestBaselineFlush(t *testing.T) {
	im := NewIntelMDU()
	for i := 0; i < intelSaturated; i++ {
		im.Verify(Query{LoadIVA: 1}, false)
	}
	im.FlushPredictor()
	if p := im.Predict(Query{LoadIVA: 1}); !p.Aliasing {
		t.Error("intel flush failed")
	}
	am := NewARMMDU()
	am.Verify(Query{LoadIVA: 1}, true)
	am.FlushPredictor()
	if p := am.Predict(Query{LoadIVA: 1}); p.Aliasing {
		t.Error("arm flush failed")
	}
	if im.Stats().Flushes != 1 || am.Stats().Flushes != 1 {
		t.Error("flush stats")
	}
}

func TestBaselineNames(t *testing.T) {
	if NewIntelMDU().Name() != "intel-mdu" || NewARMMDU().Name() != "arm-mdu" {
		t.Error("names wrong")
	}
}

func TestClassifyMatrix(t *testing.T) {
	tests := []struct {
		pred, psf, truth bool
		want             ExecType
	}{
		{false, false, false, TypeH},
		{false, false, true, TypeG},
		{true, true, true, TypeC},
		{true, true, false, TypeD},
		{true, false, true, TypeA},
		{true, false, false, TypeE},
	}
	for _, tc := range tests {
		if got := classify(tc.pred, tc.psf, tc.truth); got != tc.want {
			t.Errorf("classify(%v,%v,%v) = %v, want %v", tc.pred, tc.psf, tc.truth, got, tc.want)
		}
	}
}

func TestCharacterizationTable(t *testing.T) {
	rows := CharacterizationTable()
	if len(rows) != 3 {
		t.Fatalf("TABLE IV has %d rows", len(rows))
	}
	if rows[2].Design != "amd-psfp-ssbp" {
		t.Error("AMD row missing")
	}
	if !strings.Contains(rows[2].Selection, "12-bit hash") {
		t.Errorf("AMD selection %q, want the 12-bit IPA hash", rows[2].Selection)
	}
	for i, bits := range []string{"4 bit", "1 bit", "6 bit (C3) + 2 bit (C4)"} {
		if rows[i].StateMachineBits != bits {
			t.Errorf("%s state machine %q, want %q", rows[i].Design, rows[i].StateMachineBits, bits)
		}
	}
	// The named designs must match the implementations' Name().
	if rows[0].Design != NewIntelMDU().Name() || rows[1].Design != NewARMMDU().Name() {
		t.Error("design names out of sync")
	}
}
