package revng

import (
	"testing"

	"zenspec/internal/kernel"
	"zenspec/internal/predict"
)

func baseCfg() kernel.Config { return kernel.Config{Seed: 42} }

func TestFrameWithHash(t *testing.T) {
	seen := map[uint64]bool{}
	for n := uint64(0); n < 200; n++ {
		for _, target := range []uint16{0, 0x123, 0xfff} {
			f := FrameWithHash(n, target)
			if Fold12(f) != target {
				t.Fatalf("FrameWithHash(%d, %#x) folds to %#x", n, target, Fold12(f))
			}
			if seen[f] {
				t.Fatalf("frame %#x duplicated", f)
			}
			seen[f] = true
			// The frame's hash contribution must survive the page shift.
			if predict.Hash48(f<<12) != target {
				t.Fatalf("Hash48(frame<<12) = %#x, want %#x", predict.Hash48(f<<12), target)
			}
		}
	}
}

func TestPlaceStldHashControlsBothHashes(t *testing.T) {
	l := NewLab(baseCfg())
	for _, tc := range [][2]uint16{{0x111, 0x222}, {0, 0}, {0xfff, 0x001}} {
		s := l.PlaceStldHash(tc[0], tc[1])
		if s.StoreHash != tc[0] || s.LoadHash != tc[1] {
			t.Errorf("placed hashes %#x/%#x, want %#x/%#x", s.StoreHash, s.LoadHash, tc[0], tc[1])
		}
	}
}

func TestClassifierSeparatesClasses(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	// Every observation's timing class must agree with the ground truth.
	for i, ob := range s.Phi(Seq(1, -1, 7, -1, -6, 1, 10)) {
		if ob.Class != ClassOf(ob.TrueType) {
			t.Errorf("step %d: class %v but true type %v (%d cycles)", i, ob.Class, ob.TrueType, ob.Cycles)
		}
	}
}

func TestPhiThroughLabMatchesPaper(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	obs := s.Phi(Seq(1, -1, 7))
	got := TypesString(Types(obs))
	if got != "1H 1G 4E 3H" {
		t.Errorf("φ(n,a,7n) = %s, want 1H 1G 4E 3H", got)
	}
}

func TestTypesString(t *testing.T) {
	types := []predict.ExecType{predict.TypeH, predict.TypeH, predict.TypeG, predict.TypeE}
	if got := TypesString(types); got != "2H 1G 1E" {
		t.Errorf("TypesString = %q", got)
	}
	if TypesString(nil) != "" {
		t.Error("empty TypesString")
	}
}

func TestSeq(t *testing.T) {
	s := Seq(2, -1, 1)
	want := []bool{false, false, true, false}
	if len(s) != len(want) {
		t.Fatalf("len %d", len(s))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("Seq[%d] = %v", i, s[i])
		}
	}
}

func TestFig2(t *testing.T) {
	res := Fig2(baseCfg())
	if res.TimingAgree < 0.999 {
		t.Errorf("timing agreement %.3f, want ~1 in a deterministic sim", res.TimingAgree)
	}
	if res.PMCAgree != 1 {
		t.Errorf("PMC agreement %.3f, want 1: the counters type every execution", res.PMCAgree)
	}
	byType := map[predict.ExecType]Fig2Row{}
	for _, row := range res.Rows {
		byType[row.Type] = row
		if !row.PMC.Matches(row.Type) {
			t.Errorf("type %v rows carry PMC verdict %v", row.Type, row.PMC)
		}
	}
	// (40n,40a)x2 must produce at least H, G, E and the trained aliasing
	// types; rollback rows must exceed 240 cycles.
	for _, want := range []predict.ExecType{predict.TypeH, predict.TypeG, predict.TypeE} {
		if byType[want].Count == 0 {
			t.Errorf("type %v not observed: %v", want, res.Rows)
		}
	}
	if g := byType[predict.TypeG]; g.MeanCycles < 240 {
		t.Errorf("G mean %d, want > 240", g.MeanCycles)
	}
	// Rollback types refetch: more ITLB hits than the fast type.
	hRow, gRow := byType[predict.TypeH], byType[predict.TypeG]
	if gRow.PMCPerExec["L1 TLB Hits for Instruction Fetch 4K"] <= hRow.PMCPerExec["L1 TLB Hits for Instruction Fetch 4K"] {
		t.Error("rollback type should show extra instruction fetches")
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

func TestTable1StateMachineMatches(t *testing.T) {
	res := Table1(baseCfg(), 30, 48)
	if res.MatchRate < 0.998 {
		t.Errorf("match rate %.4f, want >= 0.998 (the paper's bound)", res.MatchRate)
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

func TestTable2Dependences(t *testing.T) {
	res := Table2(baseCfg())
	want := map[string][2]bool{ // {store, load}
		"C0": {true, true},
		"C1": {true, true},
		"C2": {true, true},
		"C3": {false, true},
		"C4": {false, true},
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		w := want[row.Counter]
		if row.DependsOnStore != w[0] || row.DependsOnLoad != w[1] {
			t.Errorf("%s: store=%v load=%v, want %v/%v (%v)",
				row.Counter, row.DependsOnStore, row.DependsOnLoad, w[0], w[1], row.Observed)
		}
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

func TestSliderFindsSSBPCollision(t *testing.T) {
	l := NewLab(baseCfg())
	target := l.PlaceStldHash(0x321, 0x654)
	slider := l.NewSlider(l.P, 2, target.Tmpl)
	attempts, found, ok := slider.SSBPCollisionSearch(target, 1)
	if !ok {
		t.Fatal("no collision found in 2 pages")
	}
	if found.LoadHash != target.LoadHash {
		t.Errorf("found load hash %#x, target %#x", found.LoadHash, target.LoadHash)
	}
	if found.LoadIPA == target.LoadIPA {
		t.Error("collision must be at a different IPA (out-of-place)")
	}
	if attempts <= 0 || attempts > 2*4096 {
		t.Errorf("attempts = %d", attempts)
	}
}

func TestIsolationMatrix(t *testing.T) {
	res := Isolation(baseCfg())
	if !res.Vulnerability1() {
		t.Fatalf("Vulnerability 1 not reproduced:\n%s", res)
	}
	for _, row := range res.Rows {
		if row.Predictor == "PSFP" && row.Leaked {
			t.Errorf("PSFP leaked %v->%v (in-place=%v); the paper found it isolated",
				row.Train, row.Probe, row.InPlace)
		}
		if row.Predictor == "SSBP" && !row.Leaked {
			t.Errorf("SSBP did not leak %v->%v (in-place=%v); the paper found it leaks",
				row.Train, row.Probe, row.InPlace)
		}
	}
}

func TestIsolationWithSSBPFlushMitigation(t *testing.T) {
	cfg := baseCfg()
	cfg.FlushSSBPOnSwitch = true
	res := Isolation(cfg)
	for _, row := range res.Rows {
		if row.Leaked {
			t.Errorf("%s leaked %v->%v with flush-on-switch mitigation", row.Predictor, row.Train, row.Probe)
		}
	}
}
