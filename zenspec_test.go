package zenspec

import (
	"strings"
	"testing"

	"zenspec/internal/predict"
)

func TestPlatforms(t *testing.T) {
	ps := Platforms()
	if len(ps) != 4 {
		t.Fatalf("%d platforms, want TABLE III's 4", len(ps))
	}
	if p, ok := PlatformByName("epyc-7543"); !ok || p.SQSize != 48 {
		t.Error("epyc preset")
	}
	if p, ok := PlatformByName("ryzen7-7735hs"); !ok || p.SQSize != 64 {
		t.Error("zen3+ preset should have the 64-entry store queue")
	}
	if _, ok := PlatformByName("pentium"); ok {
		t.Error("unknown platform found")
	}
}

func TestFacadeLabPhi(t *testing.T) {
	l := NewLab(Config{Seed: 1})
	s := l.PlaceStld()
	obs := s.Phi(Seq(1, -1, 7))
	if len(obs) != 9 {
		t.Fatalf("phi length %d", len(obs))
	}
	if obs[1].TrueType.String() != "G" {
		t.Errorf("second execution %v, want G", obs[1].TrueType)
	}
}

func TestFacadeMachine(t *testing.T) {
	m := NewMachine(Config{Seed: 1, SSBD: true})
	// Under SSBD every non-aliasing stld verifies as an E (Section VI-A).
	if got := m.CPU(0).Unit.Verify(predict.Query{}, false); got != predict.TypeE {
		t.Errorf("SSBD not applied: a non-aliasing stld verified as %v", got)
	}
	p := m.NewProcess("x", DomainVM)
	if p.Domain != DomainVM {
		t.Error("domain")
	}
}

// TestPlatformMatrix runs the headline state-machine validation on every
// TABLE III platform: all four share one design.
func TestPlatformMatrix(t *testing.T) {
	for _, p := range Platforms() {
		res := Table1(Config{Platform: p, Seed: 3}, 6, 32)
		if res.MatchRate < 0.99 {
			t.Errorf("%s: state machine match rate %.3f", p.Name, res.MatchRate)
		}
	}
}

// TestEndToEndThroughFacade leaks a short secret via both attacks using only
// the public API.
func TestEndToEndThroughFacade(t *testing.T) {
	secret := []byte("zen3")
	if res := SpectreSTL(Config{Seed: 5}, secret, STLOptions{}); res.Accuracy != 1 {
		t.Errorf("facade spectre-stl accuracy %.2f (%q)", res.Accuracy, res.Leaked)
	}
	if res := SpectreCTL(Config{Seed: 5}, secret, CTLOptions{}); res.Accuracy != 1 {
		t.Errorf("facade spectre-ctl accuracy %.2f (%q)", res.Accuracy, res.Leaked)
	}
}

// TestMDUCharacterization reads TABLE IV through the public experiment
// registry: three designs, with AMD's counters selected by a 12-bit hash.
func TestMDUCharacterization(t *testing.T) {
	s, err := RunExperiments(Config{Seed: 1}, true, []string{"table4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Experiments) != 1 {
		t.Fatalf("%d reports, want table4's 1", len(s.Experiments))
	}
	r := s.Experiments[0]
	if !r.Pass {
		t.Errorf("table4 failed its bands: %+v", r.Metrics)
	}
	if rows := strings.Count(r.Detail, "state machine:"); rows != 3 {
		t.Fatalf("TABLE IV rows: %d", rows)
	}
	if !strings.Contains(r.Detail, "12-bit hash") {
		t.Errorf("AMD selection description missing:\n%s", r.Detail)
	}
}

func TestFacadeSSBDOverhead(t *testing.T) {
	rows := SSBDOverhead(Config{Seed: 1}).Rows
	if len(rows) != 10 {
		t.Errorf("Fig 12 rows: %d", len(rows))
	}
}

func TestFacadeAssembleRun(t *testing.T) {
	code, err := Assemble(`
		movi rax, 40
		add  rax, rax, 2
		halt
	`, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if lines := Disassemble(code, 0x400000); len(lines) != 3 {
		t.Errorf("disassembly lines: %d", len(lines))
	}
	m := NewMachine(Config{Seed: 1})
	p := m.NewProcess("t", DomainUser)
	p.MapCode(0x400000, code)
	res := m.Run(p, 0x400000, 0)
	if res.Stop.String() != "halt" || p.Regs[0] != 42 {
		t.Errorf("stop %v rax %d", res.Stop, p.Regs[0])
	}
	if _, err := Assemble("bogus", 0); err == nil {
		t.Error("bad source should error")
	}
}

func TestFacadeInfer(t *testing.T) {
	p := Infer(Config{Seed: 42})
	if p.C0Init != 4 || p.C3Saturated != 15 || p.PSFPEvictionThreshold != 12 {
		t.Errorf("inferred %+v", p)
	}
}

func TestFacadeInPlaceSTL(t *testing.T) {
	res := SpectreSTLInPlace(Config{Seed: 5}, []byte("ab"))
	if res.Accuracy != 1 {
		t.Errorf("in-place accuracy %.2f", res.Accuracy)
	}
	if res.VictimCalls <= 2 {
		t.Error("in-place must burn victim calls on training")
	}
}

// TestFacadeExperimentWrappers smoke-tests the remaining experiment entry
// points through the public API.
func TestFacadeExperimentWrappers(t *testing.T) {
	if testing.Short() {
		t.Skip("full wrapper sweep")
	}
	cfg := Config{Seed: 42}
	if res := Fig4(cfg, 2); res.StrideXORok != res.Pairs {
		t.Errorf("Fig4 %d/%d", res.StrideXORok, res.Pairs)
	}
	if res := Fig5(cfg, []int{11, 12}, 4); res.PSFP[1].Rate != 1 {
		t.Errorf("Fig5 psfp@12 %.2f", res.PSFP[1].Rate)
	}
	if res := Fig7(cfg, 3, 1); len(res.SSBPAttempts) == 0 {
		t.Error("Fig7 found nothing")
	}
	if res := SpectreCTLBrowser(Config{Seed: 5}, []byte("hi")); res.Bytes != 2 {
		t.Errorf("browser bytes %d", res.Bytes)
	}
	if res, err := SandboxEscape(Config{Seed: 5}, []byte{0x5e}); err != nil || res.Correct != 1 {
		t.Errorf("sandbox escape: %v %+v", err, res)
	}
}
