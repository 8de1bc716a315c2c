package workload

import (
	"math/rand"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
)

func TestCNNModelsWellFormed(t *testing.T) {
	models := CNNModels()
	if len(models) != 6 {
		t.Fatalf("%d models, want 6 (Fig 11)", len(models))
	}
	names := map[string]bool{}
	for _, m := range models {
		if names[m.Name] {
			t.Errorf("duplicate model %q", m.Name)
		}
		names[m.Name] = true
		if len(m.SiteAliasing) == 0 || len(m.SiteRuns) == 0 {
			t.Errorf("%s: empty signature", m.Name)
		}
		for _, p := range m.SiteAliasing {
			if p < 0 || p > 1 {
				t.Errorf("%s: aliasing probability %v", m.Name, p)
			}
		}
		for _, r := range m.SiteRuns {
			if r <= 0 {
				t.Errorf("%s: non-positive run count", m.Name)
			}
		}
	}
	for _, want := range []string{"vgg16", "googlenet", "resnet18", "sersnet18"} {
		if !names[want] {
			t.Errorf("paper model %q missing", want)
		}
	}
}

func TestAliasingScheduleShape(t *testing.T) {
	m := CNNModels()[1] // googlenet, heterogeneous
	r := rand.New(rand.NewSource(1))
	sched := m.AliasingSchedule(r)
	if len(sched) != len(m.SiteAliasing) {
		t.Fatalf("%d sites, want %d", len(sched), len(m.SiteAliasing))
	}
	for s, runs := range sched {
		want := m.SiteRuns[s%len(m.SiteRuns)]
		if len(runs) != want {
			t.Errorf("site %d has %d runs, want %d", s, len(runs), want)
		}
	}
	// Statistically, a 0.9-probability site aliases more than a 0.3 one.
	m2 := CNNModels()[2] // resnet18: 0.9 / 0.35 alternating
	hi, lo := 0, 0
	for trial := 0; trial < 50; trial++ {
		sched := m2.AliasingSchedule(r)
		for s, runs := range sched {
			for _, a := range runs {
				if a {
					if s%2 == 0 {
						hi++
					} else {
						lo++
					}
				}
			}
		}
	}
	if hi <= lo {
		t.Errorf("aliasing draws ignore probabilities: hi=%d lo=%d", hi, lo)
	}
}

func TestSpecKernelsWellFormed(t *testing.T) {
	ks := SpecKernels()
	if len(ks) != 10 {
		t.Fatalf("%d kernels, want 10 (Fig 12)", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
		if k.Iterations <= 0 || k.Pairs < 0 {
			t.Errorf("%s: bad parameters %+v", k.Name, k)
		}
		code := k.Build(0x400000)
		if len(code) == 0 {
			t.Errorf("%s: empty build", k.Name)
		}
	}
	for _, want := range []string{"perlbench", "exchange2", "mcf", "xz"} {
		if !names[want] {
			t.Errorf("benchmark %q missing", want)
		}
	}
}

// TestFig12OverheadShape is the headline Fig 12 claim: SSBD costs more than
// 20% on perlbench and exchange2 and visibly less on the rest.
func TestFig12OverheadShape(t *testing.T) {
	res := SSBDOverhead(kernel.Config{Seed: 1}, SpecKernels())
	t.Logf("\n%s", res)
	byName := map[string]OverheadRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.BaseCycles <= 0 || row.SSBDCycles <= 0 {
			t.Errorf("%s: non-positive cycles", row.Name)
		}
	}
	for _, heavy := range []string{"perlbench", "exchange2"} {
		if byName[heavy].OverheadFrac <= 0.20 {
			t.Errorf("%s overhead %.1f%%, want > 20%% (the paper's headline)",
				heavy, 100*byName[heavy].OverheadFrac)
		}
	}
	for _, light := range []string{"x264", "omnetpp", "deepsjeng"} {
		if byName[light].OverheadFrac >= 0.20 {
			t.Errorf("%s overhead %.1f%%, want < 20%%", light, 100*byName[light].OverheadFrac)
		}
	}
	// SSBD must never speed a kernel up by more than noise.
	for _, row := range res.Rows {
		if row.OverheadFrac < -0.05 {
			t.Errorf("%s: SSBD sped the kernel up by %.1f%%", row.Name, -100*row.OverheadFrac)
		}
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	k := SpecKernels()[0]
	a := runKernel(kernel.Config{Seed: 3}, k)
	b := runKernel(kernel.Config{Seed: 3}, k)
	if a != b {
		t.Errorf("non-deterministic kernel run: %d vs %d", a, b)
	}
}

// TestSpecKernelsArchitecturallyCorrect: every generated kernel produces the
// same final registers on the out-of-order core as on the golden in-order
// interpreter (the kernels contain branches, pointer chases and
// speculation-heavy store-load mixes, so this is a strong end-to-end check).
func TestSpecKernelsArchitecturallyCorrect(t *testing.T) {
	for _, k := range SpecKernels() {
		k := k
		k.Iterations = 12 // keep the golden run cheap
		code := k.Build(0x400000)

		kn := kernel.New(kernel.Config{Seed: 1})
		p := kn.NewProcess(k.Name, kernel.DomainUser)
		p.MapCode(0x400000, code)
		p.MapData(0x10000, 4*mem.PageSize)
		p.Regs[isa.R15] = 0x10000
		res := kn.Run(p, 0x400000, 1<<22)
		if res.Stop != pipeline.StopHalt {
			t.Fatalf("%s: stop %v", k.Name, res.Stop)
		}

		kg := kernel.New(kernel.Config{Seed: 1})
		pg := kg.NewProcess(k.Name, kernel.DomainUser)
		pg.MapCode(0x400000, code)
		pg.MapData(0x10000, 4*mem.PageSize)
		pg.Regs[isa.R15] = 0x10000
		gres := pipeline.Golden(kg.Phys(), pg, 0x400000, &pg.Regs, 0)
		if gres.Stop != pipeline.StopHalt {
			t.Fatalf("%s: golden stop %v", k.Name, gres.Stop)
		}
		if p.Regs != pg.Regs {
			t.Errorf("%s: register divergence\nooo:    %v\ngolden: %v", k.Name, p.Regs, pg.Regs)
		}
	}
}
