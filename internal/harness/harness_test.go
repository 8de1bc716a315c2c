package harness

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"zenspec/internal/kernel"
)

func TestTrialsOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := Trials(workers, 23, func(trial int) int { return trial * trial })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d trial %d: got %d want %d", workers, i, v, i*i)
			}
		}
	}
	if got := Trials(4, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("n=0: got %v", got)
	}
}

func TestTrialsMatchesSerialWithDerivedRNG(t *testing.T) {
	// The contract in one test: trials that derive their RNG from the trial
	// index produce identical output at any worker count.
	run := func(workers int) []float64 {
		return Trials(workers, 50, func(trial int) float64 {
			r := rand.New(rand.NewSource(TrialSeed(42, "unit", trial)))
			sum := 0.0
			for i := 0; i < 100; i++ {
				sum += r.Float64()
			}
			return sum
		})
	}
	serial := run(1)
	for _, workers := range []int{2, 8, 32} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, id := range []string{"fig5", "fig7", "table1"} {
		for trial := 0; trial < 100; trial++ {
			s := TrialSeed(7, id, trial)
			if s < 0 {
				t.Fatalf("negative seed for %s/%d", id, trial)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", id, trial, prev)
			}
			seen[s] = id
		}
	}
	if TrialSeed(7, "fig5", 0) == TrialSeed(8, "fig5", 0) {
		t.Fatal("seed must depend on the run seed")
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit parallelism must be honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted parallelism must be at least 1")
	}
}

func TestReportBandsAndPass(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Experiment{
		ID:    "demo",
		Title: "demo experiment",
		Tags:  []string{"unit"},
		Run: func(ctx Ctx) Report {
			var r Report
			r.Add("inside", 0.5, 0.0, 1.0)
			r.AddBool("flag", true, true)
			return r
		},
	})
	reg.Register(Experiment{
		ID: "broken",
		Run: func(ctx Ctx) Report {
			var r Report
			r.Add("outside", 2.0, 0.0, 1.0)
			return r
		},
	})

	suite, err := reg.Run(Ctx{Config: kernel.Config{Seed: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Experiments) != 2 {
		t.Fatalf("want 2 experiments, got %d", len(suite.Experiments))
	}
	if !suite.Experiments[0].Pass || suite.Experiments[1].Pass {
		t.Fatalf("pass flags wrong: %+v", suite.Experiments)
	}
	if suite.AllPass() {
		t.Fatal("suite with a failing experiment must not AllPass")
	}
	if got := suite.Failed(); len(got) != 1 || got[0] != "broken" {
		t.Fatalf("Failed() = %v", got)
	}

	only, err := reg.Run(Ctx{Config: kernel.Config{Seed: 9}}, []string{"demo"})
	if err != nil {
		t.Fatal(err)
	}
	if !only.AllPass() || len(only.Experiments) != 1 {
		t.Fatalf("subset run wrong: %+v", only)
	}
	if _, err := reg.Run(Ctx{}, []string{"nope"}); err == nil {
		t.Fatal("unknown ID must error")
	}

	tagged, err := reg.Select(nil, "unit")
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != 1 || tagged[0].ID != "demo" {
		t.Fatalf("tag filter wrong: %+v", tagged)
	}
}

func TestStableJSONMasksHostFields(t *testing.T) {
	a := SuiteReport{
		Seed:        1,
		Parallelism: 1,
		Experiments: []Report{{ID: "x", Pass: true, WallMS: 12.5}},
	}
	b := a
	b.Parallelism = 8
	b.Experiments = []Report{{ID: "x", Pass: true, WallMS: 99.9}}
	aj, err := a.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("StableJSON must mask wall time and worker count:\n%s\n%s", aj, bj)
	}
	if a.Experiments[0].WallMS != 12.5 {
		t.Fatal("StableJSON must not mutate the original report")
	}
}
