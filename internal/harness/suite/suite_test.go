package suite

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/kernel"
	"zenspec/internal/pipeline"
)

// TestRegistryCoversDesignIndex pins the registry to DESIGN.md's
// per-experiment index: every row present, in report order, exactly once.
func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig2", "table1", "table2", "fig4", "fig5", "fig7", "table3",
		"isolation", "smt", "transient-exec", "transient-update", "infer",
		"addrleak", "table4", "spectre-stl", "spectre-ctl",
		"spectre-ctl-browser", "sandbox-escape", "fig11", "fig12",
		"ssbd-blockstate", "defenses", "stl-inplace", "ablations",
		"fault-stl", "fault-ctl", "fault-fig4", "fault-fig5", "fault-fig7",
		"fault-harness", "speccheck-scale",
	}
	exps := Registry().All()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Errorf("experiment %d is %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" {
			t.Errorf("%s: missing title or paper expectation", e.ID)
		}
		if len(e.Tags) == 0 {
			t.Errorf("%s: missing tags", e.ID)
		}
	}
}

// TestTagsAreNotIDs: no tag equals an experiment ID, so a name given to
// cmd/experiments -only means one thing, an ID or a tag.
func TestTagsAreNotIDs(t *testing.T) {
	exps := Registry().All()
	for _, e := range exps {
		for _, other := range exps {
			if other.HasTag(e.ID) {
				t.Errorf("%s carries the tag %q, which is an experiment ID", other.ID, e.ID)
			}
		}
	}
}

// TestFig2PMCAgreementAcrossSeeds: the PMC classifier types every fig2
// execution as ground truth does, at each seed of the 60-seed sweep and on
// both TABLE III store-queue sizes.
func TestFig2PMCAgreementAcrossSeeds(t *testing.T) {
	for _, sq := range []int{48, 64} {
		for seed := int64(1); seed <= 60; seed++ {
			cfg := kernel.Config{Seed: seed, Pipeline: pipeline.Config{SQSize: sq}}
			rep, err := Registry().RunShard(harness.Ctx{Config: cfg}, "fig2")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, m := range rep.Metrics {
				if m.Name == "pmc_agreement" {
					found = true
					if m.Value != 1 {
						t.Errorf("sq %d seed %d: pmc_agreement %v, want 1", sq, seed, m.Value)
					}
				}
			}
			if !found {
				t.Fatalf("sq %d seed %d: fig2 reports no pmc_agreement", sq, seed)
			}
		}
	}
}

// TestSuiteDeterministicAcrossWorkers is the harness's core contract: the
// stable report of a run is byte-identical at any worker count. The subset
// covers every refactored trial-loop shape — eviction sweeps (fig5),
// collision searches (fig7), chunked sequence labs (table1), and a sharded
// attack (spectre-stl at 64 quick bytes = 2 shards).
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"table1", "fig5", "fig7", "spectre-stl"}
	run := func(workers int) []byte {
		cfg := kernel.Config{Seed: 42, Parallelism: workers}
		rep, err := Registry().Run(harness.Ctx{Config: cfg, Quick: true}, ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !bytes.Equal(serial, got) {
			t.Errorf("report at %d workers differs from serial run:\nserial: %s\n%d workers: %s",
				workers, serial, workers, got)
		}
	}
}

// TestTrialSeedNoCollisionsAcrossRegistry scans every (experiment ID, trial)
// pair for TrialSeed collisions — distinct coordinates must never share an
// RNG stream, or two "independent" trials would be correlated.
func TestTrialSeedNoCollisionsAcrossRegistry(t *testing.T) {
	var ids []string
	for _, e := range Registry().All() {
		ids = append(ids, e.ID)
	}
	for _, seed := range []int64{0, 5, 42} {
		if dups := harness.SeedCollisions(seed, ids, 512); len(dups) != 0 {
			t.Errorf("seed %d: %v", seed, dups)
		}
	}
}

// TestFaultedSuiteDeterministicAcrossWorkers extends the determinism contract
// to faulted runs: the same plan and seed yield byte-identical stable reports
// at 1, 2 and 8 workers. Machine faults consume each machine's private
// injector stream serially; trial faults are pure hashes of their coordinates.
func TestFaultedSuiteDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"fault-stl", "fault-fig5", "fault-harness"}
	run := func(workers int) []byte {
		cfg := kernel.Config{Seed: 42, Parallelism: workers, Faults: fault.Default()}
		rep, err := Registry().Run(harness.Ctx{Config: cfg, Quick: true}, ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	if !bytes.Contains(serial, []byte(`"faults"`)) {
		t.Fatalf("faulted report does not echo its plan:\n%s", serial)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !bytes.Equal(serial, got) {
			t.Errorf("faulted report at %d workers differs from serial run:\nserial: %s\n%d workers: %s",
				workers, serial, workers, got)
		}
	}
}

// TestSuiteDegradedReport: one experiment whose trial loop always fails must
// come out degraded with its failure provenance, without dragging down the
// rows that validate cleanly.
func TestSuiteDegradedReport(t *testing.T) {
	reg := harness.NewRegistry()
	reg.Register(harness.Experiment{
		ID: "healthy", Title: "healthy", Paper: "passes", Tags: []string{"t"},
		Run: func(ctx harness.Ctx) harness.Report {
			var r harness.Report
			r.Add("ok", 1, 1, 1)
			return r
		},
	})
	reg.Register(harness.Experiment{
		ID: "doomed", Title: "doomed", Paper: "always fails", Tags: []string{"t"},
		Run: func(ctx harness.Ctx) harness.Report {
			vals, stats := harness.ResilientTrialRange(ctx, "doomed", 1, 0, 4,
				func(trial, attempt int, seed int64) (int, error) {
					if trial == 2 {
						return 0, errors.New("broken fixture")
					}
					return 1, nil
				})
			var r harness.Report
			ok := 0
			for _, v := range vals {
				ok += v
			}
			r.Add("trials_ok", float64(ok), 4, 4)
			r.RecordTrials(stats)
			return r
		},
	})
	rep, err := reg.Run(harness.Ctx{Config: kernel.Config{Seed: 1, Parallelism: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]harness.Report{}
	for _, e := range rep.Experiments {
		byID[e.ID] = e
	}
	if h := byID["healthy"]; !h.Pass || h.Status != harness.StatusClean {
		t.Fatalf("healthy row dragged down: %+v", h)
	}
	d := byID["doomed"]
	if d.Pass {
		t.Fatal("doomed row passed")
	}
	if d.Status != harness.StatusDegraded {
		t.Fatalf("doomed status %q, want degraded", d.Status)
	}
	if d.Trouble == nil || d.Trouble.Failed != 1 || d.Trouble.FirstError == "" {
		t.Fatalf("missing failure provenance: %+v", d.Trouble)
	}
	for _, e := range rep.Experiments {
		if troubled := e.Status != harness.StatusClean; troubled != (e.ID == "doomed") {
			t.Fatalf("%s has status %q; want only doomed to fight through faults", e.ID, e.Status)
		}
	}
	if rep.AllPass() {
		t.Fatal("suite passed with a failing row")
	}
}

// TestRangeShardIdentity proves the service's trial-range sharding contract
// on a real rangeable experiment: fault-harness (ResilientTrialRange under
// the default plan), split 1/2/4 ways with metrics and profiles on, must
// merge byte-identically to the unsharded shard report. fig11's
// decomposition is covered at attack level (TestFingerprintRangeIdentity)
// where the grid can be shrunk — one full fig11 run costs ~50s.
func TestRangeShardIdentity(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"fault-harness"} {
		id := id
		t.Run(id, func(t *testing.T) {
			ctx := harness.Ctx{
				Config:  kernel.Config{Seed: 42, Parallelism: 2},
				Quick:   true,
				Metrics: true,
				Profile: true,
			}
			want, err := reg.RunShard(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			want.WallMS = 0
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			n, err := reg.Trials(ctx, id)
			if err != nil || n < 4 {
				t.Fatalf("Trials(%s) = %d, %v; want a splittable count", id, n, err)
			}
			for _, k := range []int{1, 2, 4} {
				var parts []harness.PartialReport
				for i := 0; i < k; i++ {
					p, err := reg.RunTrialRange(ctx, id, i*n/k, (i+1)*n/k)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				got, err := reg.MergeTrialRanges(ctx, id, parts)
				if err != nil {
					t.Fatal(err)
				}
				got.WallMS = 0
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("%s split %d-way differs from unsharded run", id, k)
				}
			}
		})
	}
}
