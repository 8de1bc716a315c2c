package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"zenspec/internal/fault"
	"zenspec/internal/kernel"
)

// rangeTestRegistry registers one rangeable experiment built on
// ResilientTrialRange: trial values are the derived attempt seeds, the merge
// sums them, and the active fault plan injects retries/failures so the
// TrialStats fold is exercised too.
func rangeTestRegistry(trials int) *Registry {
	reg := NewRegistry()
	type frag struct {
		Vals  []int64    `json:"vals"`
		Stats TrialStats `json:"stats"`
	}
	reg.Register(Experiment{
		ID: "range-sum", Title: "range sum", Paper: "synthetic",
		Range: &RangeSpec{
			Trials: func(Ctx) int { return trials },
			Run: func(ctx Ctx, lo, hi int) ([]byte, error) {
				vals, stats := ResilientTrialRange(ctx, "range-sum", 2, lo, hi,
					func(trial, attempt int, seed int64) (int64, error) { return seed % 9973, nil })
				return json.Marshal(frag{Vals: vals, Stats: stats})
			},
			Merge: func(ctx Ctx, frags []Fragment) Report {
				var sum int64
				var stats TrialStats
				for _, f := range frags {
					var part frag
					if err := json.Unmarshal(f.Data, &part); err != nil {
						return Report{Status: StatusFailed, Error: err.Error()}
					}
					for _, v := range part.Vals {
						sum += v
					}
					stats.Merge(part.Stats)
				}
				var r Report
				r.Add("sum", float64(sum), 0, float64(9973*trials))
				r.Add("trials", float64(stats.Trials), float64(trials), float64(trials))
				r.RecordTrials(stats)
				return r
			},
		},
	})
	return reg
}

// splitRanges cuts [0, n) into k even ranges, the same arithmetic the
// service uses.
func splitRanges(n, k int) [][2]int {
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// TestRangeSplitByteIdentity is the tentpole contract at harness level: a
// rangeable experiment merged from any partition of its trial range — with
// metrics on and a fault plan injecting retries — marshals byte-identically
// to the unsharded run.
func TestRangeSplitByteIdentity(t *testing.T) {
	const trials = 24
	reg := rangeTestRegistry(trials)
	ctx := Ctx{
		Config:  kernel.Config{Seed: 7, Parallelism: 2, Faults: fault.Default()},
		Metrics: true,
	}
	want, err := reg.RunShard(ctx, "range-sum")
	if err != nil {
		t.Fatal(err)
	}
	if want.Trouble == nil || !want.Trouble.Degraded() {
		t.Fatalf("fault plan injected nothing; the stats fold is untested: %+v", want.Trouble)
	}
	want.WallMS = 0
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5, trials} {
		var parts []PartialReport
		for _, r := range splitRanges(trials, k) {
			p, err := reg.RunTrialRange(ctx, "range-sum", r[0], r[1])
			if err != nil {
				t.Fatalf("split %d range %v: %v", k, r, err)
			}
			parts = append(parts, p)
		}
		// Deliberately merge out of order: MergeTrialRanges must sort.
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		got, err := reg.MergeTrialRanges(ctx, "range-sum", parts)
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		got.WallMS = 0
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("split %d differs from unsharded run:\n%s\nvs\n%s", k, gotJSON, wantJSON)
		}
	}
}

// TestRangeWholeConvention: lo == hi == 0 addresses all the trials. The
// partial it runs covers [0, Trials), and it merges, as it is or with the
// zero bounds a journaled all-trials shard carries, to RunShard's report. A
// plain Run experiment is one trial whose fragment is its report.
func TestRangeWholeConvention(t *testing.T) {
	reg := rangeTestRegistry(8)
	reg.Register(Experiment{
		ID: "plain", Title: "plain", Paper: "synthetic",
		Run: func(Ctx) Report {
			var r Report
			r.Add("x", 1, 1, 1)
			return r
		},
	})
	ctx := Ctx{Config: kernel.Config{Seed: 3, Parallelism: 1}}
	for id, trials := range map[string]int{"range-sum": 8, "plain": 1} {
		p, err := reg.RunTrialRange(ctx, id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Exp != id || p.Lo != 0 || p.Hi != trials || p.Frag == nil || p.Error != "" {
			t.Fatalf("all-trials partial of %s malformed: %+v", id, p)
		}
		want, err := reg.RunShard(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want.WallMS = 0
		b, _ := json.Marshal(want)
		zero := p
		zero.Hi = 0
		for _, part := range []PartialReport{p, zero} {
			merged, err := reg.MergeTrialRanges(ctx, id, []PartialReport{part})
			if err != nil {
				t.Fatal(err)
			}
			merged.WallMS = 0
			if a, _ := json.Marshal(merged); !bytes.Equal(a, b) {
				t.Fatalf("all-trials partial of %s diverged:\n%s\nvs\n%s", id, a, b)
			}
		}
	}
}

// TestRangeErrors covers the contract's edges: unknown experiments, ranges
// outside [0, Trials), non-rangeable experiments, and partials that do not
// tile the trial space.
func TestRangeErrors(t *testing.T) {
	reg := rangeTestRegistry(8)
	reg.Register(Experiment{
		ID: "plain", Title: "plain", Paper: "synthetic",
		Run: func(Ctx) Report { return Report{} },
	})
	ctx := Ctx{Config: kernel.Config{Seed: 1}}

	if _, err := reg.Trials(ctx, "ghost"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Trials(ghost) = %v, want ErrUnknownExperiment", err)
	}
	if n, err := reg.Trials(ctx, "plain"); err != nil || n != 1 {
		t.Errorf("Trials(plain) = %d, %v, want 1, nil", n, err)
	}
	if n, err := reg.Trials(ctx, "range-sum"); err != nil || n != 8 {
		t.Errorf("Trials(range-sum) = %d, %v, want 8, nil", n, err)
	}
	if _, err := reg.RunTrialRange(ctx, "ghost", 0, 0); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("RunTrialRange(ghost) = %v, want ErrUnknownExperiment", err)
	}
	if _, err := reg.RunTrialRange(ctx, "plain", 0, 4); err == nil {
		t.Error("a range past a plain experiment's one trial must fail")
	}
	for _, bad := range [][2]int{{-1, 4}, {4, 4}, {6, 4}, {0, 9}} {
		if _, err := reg.RunTrialRange(ctx, "range-sum", bad[0], bad[1]); err == nil {
			t.Errorf("range %v accepted", bad)
		}
	}
	if p, err := reg.RunTrialRange(ctx, "plain", 0, 0); err != nil || p.Lo != 0 || p.Hi != 1 {
		t.Errorf("all-trials run of plain = %+v, %v", p, err)
	}

	p1, err := reg.RunTrialRange(ctx, "range-sum", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.MergeTrialRanges(ctx, "range-sum", []PartialReport{p1}); err == nil {
		t.Error("merge of a partial tiling must fail")
	}
	p2, err := reg.RunTrialRange(ctx, "range-sum", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.MergeTrialRanges(ctx, "range-sum", []PartialReport{p1, p1, p2}); err == nil {
		t.Error("merge of overlapping partials must fail")
	}
	if _, err := reg.MergeTrialRanges(ctx, "range-sum", nil); err == nil {
		t.Error("merge of no partials must fail")
	}
	all, err := reg.RunTrialRange(ctx, "range-sum", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	all.Hi = 0
	if _, err := reg.MergeTrialRanges(ctx, "range-sum", []PartialReport{all, p2}); err == nil {
		t.Error("merge of an all-trials partial and a range must fail")
	}
}
