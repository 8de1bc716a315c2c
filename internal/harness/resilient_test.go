package harness

import (
	"fmt"
	"reflect"
	"testing"

	"zenspec/internal/fault"
	"zenspec/internal/kernel"
)

func TestTrialsNegativeN(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		got := Trials(4, n, func(i int) int { panic("must not run") })
		if len(got) != 0 {
			t.Fatalf("Trials(4, %d) ran %d trials", n, len(got))
		}
	}
}

func TestAttemptSeedContract(t *testing.T) {
	// Attempt 0 is exactly the pre-retry trial seed: a clean resilient run is
	// bit-identical to the plain harness.
	if AttemptSeed(5, "exp", 3, 0) != TrialSeed(5, "exp", 3) {
		t.Fatal("attempt 0 diverges from TrialSeed")
	}
	// Retries rederive distinct seeds per attempt.
	seen := map[int64]int{}
	for a := 0; a < 8; a++ {
		seen[AttemptSeed(5, "exp", 3, a)]++
	}
	if len(seen) != 8 {
		t.Fatalf("attempt seeds collide: %d distinct of 8", len(seen))
	}
}

// resilientRun is one configuration of the accounting test, shared by the
// worker-determinism check below.
func resilientRun(workers int) ([]int, TrialStats) {
	ctx := Ctx{Config: kernel.Config{Seed: 11, Parallelism: workers, Faults: fault.Plan{
		TrialErrorRate: 0.2,
		TrialPanicRate: 0.1,
	}}}
	return ResilientTrialRange(ctx, "acct", 3, 0, 40, func(trial, attempt int, seed int64) (int, error) {
		if trial%7 == 0 && attempt == 0 {
			return 0, fmt.Errorf("flaky trial %d", trial)
		}
		if trial%13 == 5 {
			panic(fmt.Sprintf("dying trial %d", trial))
		}
		return trial*1000 + attempt, nil
	})
}

func TestResilientTrialsAccounting(t *testing.T) {
	vals, stats := resilientRun(1)
	if stats.Trials != 40 {
		t.Fatalf("trials %d, want 40", stats.Trials)
	}
	if stats.Attempts <= 40 {
		t.Fatalf("attempts %d, want > trials with retries in play", stats.Attempts)
	}
	if stats.Retried == 0 || stats.Injected == 0 || stats.Recovered == 0 {
		t.Fatalf("provenance not recorded: %+v", stats)
	}
	if !stats.Degraded() {
		t.Fatal("stats not degraded despite faults")
	}
	// Trials 5, 18, 31 panic on every attempt: they fail, contribute their
	// zero value, and the first one's error is carried.
	if stats.Failed != 3 {
		t.Fatalf("failed %d, want 3: %+v", stats.Failed, stats)
	}
	if stats.FirstError == "" {
		t.Fatal("no FirstError recorded")
	}
	for _, trial := range []int{5, 18, 31} {
		if vals[trial] != 0 {
			t.Fatalf("failed trial %d leaked value %d", trial, vals[trial])
		}
	}
	// A surviving trial's value reveals which attempt succeeded; attempt
	// indices must be deterministic, not scheduling-dependent.
	if vals[7]/1000 != 7 {
		t.Fatalf("trial 7 value %d", vals[7])
	}
}

func TestResilientTrialsDeterministicAcrossWorkers(t *testing.T) {
	v1, s1 := resilientRun(1)
	for _, w := range []int{2, 8} {
		v, s := resilientRun(w)
		if !reflect.DeepEqual(v, v1) || s != s1 {
			t.Fatalf("workers=%d diverged from serial:\n%v %+v\nvs\n%v %+v", w, v, s, v1, s1)
		}
	}
}

func TestResilientTrialsCleanPlanIsPlainTrials(t *testing.T) {
	ctx := Ctx{Config: kernel.Config{Seed: 3, Parallelism: 1}}
	vals, stats := ResilientTrialRange(ctx, "clean", 2, 0, 10,
		func(trial, attempt int, seed int64) (int64, error) { return seed, nil })
	if stats.Degraded() || stats.Attempts != 10 {
		t.Fatalf("clean run degraded: %+v", stats)
	}
	for i, v := range vals {
		if v != TrialSeed(3, "clean", i) {
			t.Fatalf("trial %d got seed %d, want TrialSeed", i, v)
		}
	}
}

func TestSeedCollisions(t *testing.T) {
	if dups := SeedCollisions(5, []string{"a", "b", "c"}, 1000); len(dups) != 0 {
		t.Fatalf("unexpected collisions: %v", dups)
	}
	// Identical IDs must collide on every trial — the detector works.
	if dups := SeedCollisions(5, []string{"same", "same"}, 3); len(dups) != 3 {
		t.Fatalf("duplicate IDs yielded %d collisions, want 3", len(dups))
	}
}
