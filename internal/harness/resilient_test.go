package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/fault"
	"zenspec/internal/isa"
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
	pol := TrialPolicy{Retries: 3}
	return ResilientTrialRange(ctx, "acct", pol, 0, 40, func(_ Ctx, trial, attempt int, seed int64) (int, error) {
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
	vals, stats := ResilientTrialRange(ctx, "clean", TrialPolicy{Retries: 2}, 0, 10,
		func(_ Ctx, trial, attempt int, seed int64) (int64, error) { return seed, nil })
	if stats.Degraded() || stats.Attempts != 10 {
		t.Fatalf("clean run degraded: %+v", stats)
	}
	for i, v := range vals {
		if v != TrialSeed(3, "clean", i) {
			t.Fatalf("trial %d got seed %d, want TrialSeed", i, v)
		}
	}
}

func TestResilientTrialsDeadline(t *testing.T) {
	ctx := Ctx{Config: kernel.Config{Seed: 1, Parallelism: 1}}
	pol := TrialPolicy{Deadline: 5 * time.Millisecond}
	_, stats := ResilientTrialRange(ctx, "slow", pol, 0, 2, func(_ Ctx, trial, attempt int, seed int64) (int, error) {
		if trial == 1 {
			time.Sleep(300 * time.Millisecond)
		}
		return trial, nil
	})
	if stats.Overruns == 0 || stats.Failed != 1 {
		t.Fatalf("deadline not enforced: %+v", stats)
	}
	if !errors.Is(ErrDeadline, ErrDeadline) {
		t.Fatal("sentinel sanity")
	}
}

// TestDeadlineCancelsSimulation is the goroutine-leak regression test: an
// attempt that overruns its deadline used to keep simulating detached forever
// (runGuarded returned, the worker goroutine spun on). With the cooperative
// cancel flag threaded into pipeline.Config.Stop, the runaway machine panics
// out of its run and the goroutine count returns to baseline.
func TestDeadlineCancelsSimulation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx := Ctx{Config: kernel.Config{Seed: 1, Parallelism: 1}}
	pol := TrialPolicy{Deadline: 30 * time.Millisecond}
	_, stats := ResilientTrialRange(ctx, "runaway", pol, 0, 1,
		func(actx Ctx, trial, attempt int, seed int64) (int, error) {
			// An infinite simulated loop: nothing but the cancel flag (booted
			// into the machine through actx.Config) can end this run.
			k := kernel.New(actx.Config)
			p := k.NewProcess("spin", kernel.DomainUser)
			b := asm.NewBuilder()
			b.Movi(isa.RAX, 1)
			b.Label("spin")
			b.Jnz(isa.RAX, "spin")
			p.MapCode(0x400000, b.MustAssemble(0x400000))
			k.Run(p, 0x400000, 1<<40)
			return 1, nil
		})
	if stats.Overruns != 1 || stats.Failed != 1 {
		t.Fatalf("deadline not enforced on runaway trial: %+v", stats)
	}
	// Goleak-style accounting: the detached goroutine must terminate once the
	// cancel check fires — poll with a generous grace period.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after grace period",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
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
