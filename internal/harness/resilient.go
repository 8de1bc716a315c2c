package harness

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"zenspec/internal/fault"
	"zenspec/internal/obs"
)

// Injected fault sentinels, also matched by the degraded-report tests.
var (
	// ErrInjectedError is the forced trial failure of a fault plan.
	ErrInjectedError = errors.New("injected trial error")
	// ErrInjectedPanic is the panic value a fault plan throws into a trial.
	ErrInjectedPanic = errors.New("injected trial panic")
	// ErrDeadline marks an attempt the fault plan declared overrun
	// (fault.TrialOverrun).
	ErrDeadline = errors.New("trial deadline overrun")
)

// TrialStats is the failure provenance of one resilient trial loop — what a
// degraded-but-passing report carries so a reader can tell a clean run from
// one that fought through faults.
type TrialStats struct {
	Trials    int `json:"trials"`
	Attempts  int `json:"attempts"`            // total attempts across all trials
	Retried   int `json:"retried,omitempty"`   // trials that needed more than one attempt
	Recovered int `json:"recovered,omitempty"` // panics recovered by trial isolation
	Overruns  int `json:"overruns,omitempty"`  // injected deadline overruns
	Injected  int `json:"injected,omitempty"`  // attempts the fault plan sabotaged
	Failed    int `json:"failed,omitempty"`    // trials that exhausted every attempt
	// FirstError is the first failing trial's last error, for the report.
	FirstError string `json:"first_error,omitempty"`
}

// Degraded reports whether the loop saw any trouble at all.
func (s TrialStats) Degraded() bool {
	return s.Retried > 0 || s.Recovered > 0 || s.Overruns > 0 || s.Injected > 0 || s.Failed > 0
}

// Merge folds o — the stats of the trial range immediately after s's — into
// s. Every field is a sum except FirstError, which keeps the earliest trial's
// error; folding per-range stats in range order therefore reproduces exactly
// the stats one loop over the union of the ranges would have produced, which
// is what keeps sharded reports byte-identical to unsharded ones.
func (s *TrialStats) Merge(o TrialStats) {
	s.Trials += o.Trials
	s.Attempts += o.Attempts
	s.Retried += o.Retried
	s.Recovered += o.Recovered
	s.Overruns += o.Overruns
	s.Injected += o.Injected
	s.Failed += o.Failed
	if s.FirstError == "" {
		s.FirstError = o.FirstError
	}
}

// AttemptSeed derives the RNG seed of one retry attempt. Attempt 0 is
// exactly TrialSeed — a clean run is bit-identical to the pre-retry harness —
// and each retry rederives a fresh, decorrelated seed, so a trial that failed
// on noise does not replay the same unlucky stream.
func AttemptSeed(seed int64, id string, trial, attempt int) int64 {
	if attempt == 0 {
		return TrialSeed(seed, id, trial)
	}
	return TrialSeed(TrialSeed(seed, id, trial)+int64(attempt), id+"#retry", attempt)
}

// ResilientTrialRange runs fn over the trials [lo, hi) like Trials, adding
// per-trial panic isolation, up to retries extra attempts with
// attempt-indexed seeds, and the ctx fault plan's injected trial faults. A
// trial re-runs only when its attempt errors or panics. A trial that
// exhausts its attempts contributes its zero value and is counted in the
// stats instead of killing the suite.
//
// fn receives the trial, the attempt and the attempt's derived seed; it must
// base all randomness on seed. Under that contract the results and stats are
// identical at any worker count.
//
// Trial t of the range is trial t of the full loop — same attempt seeds,
// same injected faults — so concatenating the value slices of a partition of
// [0, n) and folding the per-range stats in range order (TrialStats.Merge)
// reproduces exactly what one call over [0, n) returns; the service's
// trial-range shards are such a partition. When ctx.TrialProgress is non-nil
// it is called after every finished trial with the completed count against
// the range's own size; completion order is scheduling-dependent, so the hook
// is observational only (live progress streaming, lease heartbeats) and must
// be safe for concurrent calls.
func ResilientTrialRange[T any](ctx Ctx, id string, retries, lo, hi int, fn func(trial, attempt int, seed int64) (T, error)) ([]T, TrialStats) {
	plan := ctx.Config.Faults
	// Trial-level injections have no machine (and so no bus) to report on;
	// they go straight to the suite observer. Observers attached to parallel
	// trial loops must tolerate concurrent HandleEvent calls (obs.Metrics
	// does), and the commutative fold keeps results worker-count independent.
	emitTrialFault := func(kind string, trial, attempt int) {
		if o := ctx.Config.Observer; o != nil {
			o.HandleEvent(obs.FaultEvent{
				Kind: kind, Count: 1,
				Experiment: id, Trial: trial, Attempt: attempt,
			})
		}
	}
	// Each trial's slot holds its own one-trial stats, folded in trial order
	// after the parallel loop so the stats are identical at any worker count.
	type slot struct {
		val   T
		stats TrialStats
	}
	n := hi - lo
	if n < 0 {
		n = 0
	}
	var completed atomic.Int64
	slots := Trials(ctx.Workers(), n, func(i int) slot {
		trial := lo + i
		s := slot{stats: TrialStats{Trials: 1}}
		defer func() {
			if ctx.TrialProgress != nil {
				ctx.TrialProgress(int(completed.Add(1)), n)
			}
		}()
		var err error
		for attempt := 0; attempt <= retries; attempt++ {
			s.stats.Attempts++
			switch plan.TrialFaultAt(id, trial, attempt) {
			case fault.TrialError:
				s.stats.Injected++
				emitTrialFault("trial-error", trial, attempt)
				err = ErrInjectedError
			case fault.TrialOverrun:
				s.stats.Injected++
				s.stats.Overruns++
				emitTrialFault("trial-overrun", trial, attempt)
				err = ErrDeadline
			case fault.TrialPanic:
				s.stats.Injected++
				emitTrialFault("trial-panic", trial, attempt)
				_, err = runRecovering(func() (T, error) { panic(ErrInjectedPanic) })
			default:
				seed := AttemptSeed(ctx.Config.Seed, id, trial, attempt)
				s.val, err = runRecovering(func() (T, error) { return fn(trial, attempt, seed) })
			}
			if errors.Is(err, errRecovered) {
				s.stats.Recovered++
			}
			if err == nil {
				break
			}
		}
		if s.stats.Attempts > 1 {
			s.stats.Retried = 1
		}
		if err != nil {
			var zero T
			s.val = zero // a failed trial must not leak a partial attempt's value
			s.stats.Failed = 1
			s.stats.FirstError = err.Error()
		}
		return s
	})
	out := make([]T, n)
	var stats TrialStats
	for i, s := range slots {
		out[i] = s.val
		stats.Merge(s.stats)
	}
	return out, stats
}

// errRecovered wraps a recovered panic so callers can count it.
var errRecovered = errors.New("recovered panic")

// runRecovering converts a panic in fn into an error wrapping errRecovered.
func runRecovering[T any](fn func() (T, error)) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero T
			val = zero
			err = fmt.Errorf("%w: %v", errRecovered, p)
		}
	}()
	return fn()
}

// SeedCollisions scans every (id, trial) pair over the given IDs and trial
// count and returns a sorted description of any TrialSeed collisions — the
// sanity check the suite runs over all registered experiment IDs.
func SeedCollisions(seed int64, ids []string, trials int) []string {
	seen := make(map[int64]string, len(ids)*trials)
	var dups []string
	for _, id := range ids {
		for t := 0; t < trials; t++ {
			s := TrialSeed(seed, id, t)
			key := fmt.Sprintf("%s/%d", id, t)
			if prev, dup := seen[s]; dup {
				dups = append(dups, fmt.Sprintf("%s collides with %s (seed %d)", key, prev, s))
			} else {
				seen[s] = key
			}
		}
	}
	sort.Strings(dups)
	return dups
}
