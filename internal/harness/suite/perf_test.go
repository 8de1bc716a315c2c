package suite

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"zenspec/internal/harness"
	"zenspec/internal/kernel"
)

// TestParallelNeverRegressesSerial guards the adaptive serial fallback: with
// goroutine dispatch gated on measured per-trial cost (see
// harness.TrialsArena), asking for workers must never make the quick suite
// meaningfully slower than running it serially. Before the fallback, the
// cheapest grids (fig5, table2) ran at 0.7× under -parallel 8 because
// dispatch cost more than the trials.
//
// The margin is 10% plus a small absolute slack so scheduler noise on a
// sub-second total cannot flake the test; a real regression (cheap trial
// loops paying goroutine dispatch again) is far larger. The two sides are
// timed alternately (serial, 8 workers, 8 workers, serial) and each side's
// faster run is compared, so one burst of load from a neighbouring process
// slows one run of a side, not the verdict; a real regression slows both.
func TestParallelNeverRegressesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison; not representative under the race detector")
	}
	run := func(workers int) time.Duration {
		cfg := kernel.Config{Seed: 42, Parallelism: workers}
		start := time.Now()
		if _, err := Registry().Run(harness.Ctx{Config: cfg, Quick: true}, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(1) // warm build caches and pools so neither timed run pays them
	serial := run(1)
	parallel := min(run(8), run(8))
	serial = min(serial, run(1))
	limit := serial + serial/10 + 250*time.Millisecond
	if parallel > limit {
		t.Errorf("quick suite at 8 workers took %v, serial %v: parallel regresses serial by more than 10%%",
			parallel, serial)
	}
	t.Logf("quick suite: serial %v, 8 workers %v", serial, parallel)
}

// TestConcurrentExperimentsNoBleed runs two experiments at the same time in
// one process and checks both against their solo baselines. Every pooled
// resource the allocation-free refactor introduced — recycled run states and
// episode clones, decoded-page caches, arena-backed trial scratch, reused
// Flush+Reload hit buffers — is per-core or per-worker by construction;
// under `go test -race` this test turns any accidental sharing into a race
// report, and the byte comparison catches silent cross-trial bleed even
// when it is not a data race.
func TestConcurrentExperimentsNoBleed(t *testing.T) {
	solo := func(id string) ([]byte, error) {
		cfg := kernel.Config{Seed: 42, Parallelism: 2}
		rep, err := Registry().Run(harness.Ctx{Config: cfg, Quick: true}, []string{id})
		if err != nil {
			return nil, err
		}
		return rep.StableJSON()
	}
	ids := []string{"spectre-stl", "fig5"}
	want := map[string][]byte{}
	for _, id := range ids {
		b, err := solo(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = b
	}
	got := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = solo(id)
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[id]) {
			t.Errorf("%s run concurrently with %s differs from its solo run", id, ids[1-i])
		}
	}
}
