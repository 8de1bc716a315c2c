package harness

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"zenspec/internal/kernel"
)

// TestRunKeepsTwoInFlight runs a toy registry of three experiments. At
// Parallelism 2, a and b meet while both run, a then waits until b has been
// delivered, so b finishes first, and c starts only once b has finished and
// waits for a's delivery; at Parallelism 1 no two overlap. Both hooks append
// to plain slices, which the race detector checks are written from one
// goroutine.
func TestRunKeepsTwoInFlight(t *testing.T) {
	const timeout = 10 * time.Second
	for _, tc := range []struct {
		parallelism int
		wait        time.Duration // how long a waits for b to start
		overlap     bool
	}{
		{parallelism: 2, wait: timeout, overlap: true},
		{parallelism: 1, wait: 50 * time.Millisecond, overlap: false},
	} {
		t.Run(fmt.Sprintf("parallelism=%d", tc.parallelism), func(t *testing.T) {
			var running, peak atomic.Int32
			enter := func() {
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						return
					}
				}
			}
			waitFor := func(ch chan struct{}, d time.Duration) bool {
				select {
				case <-ch:
					return true
				case <-time.After(d):
					return false
				}
			}
			aStarted, bStarted := make(chan struct{}), make(chan struct{})
			aDone, bDone := make(chan struct{}), make(chan struct{})
			reg := NewRegistry()
			reg.Register(Experiment{ID: "a", Run: func(Ctx) Report {
				enter()
				defer running.Add(-1)
				close(aStarted)
				saw := waitFor(bStarted, tc.wait)
				if saw {
					waitFor(bDone, timeout)
				}
				var r Report
				r.AddBool("saw_b", saw, tc.overlap)
				return r
			}})
			reg.Register(Experiment{ID: "b", Run: func(Ctx) Report {
				enter()
				defer running.Add(-1)
				close(bStarted)
				var r Report
				r.AddBool("after_a_started", waitFor(aStarted, timeout), true)
				return r
			}})
			reg.Register(Experiment{ID: "c", Run: func(Ctx) Report {
				enter()
				defer running.Add(-1)
				var r Report
				r.AddBool("after_a", waitFor(aDone, timeout), true)
				return r
			}})

			var hooks []string
			completed := map[string]int{}
			lastDone, lastTotal := -1, -1
			ctx := Ctx{
				Config: kernel.Config{Seed: 1, Parallelism: tc.parallelism},
				Progress: func(done, total int, id string) {
					if done != len(completed) {
						t.Errorf("Progress(%d, %d, %q) after %d completions", done, total, id, len(completed))
					}
					lastDone, lastTotal = done, total
					if id != "" {
						hooks = append(hooks, "start "+id)
					}
				},
				Completed: func(r Report) {
					completed[r.ID]++
					hooks = append(hooks, "done "+r.ID)
					switch r.ID {
					case "a":
						close(aDone)
					case "b":
						close(bDone)
					}
				},
			}
			suite, err := reg.Run(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}

			var ids []string
			for _, r := range suite.Experiments {
				ids = append(ids, r.ID)
				if !r.Pass {
					t.Errorf("%s failed: %+v", r.ID, r.Metrics)
				}
			}
			if want := []string{"a", "b", "c"}; !reflect.DeepEqual(ids, want) {
				t.Errorf("reports in order %v, want registration order %v", ids, want)
			}
			if lastDone != 3 || lastTotal != 3 {
				t.Errorf("last Progress had done %d of %d, want 3 of 3", lastDone, lastTotal)
			}
			for _, id := range []string{"a", "b", "c"} {
				if completed[id] != 1 {
					t.Errorf("%s completed %d times, want once", id, completed[id])
				}
			}
			want := []string{"start a", "done a", "start b", "done b", "start c", "done c"}
			wantPeak := int32(1)
			if tc.overlap {
				want = []string{"start a", "start b", "done b", "start c", "done a", "done c"}
				wantPeak = 2
			}
			if !reflect.DeepEqual(hooks, want) {
				t.Errorf("hook order %v, want %v", hooks, want)
			}
			if got := peak.Load(); got != wantPeak {
				t.Errorf("%d experiments ran at once, want %d", got, wantPeak)
			}
		})
	}
}
