package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	xs := make([]float64, 62)
	for i := range xs {
		xs[i] = float64(62 - i) // 62..1, unsorted on purpose
	}
	got := tailOf(xs)
	// Index 51 of 1..62 is 52: exactly ten samples (53..62) lie beyond it.
	if got.Value != 52 || !got.Exact || got.N != 62 {
		t.Fatalf("tailOf(1..62) = %+v, want value 52, exact", got)
	}
	if want := 100 * 52.0 / 62; math.Abs(got.Percentile-want) > 1e-9 {
		t.Fatalf("percentile %v, want %v", got.Percentile, want)
	}

	// Eleven samples: the smallest is the only one with ten beyond it.
	eleven := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	if got := tailOf(eleven); got.Value != 1 || !got.Exact {
		t.Fatalf("tailOf(11 samples) = %+v, want the minimum", got)
	}

	// Ten or fewer: no percentile qualifies, so the maximum is reported.
	if got := tailOf([]float64{3, 9, 1}); got.Value != 9 || got.Exact || got.Percentile != 100 {
		t.Fatalf("tailOf(3 samples) = %+v, want the maximum, inexact", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := median([]float64{2, math.Inf(1), 1}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Fatalf("median of {1, +Inf} = %v, want +Inf", got)
	}
}

func span(start, end int) Span {
	return Span{Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span(0, 100)
	cases := []struct {
		name string
		kids []Span
		want int
	}{
		{"none", nil, 100},
		{"disjoint", []Span{span(10, 20), span(30, 40)}, 80},
		// Two workers running shards of one job at once: the union, not
		// the sum, is subtracted.
		{"overlapping", []Span{span(10, 50), span(30, 70)}, 40},
		{"nested", []Span{span(10, 90), span(20, 30)}, 20},
		// A child outside the parent's interval only counts where it overlaps.
		{"clipped", []Span{span(-20, 10), span(95, 130)}, 85},
		{"unsorted", []Span{span(60, 80), span(0, 10), span(5, 25)}, 55},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestSelfTimesCountsOnlyNamedChildren(t *testing.T) {
	tr := NewTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Record("", "job", "client-1", -1, at(0), at(100))
	// Two shards of the job on two workers, finished before the client knew
	// the job's ID; a status poll that must not count as shard execution.
	tr.RecordUnderRoot("job-1", "shard", "worker-1", at(10), at(60))
	tr.RecordUnderRoot("job-1", "shard", "worker-2", at(40), at(80))
	tr.RecordUnderRoot("job-1", "status", "client-1", at(85), at(95))
	tr.SetRoot(root, "job-1")

	spans := tr.Spans()
	for _, s := range spans[1:] {
		if s.Parent != root {
			t.Fatalf("span %s has parent %d, want the job's root %d", s.Name, s.Parent, root)
		}
	}
	if got := selfTimes(spans, "job", "shard"); !reflect.DeepEqual(got, []float64{30}) {
		t.Fatalf("job self time = %v ms, want [30]", got)
	}
	if got := selfTimes(spans, "job", ""); !reflect.DeepEqual(got, []float64{20}) {
		t.Fatalf("job self time over all children = %v ms, want [20]", got)
	}
}

func TestFailedJobsCountInFailFracAndTail(t *testing.T) {
	var outs []jobOutcome
	for i := 0; i < 20; i++ {
		outs = append(outs, jobOutcome{id: "ok", latMS: float64(i + 1)})
	}
	refused := jobOutcome{}
	refused.fail("refused: draining")
	mismatch := jobOutcome{id: "job-9", latMS: 5}
	mismatch.fail("report differs from the in-process run of its spec")
	outs = append(outs, refused, mismatch)

	res := &result{}
	lat, good := jobStats(res, outs, func(string, ...any) {})
	if res.Attempted != 22 || res.Failed != 2 || good != 20 {
		t.Fatalf("attempted %d failed %d good %d, want 22, 2, 20", res.Attempted, res.Failed, good)
	}
	// 22 samples: index 11 has ten beyond it — the two failures among them.
	if got := tailOf(lat); got.Value != 12 {
		t.Fatalf("tail = %+v, want 12: failures must sort beyond every finished job", got)
	}

	// Once failures reach the tail, it reads as missing, capped at the window.
	for i := 0; i < 10; i++ {
		f := jobOutcome{}
		f.fail("wait: job failed")
		outs = append(outs, f)
	}
	lat, _ = jobStats(&result{}, outs, func(string, ...any) {})
	tl := tailOf(lat)
	if !math.IsInf(tl.Value, 1) || capInf(tl.Value, 5000) != 5000 {
		t.Fatalf("tail with 12 failures = %v, want +Inf capped to the window", tl.Value)
	}
}

func TestJobSpecDerivation(t *testing.T) {
	a, b := jobSpec(42, 7), jobSpec(42, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("jobSpec(42, 7) differs between calls: %+v vs %+v", a, b)
	}
	if a.Seed != 803_958_421_000_007 {
		t.Fatalf("jobSpec(42, 7).Seed = %d; the derivation changed, so earlier results no longer reproduce", a.Seed)
	}
	if !a.Quick || a.Split != jobSplit || !reflect.DeepEqual(a.Only, serviceIDs) {
		t.Fatalf("jobSpec shape %+v", a)
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 2000; i++ {
			s := jobSeed(seed, i)
			if seen[s] || s < 0 {
				t.Fatalf("jobSeed(%d, %d) = %d repeats or is negative", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestExperimentSeed(t *testing.T) {
	if got := experimentSeed(42); got != 42 {
		t.Fatalf("experimentSeed(42) = %d, want the baseline experiment seed 42", got)
	}
	n := int64(len(experimentSeeds))
	for seed := -2 * n; seed < 2*n; seed++ {
		if got, want := experimentSeed(seed), experimentSeeds[(seed%n+n)%n]; got != want {
			t.Fatalf("experimentSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  867309 0 46001 749023 5387 0 7190 77936 0 0\n" +
		"cpu0 433654 0 23000 374511 2693 0 3595 38968 0 0\n" +
		"cpu1 433655 0 23001 374512 2694 0 3595 38968 0 0\n" +
		"intr 1 2 3\nctxt 99\n")
	steal, cpus, ok := parseSteal(stat)
	if !ok || cpus != 2 || steal != 779360*time.Millisecond {
		t.Fatalf("parseSteal = %v, %d CPUs, ok %v; want 779.36s over 2 CPUs", steal, cpus, ok)
	}
	if _, _, ok := parseSteal([]byte("cpu  1 2 3\ncpu0 1 2 3\n")); ok {
		t.Fatal("parseSteal accepted a cpu line without a steal column")
	}
}

func TestIntervalNetOfSteal(t *testing.T) {
	iv := interval{wall: 10 * time.Second, stolen: 2 * time.Second}
	if iv.net() != 8*time.Second || iv.scale() != 0.8 || math.Abs(iv.share()-0.2) > 1e-12 {
		t.Fatalf("net %v scale %v share %v, want 8s, 0.8, 0.2", iv.net(), iv.scale(), iv.share())
	}
	// On a short interval one 10 ms steal tick can exceed the wall time:
	// the wall time is kept rather than a zero or negative one reported.
	short := interval{wall: 5 * time.Millisecond, stolen: 10 * time.Millisecond}
	if short.net() != short.wall || short.scale() != 1 {
		t.Fatalf("short interval net %v scale %v, want the wall time kept", short.net(), short.scale())
	}
}
