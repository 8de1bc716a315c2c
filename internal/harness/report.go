package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"zenspec/internal/fault"
	"zenspec/internal/obs"
	"zenspec/internal/prof"
)

// Experiment status values: clean (no trouble), degraded (faults or retries
// happened but the experiment produced a full report), failed (the
// experiment itself died and was isolated).
const (
	StatusClean    = "clean"
	StatusDegraded = "degraded"
	StatusFailed   = "failed"
	// StatusSkipped marks an experiment a partial suite never ran: the stub
	// an interrupted run's checkpoint (or a still-executing service job's
	// partial report) carries in place of the real report.
	StatusSkipped = "skipped"
)

// Metric is one named measurement compared against the paper's expectation
// band; the band is inclusive on both ends.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Pass  bool    `json:"pass"`
}

// Report is the outcome of one registry experiment: its headline metrics
// with pass bands, the experiment's own text rendering, and wall time.
type Report struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Paper   string   `json:"paper"`
	Metrics []Metric `json:"metrics"`
	Pass    bool     `json:"pass"`
	Detail  string   `json:"detail,omitempty"`
	// Status is the failure-provenance verdict: clean, degraded (retries,
	// recovered panics or injected faults happened on the way to a full
	// report) or failed (the experiment died; Pass is forced false).
	Status string `json:"status,omitempty"`
	// Trouble carries the trial-level provenance behind a degraded status.
	Trouble *TrialStats `json:"trouble,omitempty"`
	// Error is the terminal error of a failed experiment.
	Error string `json:"error,omitempty"`
	// Micro carries the per-experiment microarchitectural metrics snapshot
	// when the run was started with metrics collection (Ctx.Metrics); its
	// content is deterministic, so it participates in StableJSON.
	Micro *obs.MetricsSnapshot `json:"micro,omitempty"`
	// Profile carries the per-experiment cycle-attribution profile when the
	// run was started with profiling (Ctx.Profile). Like Micro it is
	// deterministic at any worker count and participates in StableJSON.
	Profile *prof.Snapshot `json:"profile,omitempty"`
	// WallMS is host wall-clock time. It is the one host-dependent field;
	// StableJSON zeroes it so reports can be compared across worker counts.
	// In a suite Run it includes time shared with the experiment running
	// beside it; RunShard times an experiment alone.
	WallMS float64 `json:"wall_ms"`
}

// RecordTrials attaches a resilient trial loop's provenance to the report;
// a degraded loop degrades the report's status.
func (r *Report) RecordTrials(s TrialStats) {
	if r.Trouble == nil {
		r.Trouble = &TrialStats{}
	}
	r.Trouble.Trials += s.Trials
	r.Trouble.Attempts += s.Attempts
	r.Trouble.Retried += s.Retried
	r.Trouble.Recovered += s.Recovered
	r.Trouble.Overruns += s.Overruns
	r.Trouble.Injected += s.Injected
	r.Trouble.Failed += s.Failed
	if r.Trouble.FirstError == "" {
		r.Trouble.FirstError = s.FirstError
	}
	if r.Trouble.Degraded() && r.Status != StatusFailed {
		r.Status = StatusDegraded
	}
}

// Add records a metric with its inclusive pass band [min, max].
func (r *Report) Add(name string, value, min, max float64) {
	r.Metrics = append(r.Metrics, Metric{
		Name:  name,
		Value: value,
		Min:   min,
		Max:   max,
		Pass:  value >= min && value <= max,
	})
}

// AddBool records a boolean expectation as a 0/1 metric that must equal want.
func (r *Report) AddBool(name string, got, want bool) {
	v, w := 0.0, 0.0
	if got {
		v = 1
	}
	if want {
		w = 1
	}
	r.Add(name, v, w, w)
}

func (r *Report) computePass() bool {
	if r.Status == StatusFailed {
		return false
	}
	for _, m := range r.Metrics {
		if !m.Pass {
			return false
		}
	}
	return true
}

// SuiteReport is one consolidated run of selected registry experiments plus
// the parameters that produced it.
type SuiteReport struct {
	Seed        int64 `json:"seed"`
	Quick       bool  `json:"quick"`
	Parallelism int   `json:"parallelism"`
	// Faults echoes the active fault plan so a degraded report documents
	// what it survived; omitted for clean runs.
	Faults      *fault.Plan `json:"faults,omitempty"`
	Experiments []Report    `json:"experiments"`
}

// AllPass reports whether every experiment landed inside its paper band.
func (s SuiteReport) AllPass() bool {
	for _, r := range s.Experiments {
		if !r.Pass {
			return false
		}
	}
	return true
}

// Failed lists the IDs of experiments outside their bands.
func (s SuiteReport) Failed() []string {
	var ids []string
	for _, r := range s.Experiments {
		if !r.Pass {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// Profile merges the per-experiment profiles into one suite-level snapshot
// (nil when no experiment carried one). The merge is order-independent up to
// its final sort, so the aggregate inherits each profile's worker-count
// determinism.
func (s SuiteReport) Profile() *prof.Snapshot {
	var out *prof.Snapshot
	for _, r := range s.Experiments {
		if r.Profile == nil {
			continue
		}
		if out == nil {
			out = &prof.Snapshot{}
		}
		out.Merge(r.Profile)
	}
	return out
}

// JSON renders the suite report indented.
func (s SuiteReport) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// StableJSON renders the suite with host-dependent fields (wall times and
// the resolved worker count) zeroed: the canonical form that two runs of the
// same seed must reproduce byte for byte at any parallelism.
func (s SuiteReport) StableJSON() ([]byte, error) {
	c := s
	c.Parallelism = 0
	c.Experiments = make([]Report, len(s.Experiments))
	copy(c.Experiments, s.Experiments)
	for i := range c.Experiments {
		c.Experiments[i].WallMS = 0
	}
	return json.MarshalIndent(c, "", "  ")
}

// Text renders the consolidated text report: one section per experiment with
// its detail block, metric bands, and verdict.
func (s SuiteReport) Text() string {
	var b strings.Builder
	var totalMS float64
	for _, r := range s.Experiments {
		fmt.Fprintf(&b, "===== %s — %s =====\n", r.ID, r.Title)
		if r.Paper != "" {
			fmt.Fprintf(&b, "paper: %s\n", r.Paper)
		}
		if r.Detail != "" {
			b.WriteString(strings.TrimRight(r.Detail, "\n"))
			b.WriteByte('\n')
		}
		for _, m := range r.Metrics {
			mark := "ok"
			if !m.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  %-28s %8.3f  band [%g, %g]  %s\n",
				m.Name, m.Value, m.Min, m.Max, mark)
		}
		if r.Error != "" {
			fmt.Fprintf(&b, "  error: %s\n", r.Error)
		}
		if r.Micro != nil {
			b.WriteString(r.Micro.Text())
		}
		if r.Profile != nil {
			fmt.Fprintf(&b, "  profile (top 10 of %d sites, %d cycles):\n", len(r.Profile.Samples), r.Profile.TotalCycles)
			b.WriteString(r.Profile.Text(10))
		}
		if t := r.Trouble; t != nil && t.Degraded() {
			fmt.Fprintf(&b, "  trials %d, attempts %d (retried %d, recovered %d, overruns %d, injected %d, failed %d)\n",
				t.Trials, t.Attempts, t.Retried, t.Recovered, t.Overruns, t.Injected, t.Failed)
		}
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		if r.Status == StatusDegraded {
			verdict += " (degraded)"
		}
		fmt.Fprintf(&b, "%s (%.2fs)\n\n", verdict, r.WallMS/1000)
		totalMS += r.WallMS
	}
	passed := 0
	for _, r := range s.Experiments {
		if r.Pass {
			passed++
		}
	}
	// Experiments of one Run overlap, so the sum of their wall clocks is
	// not the run's wall clock.
	fmt.Fprintf(&b, "suite: %d/%d experiments in paper band; seed %d; workers %d; summed wall %.2fs\n",
		passed, len(s.Experiments), s.Seed, s.Parallelism, totalMS/1000)
	return b.String()
}
