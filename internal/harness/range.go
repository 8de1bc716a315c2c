package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"zenspec/internal/obs"
	"zenspec/internal/prof"
)

// RangeSpec decomposes an experiment into independent trials so the zenspecd
// service can split one experiment across shards (and machines). The contract
// mirrors the per-trial seed derivation that already makes suite reports
// deterministic: trial i's fragment contribution may depend only on (ctx, i),
// never on which other trials ran in the same range. Under that contract
// Merge over any partition of [0, Trials) — including the trivial one-range
// partition the unsharded path uses — produces the same Report byte for byte.
type RangeSpec struct {
	// Trials returns the number of independent trials at this ctx (quick mode
	// typically shrinks it). It must be a pure function of ctx.
	Trials func(ctx Ctx) int
	// Run computes trials [lo, hi) and returns their fragment, a JSON
	// document Merge understands. Per-trial failures must be encoded in the
	// fragment (so the merged report reproduces the unsharded error handling
	// exactly); the error return is for infrastructure faults only and fails
	// the whole range.
	Run func(ctx Ctx, lo, hi int) ([]byte, error)
	// Merge folds a full, ordered partition of [0, Trials) into the
	// experiment's Report body (metrics, detail, trouble). The harness fills
	// in identity fields, status default, Micro/Profile and the verdict, the
	// same way it does for a plain Run experiment.
	Merge func(ctx Ctx, frags []Fragment) Report
}

// Fragment is one range's carried result, as produced by RangeSpec.Run.
type Fragment struct {
	Lo, Hi int
	Data   []byte
}

// PartialReport is the durable unit of a sharded experiment: the outcome of
// RunTrialRange over one trial range, including the range's share of the
// metrics/profile observations. A whole-experiment shard (the only shape
// available to experiments without a RangeSpec) carries the finished Report
// instead of a fragment.
type PartialReport struct {
	Exp string `json:"exp"`
	// Lo/Hi delimit the trial range; a whole-experiment partial leaves them
	// zero and sets Report.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Frag is the RangeSpec.Run fragment of a trial-range partial.
	Frag json.RawMessage `json:"frag,omitempty"`
	// Report is the finished report of a whole-experiment partial.
	Report *Report `json:"report,omitempty"`
	// Micro and Profile are the range's observer snapshots; both fold
	// commutatively, so MergeTrialRanges reassembles the exact snapshots an
	// unsharded run would have taken.
	Micro   *obs.MetricsSnapshot `json:"micro,omitempty"`
	Profile *prof.Snapshot       `json:"profile,omitempty"`
	// WallMS is this range's host wall clock; the merged report's WallMS is
	// the sum (total compute cost, not makespan). StableJSON zeroes it.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// Whole reports whether the partial carries a finished whole-experiment
// report rather than a trial-range fragment.
func (p PartialReport) Whole() bool { return p.Report != nil }

// Trials returns the trial count an experiment's RangeSpec would split over
// at this ctx, or 0 for experiments without one (their only shard shape is
// the whole experiment). Unknown ids are errors, as in Select.
func (r *Registry) Trials(ctx Ctx, id string) (int, error) {
	e, ok := r.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if e.Range == nil {
		return 0, nil
	}
	return e.Range.Trials(ctx), nil
}

// RunTrialRange executes trials [lo, hi) of one experiment and returns the
// durable partial. The convention lo == hi == 0 means the whole experiment —
// the only legal shape for experiments without a RangeSpec, and exactly
// RunShard for those that have one (the unsharded path funnels through the
// same Run+Merge, which is what makes any split byte-identical). A non-empty
// range gets its own fresh metrics/profile registries, so the partial carries
// precisely its trials' share of the observations.
func (r *Registry) RunTrialRange(ctx Ctx, id string, lo, hi int) (PartialReport, error) {
	e, ok := r.Get(id)
	if !ok {
		return PartialReport{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if lo == 0 && hi == 0 {
		rep, err := r.RunShard(ctx, id)
		if err != nil {
			return PartialReport{}, err
		}
		return PartialReport{Exp: id, Report: &rep, WallMS: rep.WallMS}, nil
	}
	if e.Range == nil {
		return PartialReport{}, fmt.Errorf("harness: experiment %q has no trial-range decomposition", id)
	}
	if n := e.Range.Trials(ctx); lo < 0 || hi > n || lo >= hi {
		return PartialReport{}, fmt.Errorf("harness: bad trial range [%d, %d) for %q (%d trials)", lo, hi, id, n)
	}
	if ctx.Arenas == nil {
		ctx.Arenas = NewArenaPool()
	}
	runtime.GC() // keep range timing debt-free, like runOne
	start := time.Now()
	ectx, mc, pp := attachObservers(ctx)
	frag, err := runRangeIsolated(e, ectx, lo, hi)
	if err != nil {
		return PartialReport{}, err
	}
	p := PartialReport{Exp: id, Lo: lo, Hi: hi, Frag: frag}
	if mc != nil {
		p.Micro = mc.Snapshot()
	}
	if pp != nil {
		p.Profile = pp.Snapshot()
	}
	p.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return p, nil
}

// runRangeIsolated runs one range with panic isolation; unlike a whole
// experiment (whose panic becomes a failed Report), a dying range is an
// infrastructure error — the service fails the shard.
func runRangeIsolated(e Experiment, ctx Ctx, lo, hi int) (frag []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			frag, err = nil, fmt.Errorf("harness: range [%d, %d) of %q panicked: %v", lo, hi, e.ID, p)
		}
	}()
	return e.Range.Run(ctx, lo, hi)
}

// MergeTrialRanges assembles one experiment's finished Report from its
// partials. A single whole-experiment partial passes through unchanged; a
// set of trial-range partials must tile [0, Trials) exactly (supplied in any
// order — the merge sorts by Lo) and is folded through RangeSpec.Merge with
// the same post-processing runOne applies, so the result is byte-identical
// to the unsharded report.
func (r *Registry) MergeTrialRanges(ctx Ctx, id string, parts []PartialReport) (Report, error) {
	e, ok := r.Get(id)
	if !ok {
		return Report{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("harness: no partials for %q", id)
	}
	if len(parts) == 1 && parts[0].Whole() {
		return *parts[0].Report, nil
	}
	if e.Range == nil {
		return Report{}, fmt.Errorf("harness: experiment %q has no trial-range decomposition", id)
	}
	sorted := append([]PartialReport(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	n := e.Range.Trials(ctx)
	next := 0
	frags := make([]Fragment, 0, len(sorted))
	var micro *obs.MetricsSnapshot
	var profile *prof.Snapshot
	var wall float64
	for _, p := range sorted {
		if p.Whole() || p.Lo != next || p.Hi <= p.Lo {
			return Report{}, fmt.Errorf("harness: partials for %q do not tile [0, %d): got [%d, %d) at offset %d", id, n, p.Lo, p.Hi, next)
		}
		next = p.Hi
		frags = append(frags, Fragment{Lo: p.Lo, Hi: p.Hi, Data: p.Frag})
		if p.Micro != nil {
			if micro == nil {
				micro = &obs.MetricsSnapshot{}
			}
			micro.Merge(p.Micro)
		}
		if p.Profile != nil {
			if profile == nil {
				profile = &prof.Snapshot{}
			}
			profile.Merge(p.Profile)
		}
		wall += p.WallMS
	}
	if next != n {
		return Report{}, fmt.Errorf("harness: partials for %q cover [0, %d), want [0, %d)", id, next, n)
	}
	rep := e.Range.Merge(ctx, frags)
	rep.ID = e.ID
	rep.Title = e.Title
	rep.Paper = e.Paper
	if rep.Status == "" {
		rep.Status = StatusClean
	}
	if micro != nil {
		rep.Micro = micro
	}
	if profile != nil {
		rep.Profile = profile
	}
	rep.Pass = rep.computePass()
	rep.WallMS = wall
	return rep, nil
}
