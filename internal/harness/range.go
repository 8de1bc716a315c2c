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

// RangeSpec decomposes an experiment into independent trials, the one unit of
// work the harness runs: a suite run executes every experiment as the range
// [0, Trials), and the zenspecd service can split one across shards (and
// machines). A plain Run experiment is registered as one trial whose
// fragment is its Report. The contract mirrors the per-trial seed derivation
// that already makes suite reports deterministic: trial i's fragment
// contribution may depend only on (ctx, i), never on which other trials ran
// in the same range. Under that contract Merge over any partition of
// [0, Trials) produces the same Report byte for byte.
type RangeSpec struct {
	// Trials returns the number of independent trials at this ctx (quick mode
	// typically shrinks it). It must be a pure function of ctx.
	Trials func(ctx Ctx) int
	// Run computes trials [lo, hi) and returns their fragment, a JSON
	// document Merge understands. Per-trial failures must be encoded in the
	// fragment (so the merged report does not depend on the split); a panic
	// or an error return fails the experiment.
	Run func(ctx Ctx, lo, hi int) ([]byte, error)
	// Merge folds a full, ordered partition of [0, Trials) into the
	// experiment's Report body (metrics, detail, trouble). The harness fills
	// in identity fields, status default, Micro/Profile and the verdict.
	Merge func(ctx Ctx, frags []Fragment) Report
}

// Fragment is one range's carried result, as produced by RangeSpec.Run.
type Fragment struct {
	Lo, Hi int
	Data   []byte
}

// PartialReport is the durable unit of work: the outcome of RunTrialRange
// over one trial range, including the range's share of the metrics/profile
// observations.
type PartialReport struct {
	Exp string `json:"exp"`
	// Lo/Hi delimit the trial range; both zero address all the trials.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Frag is the RangeSpec.Run fragment.
	Frag json.RawMessage `json:"frag,omitempty"`
	// Error is set, in place of Frag, when the range's Run panicked or
	// failed; MergeTrialRanges turns it into the experiment's failed report.
	Error string `json:"error,omitempty"`
	// Micro and Profile are the range's observer snapshots; both fold
	// commutatively, so MergeTrialRanges reassembles the exact snapshots one
	// range over all the trials would have taken.
	Micro   *obs.MetricsSnapshot `json:"micro,omitempty"`
	Profile *prof.Snapshot       `json:"profile,omitempty"`
	// WallMS is this range's host wall clock; the merged report's WallMS is
	// the sum (total compute cost, not makespan). StableJSON zeroes it.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// Trials returns the trial count an experiment splits over at this ctx: 1
// for a plain Run experiment. Unknown ids are errors, as in Select.
func (r *Registry) Trials(ctx Ctx, id string) (int, error) {
	e, ok := r.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	return e.Range.Trials(ctx), nil
}

// RunTrialRange executes trials [lo, hi) of one experiment and returns the
// durable partial; lo == hi == 0 addresses all the trials. The range gets its
// own fresh metrics/profile registries, so the partial carries precisely its
// trials' share of the observations. A range whose Run panics or errors
// yields a partial with Error set; unknown experiments and bad ranges are Go
// errors.
func (r *Registry) RunTrialRange(ctx Ctx, id string, lo, hi int) (PartialReport, error) {
	e, ok := r.Get(id)
	if !ok {
		return PartialReport{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	n := e.Range.Trials(ctx)
	if lo == 0 && hi == 0 {
		hi = n
	}
	if lo < 0 || hi > n || lo >= hi {
		return PartialReport{}, fmt.Errorf("harness: bad trial range [%d, %d) for %q (%d trials)", lo, hi, id, n)
	}
	if ctx.Arenas == nil {
		ctx.Arenas = NewArenaPool()
	}
	// Collect earlier work's garbage outside the timed region, so its heap
	// debt is not charged to this range's wall clock (results are unaffected
	// either way: WallMS is excluded from the stable report). When Run keeps
	// a neighbour in flight, the collection lands in the neighbour's wall
	// clock instead.
	runtime.GC()
	start := time.Now()
	ectx, mc, pp := attachObservers(ctx)
	p := PartialReport{Exp: id, Lo: lo, Hi: hi}
	if err := isolate(func() (err error) {
		p.Frag, err = e.Range.Run(ectx, lo, hi)
		if err != nil {
			err = fmt.Errorf("experiment range failed: %w", err)
		}
		return err
	}); err != nil {
		p.Frag, p.Error = nil, err.Error()
	}
	if mc != nil {
		p.Micro = mc.Snapshot()
	}
	if pp != nil {
		p.Profile = pp.Snapshot()
	}
	p.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return p, nil
}

// isolate runs fn, turning a panic into the error a failed report carries, so
// a dying experiment fails its own report instead of the suite or the service.
func isolate(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment panicked: %v", p)
		}
	}()
	return fn()
}

// MergeTrialRanges assembles one experiment's finished Report from its
// partials, which must tile [0, Trials) exactly (supplied in any order: the
// merge sorts by Lo; a partial at lo == hi == 0 covers all the trials). The
// fragments fold through RangeSpec.Merge, so the result is byte-identical at
// any split. A partial carrying an Error, or a panicking Merge, yields the
// experiment's failed report, the same at any split.
func (r *Registry) MergeTrialRanges(ctx Ctx, id string, parts []PartialReport) (Report, error) {
	e, ok := r.Get(id)
	if !ok {
		return Report{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("harness: no partials for %q", id)
	}
	sorted := append([]PartialReport(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	n := e.Range.Trials(ctx)
	next := 0
	frags := make([]Fragment, 0, len(sorted))
	var failure string
	var wall float64
	for _, p := range sorted {
		lo, hi := p.Lo, p.Hi
		if lo == 0 && hi == 0 {
			hi = n
		}
		if lo != next || hi <= lo {
			return Report{}, fmt.Errorf("harness: partials for %q do not tile [0, %d): got [%d, %d) at offset %d", id, n, lo, hi, next)
		}
		next = hi
		frags = append(frags, Fragment{Lo: lo, Hi: hi, Data: p.Frag})
		if failure == "" {
			failure = p.Error
		}
		wall += p.WallMS
	}
	if next != n {
		return Report{}, fmt.Errorf("harness: partials for %q cover [0, %d), want [0, %d)", id, next, n)
	}
	var rep Report
	if failure == "" {
		if err := isolate(func() error { rep = e.Range.Merge(ctx, frags); return nil }); err != nil {
			failure = err.Error()
		}
	}
	if failure != "" {
		// A failed experiment's observations depend on where it died, so its
		// report carries none: it reads the same at any split.
		rep = Report{Status: StatusFailed, Error: failure}
	} else {
		rep.Micro, rep.Profile = foldObservations(sorted)
	}
	rep.ID = e.ID
	rep.Title = e.Title
	rep.Paper = e.Paper
	if rep.Status == "" {
		rep.Status = StatusClean
	}
	rep.Pass = rep.computePass()
	rep.WallMS = wall
	return rep, nil
}

// foldObservations merges the partials' metrics and profile snapshots; a
// section no partial carries stays nil.
func foldObservations(parts []PartialReport) (*obs.MetricsSnapshot, *prof.Snapshot) {
	if len(parts) == 1 {
		// One range's snapshots are already the fold; folding them into empty
		// ones would copy and re-sort every sample.
		return parts[0].Micro, parts[0].Profile
	}
	var micro *obs.MetricsSnapshot
	var profile *prof.Snapshot
	for _, p := range parts {
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
	}
	return micro, profile
}

// lowerRun registers a plain Run experiment as one trial whose fragment is
// the JSON of the Report run returns.
func lowerRun(run func(Ctx) Report) *RangeSpec {
	return &RangeSpec{
		Trials: func(Ctx) int { return 1 },
		Run: func(ctx Ctx, _, _ int) ([]byte, error) {
			return json.Marshal(run(ctx))
		},
		Merge: func(_ Ctx, frags []Fragment) Report {
			var rep Report
			if err := json.Unmarshal(frags[0].Data, &rep); err != nil {
				return Report{Status: StatusFailed, Error: fmt.Sprintf("report fragment: %v", err)}
			}
			return rep
		},
	}
}
