package harness

import (
	"errors"
	"fmt"
	"sort"

	"zenspec/internal/kernel"
	"zenspec/internal/obs"
	"zenspec/internal/prof"
)

// ErrUnknownExperiment is returned (wrapped, with the offending ID) when a
// selection names an experiment the registry does not have.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Ctx carries the run parameters into an experiment. Config is the lowered
// machine configuration (mitigation posture, seed, parallelism); Quick
// selects reduced trial counts for smoke runs.
type Ctx struct {
	Config kernel.Config
	Quick  bool
	// Metrics attaches a per-experiment obs.Metrics registry to every machine
	// the experiment boots and surfaces the snapshot as Report.Micro. The
	// registry folds commutatively, so the snapshot is deterministic at any
	// worker count.
	Metrics bool
	// Profile attaches a per-experiment prof.Profile to every machine the
	// experiment boots and surfaces the snapshot as Report.Profile. Like
	// Metrics, accumulation is commutative, so the snapshot is deterministic
	// at any worker count.
	Profile bool
	// Progress, when non-nil, is called by Run as the suite advances: once
	// as each experiment starts, with the count of experiments already
	// finished and the ID starting, and once after the last with done ==
	// total. Run makes every call from its own goroutine. It feeds live
	// telemetry; leave nil when nothing is watching.
	Progress func(done, total int, id string)
	// TrialProgress, when non-nil, is called by ResilientTrialRange after every
	// finished trial with the completed count and the trial total of the
	// current loop. Completion order is scheduling-dependent, so the hook is
	// observational only (per-shard progress streaming, worker lease
	// heartbeats); it must tolerate concurrent calls and must never feed
	// back into results.
	TrialProgress func(done, total int)
	// Completed, when non-nil, is called with every finished experiment
	// report, in completion order, from RunShard and Run alike; Run makes
	// every call from its own goroutine, so it and Progress need no lock
	// between them. It is how a partial suite survives an interrupted run:
	// the caller accumulates reports as they land and can assemble a
	// checkpoint at any time.
	Completed func(Report)
	// Arenas recycles per-worker scratch arenas (TrialsArena) across the
	// suite's experiments. Run installs one automatically; a nil pool
	// still works everywhere and just forgoes recycling.
	Arenas *ArenaPool
}

// Workers resolves the context's Parallelism knob.
func (c Ctx) Workers() int { return Workers(c.Config.Parallelism) }

// Experiment is one row of DESIGN.md's per-experiment index: a stable ID,
// the paper's headline expectation, and a body producing a Report whose
// metrics carry pass bands.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Tags  []string
	// Run is the body of an experiment that runs as one piece. Register
	// lowers it into a one-trial Range, and nothing after Register reads it.
	Run func(ctx Ctx) Report
	// Range decomposes the experiment into independent trials so the
	// service can split it across shards. Every run goes through its
	// Run+Merge pair, which is what makes any split byte-identical.
	Range *RangeSpec
}

// HasTag reports whether the experiment carries tag.
func (e Experiment) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Registry is an ordered experiment collection; registration order is
// report order.
type Registry struct {
	exps []Experiment
	byID map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]int{}}
}

// Register adds an experiment; duplicate or empty IDs are programming
// errors, as is anything but exactly one of Run and Range (two execution
// paths for one experiment would inevitably drift apart).
func (r *Registry) Register(e Experiment) {
	if e.ID == "" {
		panic("harness: experiment needs an ID")
	}
	if (e.Run == nil) == (e.Range == nil) {
		panic("harness: experiment " + e.ID + " needs exactly one of Run and Range")
	}
	if e.Range != nil && (e.Range.Trials == nil || e.Range.Run == nil || e.Range.Merge == nil) {
		panic("harness: experiment " + e.ID + " has an incomplete RangeSpec")
	}
	if _, dup := r.byID[e.ID]; dup {
		panic("harness: duplicate experiment ID " + e.ID)
	}
	if e.Run != nil {
		e.Range, e.Run = lowerRun(e.Run), nil
	}
	r.byID[e.ID] = len(r.exps)
	r.exps = append(r.exps, e)
}

// All returns the experiments in registration order.
func (r *Registry) All() []Experiment {
	out := make([]Experiment, len(r.exps))
	copy(out, r.exps)
	return out
}

// Get looks up an experiment by ID.
func (r *Registry) Get(id string) (Experiment, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Experiment{}, false
	}
	return r.exps[i], true
}

// Select resolves a subset: explicit IDs win (reported in registry order),
// otherwise a tag filter, otherwise everything. Unknown IDs are errors.
func (r *Registry) Select(ids []string, tag string) ([]Experiment, error) {
	if len(ids) > 0 {
		idx := make([]int, 0, len(ids))
		for _, id := range ids {
			i, ok := r.byID[id]
			if !ok {
				return nil, fmt.Errorf("%w %q (see -list)", ErrUnknownExperiment, id)
			}
			idx = append(idx, i)
		}
		sort.Ints(idx)
		out := make([]Experiment, 0, len(idx))
		for j, i := range idx {
			if j > 0 && idx[j-1] == i {
				continue
			}
			out = append(out, r.exps[i])
		}
		return out, nil
	}
	var out []Experiment
	for _, e := range r.exps {
		if tag == "" || e.HasTag(tag) {
			out = append(out, e)
		}
	}
	return out, nil
}

// maxInFlight is how many experiments Run keeps running at once. One
// experiment alone leaves CPUs idle in its serial stretches (a trial-0
// probe, a shard's uneven tail, a single-threaded experiment), which a
// second one fills; two also keep live machines within twice the trial
// workers.
const maxInFlight = 2

// Run executes the selected experiments (nil ids means all) and assembles
// the suite report. Experiments start in registration order, with up to
// maxInFlight running at once, but one at a time at Parallelism 1; each
// experiment's trial loop runs on up to ctx.Config.Parallelism workers.
// Reports keep registration order whatever order experiments finish in.
func (r *Registry) Run(ctx Ctx, ids []string) (SuiteReport, error) {
	exps, err := r.Select(ids, "")
	if err != nil {
		return SuiteReport{}, err
	}
	if ctx.Arenas == nil {
		ctx.Arenas = NewArenaPool()
	}
	// The hooks run here, never on an experiment's goroutine: runOne gets a
	// ctx without Completed, and its result is delivered from this loop.
	completed := ctx.Completed
	ctx.Completed = nil
	inFlight := min(maxInFlight, Workers(ctx.Config.Parallelism))
	type finished struct {
		id  string
		rep Report
	}
	// Buffered to the in-flight count, so a finished experiment never waits
	// for a hook.
	results := make(chan finished, inFlight)
	reports := make(map[string]Report, len(exps))
	collect := func() {
		f := <-results
		reports[f.id] = f.rep
		if completed != nil {
			completed(f.rep)
		}
	}
	for i, e := range exps {
		for i-len(reports) >= inFlight {
			collect()
		}
		if ctx.Progress != nil {
			ctx.Progress(len(reports), len(exps), e.ID)
		}
		go func() { results <- finished{e.ID, r.runOne(ctx, e)} }()
	}
	for len(reports) < len(exps) {
		collect()
	}
	if ctx.Progress != nil {
		ctx.Progress(len(exps), len(exps), "")
	}
	return r.Assemble(ctx, ids, reports)
}

// runOne executes a single experiment exactly as one Run iteration would:
// all its trials as one range, merged. Both the suite runner and RunShard
// funnel through it, and the service's shards run and merge the same way,
// which is what makes a shard-merged suite byte-identical to an
// uninterrupted run.
func (r *Registry) runOne(ctx Ctx, e Experiment) Report {
	p, err := r.RunTrialRange(ctx, e.ID, 0, 0)
	var rep Report
	if err == nil {
		rep, err = r.MergeTrialRanges(ctx, e.ID, []PartialReport{p})
	}
	if err != nil {
		rep = Report{ID: e.ID, Title: e.Title, Paper: e.Paper, Status: StatusFailed, Error: err.Error()}
	}
	if ctx.Completed != nil {
		ctx.Completed(rep)
	}
	return rep
}

// attachObservers gives one experiment (or one trial range of it) the fresh
// metrics registry and profile ctx asks for, shared by all its trials, and
// returns ctx with them composed into Config.Observer; the experiment's
// machines subscribe the composition at boot. A registry not asked for is
// nil. The caller's observer keeps its ObserverClasses through obs.Filter and
// the composition subscribes to every class, so each member sees exactly its
// own classes: a caller tracing squashes alone does not starve the registries.
func attachObservers(ctx Ctx) (Ctx, *obs.Metrics, *prof.Profile) {
	if !ctx.Metrics && !ctx.Profile {
		return ctx, nil, nil
	}
	members := []obs.Observer{obs.Filter(ctx.Config.Observer, ctx.Config.ObserverClasses)}
	var mc *obs.Metrics
	if ctx.Metrics {
		mc = obs.NewMetrics()
		members = append(members, mc)
	}
	var pp *prof.Profile
	if ctx.Profile {
		pp = prof.New()
		// Filtered to its classes, so the cache and predictor events it
		// ignores do not cut its instruction batches.
		members = append(members, obs.Filter(pp, prof.Classes()))
	}
	ctx.Config.Observer = obs.Multi(members...)
	ctx.Config.ObserverClasses = nil
	return ctx, mc, pp
}

// RunShard executes exactly one experiment, all its trials, and returns its
// finished report. The report depends only on (ctx, id), never on which other
// experiments ran before or alongside it, so independently produced reports
// assemble into the same suite an uninterrupted Run would have written. An
// unknown id returns ErrUnknownExperiment (wrapped).
func (r *Registry) RunShard(ctx Ctx, id string) (Report, error) {
	e, ok := r.Get(id)
	if !ok {
		return Report{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	return r.runOne(ctx, e), nil
}

// Assemble builds the SuiteReport an uninterrupted Run over the same
// selection would have produced, from independently produced per-experiment
// reports (keyed by experiment ID, supplied in any order — the merge is
// commutative because the selection fixes report order). Experiments of the
// selection missing from reports are emitted as skipped stubs, which is what
// an interrupted run's checkpoint contains; when every report is present the
// result is byte-identical to Run's. Unknown IDs in the selection are
// errors, exactly as in Run.
func (r *Registry) Assemble(ctx Ctx, ids []string, reports map[string]Report) (SuiteReport, error) {
	exps, err := r.Select(ids, "")
	if err != nil {
		return SuiteReport{}, err
	}
	suite := SuiteReport{
		Seed:        ctx.Config.Seed,
		Quick:       ctx.Quick,
		Parallelism: Workers(ctx.Config.Parallelism),
	}
	if ctx.Config.Faults.Active() {
		plan := ctx.Config.Faults
		suite.Faults = &plan
	}
	for _, e := range exps {
		rep, ok := reports[e.ID]
		if !ok {
			rep = Report{ID: e.ID, Title: e.Title, Paper: e.Paper, Status: StatusSkipped}
		}
		suite.Experiments = append(suite.Experiments, rep)
	}
	return suite, nil
}
