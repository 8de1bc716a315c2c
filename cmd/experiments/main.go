// Command experiments reproduces every table and figure of the paper through
// the harness registry: one descriptor per DESIGN.md index row, rendered as a
// consolidated text report or as JSON from the same metrics. The process exit
// code reports whether every experiment landed inside its paper band.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"zenspec"
	"zenspec/internal/obs"
	"zenspec/internal/service"
)

func main() { os.Exit(run()) }

// run is main's body returning the exit code instead of calling os.Exit, so
// the host-profiling defers (cpuprofile stop, heap snapshot) always fire.
func run() int {
	seed := flag.Int64("seed", 42, "simulation seed (results are deterministic per seed)")
	quick := flag.Bool("quick", false, "reduced trial counts and secret sizes")
	jsonOut := flag.Bool("json", false, "emit the suite report as JSON instead of text")
	stable := flag.Bool("stable", false, "emit the suite report as StableJSON (host-dependent fields zeroed; byte-comparable across runs and worker counts)")
	only := flag.String("only", "", "comma-separated experiment IDs or tags to run; a tag selects every experiment carrying it (default: all; see -list)")
	faults := flag.String("faults", "", "fault-injection plan: none|mild|default|harsh or an inline JSON plan object")
	parallel := flag.Int("parallel", 0, "trial-runner workers; 0 means GOMAXPROCS (results are identical at any value)")
	validate := flag.String("validate", "", "validate a suite JSON file written by -json: well-formed, bands consistent, all pass")
	metrics := flag.Bool("metrics", false, "collect per-experiment microarchitectural metrics into each report")
	profile := flag.Bool("profile", false, "collect per-experiment cycle-attribution profiles into each report")
	profileOut := flag.String("profile-out", "", "write the suite-aggregate profile as pprof protobuf to this path (implies -profile; read with `go tool pprof`)")
	flame := flag.String("flame", "", "write the suite-aggregate profile as folded flamegraph text to this path (implies -profile)")
	serve := flag.String("serve", "", "serve live telemetry on this address while the suite runs: /metrics (Prometheus), /progress, /profile (pprof), /debug/pprof (host)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of this process to the given path")
	memprofile := flag.String("memprofile", "", "write a host heap profile of this process to the given path")
	tracePath := flag.String("trace", "", "record a Perfetto/Chrome trace of the run to this path (forces -parallel 1; load at ui.perfetto.dev)")
	traceClasses := flag.String("trace-classes", "", "comma-separated event classes to trace: inst,squash,forward,predict,cache,probe,kernel,fault,pmc (default: all)")
	validateTrace := flag.String("validate-trace", "", "validate a trace file written by -trace: JSON with at least one complete event")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	transitionTable := flag.Bool("transition-table", false, "print TABLE I as implemented (generated from the state machine) and exit")
	submit := flag.String("submit", "", "submit the run as a job to a zenspecd service at this base URL (e.g. http://127.0.0.1:8787) instead of running locally")
	split := flag.Int("split", 0, "with -submit: cut each experiment's trial loop into this many range shards so multiple workers can drain one job (report bytes are identical at any split)")
	flag.Parse()

	if *list {
		for _, e := range zenspec.Experiments() {
			fmt.Printf("%-20s [%s] %s\n", e.ID, strings.Join(e.Tags, ","), e.Title)
		}
		return 0
	}
	if *transitionTable {
		fmt.Print(zenspec.TransitionTable())
		return 0
	}

	if *validate != "" {
		return validateFile(*validate)
	}
	if *validateTrace != "" {
		return validateTraceFile(*validateTrace)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	plan, err := zenspec.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if *profileOut != "" || *flame != "" {
		*profile = true
	}
	cfg := zenspec.Config{Seed: *seed, Parallelism: *parallel, Faults: plan, Metrics: *metrics, Profile: *profile}
	if *serve != "" {
		// Live telemetry: a session-wide metrics registry and profiler feed
		// the endpoint while the suite runs (both fold commutatively, so they
		// do not perturb determinism), and the harness progress callback
		// drives the gauges. The profiler takes only its own classes, so
		// the events it ignores do not cut its instruction batches.
		tel := zenspec.NewTelemetry()
		liveMetrics := zenspec.NewMetricsObserver()
		liveProfile := zenspec.NewProfiler()
		tel.SetMetrics(liveMetrics)
		tel.SetProfile(liveProfile)
		cfg.Observer = zenspec.Observers(cfg.Observer, liveMetrics, obs.Filter(liveProfile, zenspec.ProfilerClasses()))
		cfg.Progress = tel.Progress
		addr, err := tel.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s (/metrics /progress /profile /debug/pprof)\n", addr)
	}
	var rec *zenspec.TraceRecorder
	if *tracePath != "" {
		classes, err := parseClasses(*traceClasses)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		// One recorder across all trials: serialize them so the event stream
		// interleaves deterministically in trial order.
		rec = zenspec.NewTraceRecorder()
		if cfg.Observer == nil {
			cfg.Observer, cfg.ObserverClasses = rec, classes
		} else {
			// -serve's live observers keep every class; the recorder
			// alone is filtered to the traced ones.
			cfg.Observer = zenspec.Observers(cfg.Observer, obs.Filter(rec, classes))
		}
		cfg.Parallelism = 1
	}
	ids, err := resolveNames(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}

	if *submit != "" {
		return submitJob(*submit, service.JobSpec{
			Seed: *seed, Quick: *quick, Only: ids, Faults: *faults,
			Metrics: *metrics, Profile: *profile, Split: *split,
		}, *stable, *jsonOut)
	}

	// Trap SIGINT/SIGTERM: an interrupted suite still writes a partial report
	// assembled from whatever experiments completed (the rest are marked
	// skipped), so a long run cut short is never a total loss.
	var (
		mu        sync.Mutex
		collected = make(map[string]zenspec.ExperimentReport)
	)
	prevCompleted := cfg.Completed
	cfg.Completed = func(r zenspec.ExperimentReport) {
		mu.Lock()
		collected[r.ID] = r
		mu.Unlock()
		if prevCompleted != nil {
			prevCompleted(r)
		}
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	type result struct {
		suite zenspec.ExperimentSuite
		err   error
	}
	done := make(chan result, 1)
	go func() {
		s, err := zenspec.RunExperiments(cfg, *quick, ids)
		done <- result{s, err}
	}()
	var suite zenspec.ExperimentSuite
	select {
	case sig := <-sigs:
		mu.Lock()
		partial := make(map[string]zenspec.ExperimentReport, len(collected))
		for id, r := range collected {
			partial[id] = r
		}
		mu.Unlock()
		suite, err = zenspec.AssembleExperiments(cfg, *quick, ids, partial)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "experiments: interrupted by %v after %d/%d experiments; emitting partial report\n",
			sig, len(partial), len(suite.Experiments))
		if code := emit(os.Stdout, suite, *stable, *jsonOut); code != 0 {
			return code
		}
		return 1
	case r := <-done:
		suite, err = r.suite, r.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if rec != nil {
		b, err := rec.Perfetto()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		if err := os.WriteFile(*tracePath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace events to %s (load at https://ui.perfetto.dev)\n",
			rec.Len(), *tracePath)
	}
	if *profileOut != "" || *flame != "" {
		agg := suite.Profile()
		if agg == nil {
			fmt.Fprintln(os.Stderr, "experiments: no profile collected")
			return 2
		}
		if *profileOut != "" {
			f, err := os.Create(*profileOut)
			if err == nil {
				err = agg.WritePprof(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote profile of %d sites to %s (go tool pprof %s)\n",
				len(agg.Samples), *profileOut, *profileOut)
		}
		if *flame != "" {
			f, err := os.Create(*flame)
			if err == nil {
				err = agg.WriteFlame(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote folded flamegraph to %s\n", *flame)
		}
	}
	if code := emit(os.Stdout, suite, *stable, *jsonOut); code != 0 {
		return code
	}
	if !suite.AllPass() {
		fmt.Fprintf(os.Stderr, "experiments: outside paper band: %s\n", strings.Join(suite.Failed(), ", "))
		return 1
	}
	return 0
}

// resolveNames turns the -only list into experiment IDs. A name that is an
// ID stays as it is; any other name expands to every experiment carrying it
// as a tag, in registry order. A name that is neither is an error wrapping
// zenspec.ErrUnknownExperiment. An empty list selects everything (nil).
func resolveNames(only string) ([]string, error) {
	exps := zenspec.Experiments()
	isID := make(map[string]bool, len(exps))
	for _, e := range exps {
		isID[e.ID] = true
	}
	var ids []string
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "":
		case isID[name]:
			ids = append(ids, name)
		default:
			n := len(ids)
			for _, e := range exps {
				if e.HasTag(name) {
					ids = append(ids, e.ID)
				}
			}
			if len(ids) == n {
				return nil, fmt.Errorf("%w %q (see -list)", zenspec.ErrUnknownExperiment, name)
			}
		}
	}
	return ids, nil
}

// emit streams a suite report to out in the selected format, a JSON form
// ending in a newline, and returns a non-zero exit code only when the report
// cannot be rendered or written (band verdicts are the caller's).
func emit(out io.Writer, suite zenspec.ExperimentSuite, stable, jsonOut bool) int {
	w := bufio.NewWriter(out)
	var err error
	switch {
	case stable:
		err = suite.Stable().WriteJSON(w)
	case jsonOut:
		err = suite.WriteJSON(w)
	default:
		_, err = w.WriteString(suite.Text())
	}
	if err == nil && (stable || jsonOut) {
		err = w.WriteByte('\n')
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	return 0
}

// submitJob runs the suite remotely: it submits the spec to a zenspecd
// service, waits for the job (SIGINT/SIGTERM abandon the wait but leave the
// job running server-side — it is journaled and survives both of us), then
// fetches and renders the merged report with the same formatting and exit
// semantics as a local run.
func submitJob(base string, spec service.JobSpec, stable, jsonOut bool) int {
	c := &service.Client{Base: strings.TrimRight(base, "/")}
	id, err := c.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "experiments: submitted %s to %s\n", id, c.Base)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := c.Wait(ctx, id, 200*time.Millisecond); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted; job %s keeps running on the service (fetch later with GET %s/v1/jobs/%s/report)\n",
				id, c.Base, id)
			return 1
		}
		// A failed job is a job verdict, not a transport problem: exit 1 like a
		// local run that missed its band, not 2.
		if errors.Is(err, service.ErrJobFailed) {
			fmt.Fprintf(os.Stderr, "experiments: job %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	suite, err := c.Report(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if code := emit(os.Stdout, suite, stable, jsonOut); code != 0 {
		return code
	}
	if !suite.AllPass() {
		fmt.Fprintf(os.Stderr, "experiments: outside paper band: %s\n", strings.Join(suite.Failed(), ", "))
		return 1
	}
	return 0
}

// validateFile re-checks a suite report written by -json: the file must be
// valid JSON of the suite shape, every metric's stored pass flag must match
// its own band, every experiment's verdict must match its metrics, and the
// whole suite must pass. Returns the process exit code.
func validateFile(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		return 2
	}
	var suite zenspec.ExperimentSuite
	if err := json.Unmarshal(data, &suite); err != nil {
		fmt.Fprintln(os.Stderr, "validate: invalid JSON:", err)
		return 2
	}
	if len(suite.Experiments) == 0 {
		fmt.Fprintln(os.Stderr, "validate: no experiments in report")
		return 2
	}
	bad := 0
	for _, exp := range suite.Experiments {
		pass := true
		for _, m := range exp.Metrics {
			inBand := m.Value >= m.Min && m.Value <= m.Max
			if m.Pass != inBand {
				fmt.Fprintf(os.Stderr, "validate: %s/%s: stored pass=%v but value %g vs band [%g, %g]\n",
					exp.ID, m.Name, m.Pass, m.Value, m.Min, m.Max)
				bad++
			}
			pass = pass && inBand
		}
		if exp.Pass != pass {
			fmt.Fprintf(os.Stderr, "validate: %s: stored verdict %v inconsistent with metrics\n", exp.ID, exp.Pass)
			bad++
		}
		if !pass {
			fmt.Fprintf(os.Stderr, "validate: %s outside paper band\n", exp.ID)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Printf("validate: %d experiments, all in paper band (seed %d, quick %v)\n",
		len(suite.Experiments), suite.Seed, suite.Quick)
	return 0
}

// parseClasses resolves the -trace-classes spec; empty means all classes.
func parseClasses(spec string) ([]zenspec.EventClass, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	byName := map[string]zenspec.EventClass{
		"inst": zenspec.ClassInst, "squash": zenspec.ClassSquash,
		"forward": zenspec.ClassForward, "predict": zenspec.ClassPredict,
		"cache": zenspec.ClassCache, "probe": zenspec.ClassProbe,
		"kernel": zenspec.ClassKernel, "fault": zenspec.ClassFault,
		"pmc": zenspec.ClassPMC,
	}
	var out []zenspec.EventClass
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown event class %q", name)
		}
		out = append(out, c)
	}
	return out, nil
}

// validateTraceFile checks a Perfetto trace written by -trace: the file must
// parse as a Chrome trace-event JSON document and contain at least one
// complete ("X") event. Returns the process exit code.
func validateTraceFile(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate-trace:", err)
		return 2
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintln(os.Stderr, "validate-trace: invalid JSON:", err)
		return 2
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			complete++
		}
	}
	if complete == 0 {
		fmt.Fprintf(os.Stderr, "validate-trace: %d events but no complete (\"X\") events\n", len(doc.TraceEvents))
		return 1
	}
	fmt.Printf("validate-trace: %d events, %d complete\n", len(doc.TraceEvents), complete)
	return 0
}
