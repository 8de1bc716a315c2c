// Command perfbench is zenspec's benchmark. It runs one workload per
// invocation and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics; traced runs (--trace 1) record
// a span around every call into a layer's public entry points, report the
// per-layer metrics and write the spans as a Chrome trace-event file that
// opens in Perfetto. See README.md in this directory.
//
//	perfbench --workload suite|observed|service --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"zenspec/internal/harness/suite"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// add folds an operation count into the result.
func (r *result) add(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// run carries the parsed command line and the process-wide facts every
// workload needs.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	nproc    int
	// dir is the checkout-local scratch directory (state dirs, trace file).
	dir string
	// info prints a human-readable line before the result.
	info func(format string, args ...any)
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workload := flag.String("workload", "", "suite, observed or service")
	seed := flag.Int64("seed", 42, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 20, "how long a run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	setupOnly := flag.Bool("setup-only", false, "do the workload's set-up, print \""+readyLine+"\", tear it down and exit")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for daemon state and the trace file")
	flag.Parse()

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		dir:      *dir,
		info:     func(f string, a ...any) { fmt.Printf("# "+f+"\n", a...) },
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res *result
	var err error
	switch {
	case r.workload != "suite" && r.workload != "observed" && r.workload != "service":
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want suite, observed or service)\n", r.workload)
		return 2
	case *setupOnly:
		return setUpOnly(r)
	case r.traced:
		res, err = runTraced(r)
	case r.workload == "suite":
		res, err = runExperimentsWorkload(r, suiteSet())
	case r.workload == "observed":
		res, err = runExperimentsWorkload(r, observedSet())
	default:
		res, err = runServiceWorkload(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	r.info("fail_frac %.6f (%d failed of %d attempted)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a finite number\n", name)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// provenance prints where a result came from: revision and dirty bit of the
// build, Go version, CPU counts, seed and the workload's parameters.
func (r *run) provenance(params map[string]any) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	p := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(), "trace": r.traced,
		"revision": rev, "dirty": dirty, "go": runtime.Version(),
		"nproc": r.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "params": params,
	}
	b, _ := json.Marshal(p) // a map of plain values always encodes
	r.info("provenance %s", b)
}

// setupReps is how many fresh processes set-up is timed in.
const setupReps = 15

// readyLine is what a --setup-only process prints once it is ready for the
// first timed operation.
const readyLine = "ready"

// coldSetup times the workload's set-up cold: in setupReps fresh processes of
// this binary run with --setup-only, each from its start to the line saying
// it is ready for the first timed operation. It returns the median in
// seconds, net of the host steal over the whole phase.
func coldSetup(r *run) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	phase := startWatch()
	var secs []float64
	for i := 0; i < setupReps; i++ {
		s, err := setupProcess(exe, r)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, s)
	}
	iv := phase.stop()
	r.info("set-up: median %.4fs wall over %d fresh processes, host steal %.1f%%", median(secs), setupReps, 100*iv.share())
	return median(secs) * iv.scale(), nil
}

// setupProcess runs one --setup-only process and returns the seconds from
// its start to its ready line. It waits for the process to exit.
func setupProcess(exe string, r *run) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", r.workload, "--dir", r.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != readyLine+"\n" {
		return 0, fmt.Errorf("set-up process printed %q, not %q", line, readyLine)
	}
	return took.Seconds(), nil
}

// setUpOnly is a --setup-only process: the workload's set-up, the ready line,
// and the teardown.
func setUpOnly(r *run) int {
	teardown := func() error { return nil }
	if r.workload == "service" {
		e, err := openService(r.dir, r.nproc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		teardown = e.close
	} else if _, err := suite.Registry().Select(expSetFor(r.workload).ids, ""); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Println(readyLine)
	if err := teardown(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used so far, on every thread. It
// excludes time the host's hypervisor stole from the process, which wall
// clock includes; on a shared host that is the difference between a steady
// measurement and one that follows the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeTrace writes the spans under the scratch directory and prints where.
func (r *run) writeTrace(t *Tracer) error {
	path := filepath.Join(r.dir, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.info("trace %s (%d spans; open at ui.perfetto.dev)", path, len(t.Spans()))
	return nil
}

// setJobMetrics sets the end-to-end metrics a user waits on from the jobs of
// a window: lat holds each job's latency in ms, net of steal, with +Inf for a
// failed job; wallS is the workload's wall_s.
func setJobMetrics(r *run, res *result, wallS float64, lat []float64, good int, window interval) {
	t := tailOf(lat)
	limit := ms(window.net())
	res.set("wall_s", wallS, "s")
	res.set("job_p50_ms", capInf(median(lat), limit), "ms")
	res.set("job_tail_ms", capInf(t.Value, limit), "ms")
	res.set("jobs_per_s", float64(good)/window.net().Seconds(), "jobs/s")
	r.info("job_tail_ms at p%.2f of %d jobs (exact %v); window %.3fs wall, %.3fs net of %.1f%% host steal",
		t.Percentile, t.N, t.Exact, window.wall.Seconds(), window.net().Seconds(), 100*window.share())
}
