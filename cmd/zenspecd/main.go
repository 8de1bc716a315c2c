// Command zenspecd is the crash-safe simulation service: a long-lived daemon
// exposing the experiment registry over a versioned HTTP JSON API (/v1).
// Submitted jobs are journaled to a checksummed, segmented write-ahead log
// before they run, cut into shards — one per experiment, or finer trial
// ranges when the job asks for a split — and drained by lease-pull workers:
// the in-process pool, remote zenspec-worker processes, or any mix. Completed
// partial reports persist idempotently, so a daemon killed at any point
// resumes every unfinished job at shard granularity on restart, and the
// resumed (or arbitrarily sharded) job's merged StableJSON report is
// byte-identical to an uninterrupted single-machine run's. Leases go out in
// submission order, and a shard runs again only when its lease lapses: a
// worker silent for -lease is presumed dead and its shard handed to the next
// one. SIGINT/SIGTERM drain in-flight shards, checkpoint the journal, and
// exit; kill -9 loses at most the shards in flight.
//
// The daemon's whole lifecycle is observable: every job carries a trace ID
// from submit to archive, /v1/jobs/{id}/trace serves the stitched Perfetto
// trace of a run (remote worker spans included), /metrics exposes the
// zenspec_service_* gauges, counters and histograms, /debug/pprof/ profiles
// the daemon process itself, and structured logs go to stderr with
// job/shard/lease/worker/attempt fields (-log-format=json for
// machine-parseable lines).
//
// See the README's "Service" section and EXPERIMENTS.md for the API and a
// kill-and-resume walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"zenspec/internal/harness/suite"
	"zenspec/internal/service"
	"zenspec/internal/svcobs"
)

func main() { os.Exit(run()) }

func run() int {
	dir := flag.String("dir", "zenspecd.state", "durable state directory (the job journal lives here)")
	addr := flag.String("addr", "127.0.0.1:8787", "HTTP listen address (\":0\" picks a free port)")
	workers := flag.Int("workers", -1, "in-process worker pool size; -1 means GOMAXPROCS, 0 means none (queue-only daemon for remote zenspec-worker fleets)")
	parallel := flag.Int("parallel", 1, "per-shard trial-loop parallelism (reports are identical at any value)")
	lease := flag.Duration("lease", 5*time.Second, "shard lease TTL; a worker silent this long is presumed dead and its shard re-queued")
	segBytes := flag.Int64("segment-bytes", 4<<20, "journal segment size; full segments seal and compact away at the next checkpoint")
	keepJobs := flag.Int("keep-jobs", 256, "terminal jobs retained before the oldest are archived out of memory and journal; -1 keeps all")
	drain := flag.Duration("drain", 10*time.Minute, "graceful-shutdown budget for in-flight shards before they are cancelled")
	logFormat := flag.String("log-format", svcobs.FormatText, "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	flag.Parse()

	lg, err := svcobs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zenspecd:", err)
		return 2
	}

	w := *workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	d, err := service.Open(service.Config{
		Dir:          *dir,
		Registry:     suite.Registry(),
		Workers:      w,
		Parallelism:  *parallel,
		Lease:        *lease,
		SegmentBytes: *segBytes,
		KeepJobs:     *keepJobs,
		Obs:          svcobs.New(lg),
	})
	if err != nil {
		lg.Error("open failed", "dir", *dir, "err", err)
		return 2
	}
	resumed := 0
	for _, st := range d.Jobs() {
		if !st.Terminal() {
			resumed++
		}
	}
	if resumed > 0 {
		lg.Info("resuming unfinished jobs from the journal", "jobs", resumed)
	}

	srv := service.NewServer(d)
	bound, err := srv.Serve(*addr)
	if err != nil {
		lg.Error("listen failed", "addr", *addr, "err", err)
		return 2
	}
	// Parsed by tooling (verify.sh) — keep the format stable.
	fmt.Printf("zenspecd: listening on http://%s\n", bound)
	lg.Info("listening", "addr", bound, "workers", w)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	lg.Info("draining in-flight shards")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		lg.Error("shutdown failed", "err", err)
		return 1
	}
	lg.Info("journal checkpointed, exiting")
	return 0
}
