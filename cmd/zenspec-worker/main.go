// Command zenspec-worker is a remote pull worker for zenspecd: point it at a
// daemon URL and it leases shards — trial ranges of an experiment, all its
// trials unless the job is split — over the /v1 job API, runs them against
// the full experiment registry, heartbeats while running, and pushes the
// partial reports back.
// Any number of workers can drain the same daemon; determinism guarantees
// the merged report is byte-identical however the shards land.
//
// The worker is built to be left running: daemon outages and restarts are
// ridden out with a backoff that grows from 100 ms to 5 s, and a worker
// killed mid-shard simply stops heartbeating, so the daemon re-leases its
// shard elsewhere after the lease TTL with no effect on the job's final
// bytes.
//
// Lease events are logged to stderr with structured job/shard/lease/
// attempt/trace fields; -log-format=json makes every line machine-parseable
// and -log-level tunes verbosity.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zenspec"
	"zenspec/internal/svcobs"
)

func main() { os.Exit(run()) }

func run() int {
	url := flag.String("url", "http://127.0.0.1:8787", "base URL of the zenspecd daemon to pull leases from")
	name := flag.String("name", "", "worker name reported to the daemon (defaults to the hostname)")
	parallel := flag.Int("parallel", 1, "per-shard trial-loop parallelism (reports are identical at any value)")
	poll := flag.Duration("poll", 2*time.Second, "how long each lease request waits server-side for work")
	logFormat := flag.String("log-format", svcobs.FormatText, "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	flag.Parse()

	lg, err := svcobs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zenspec-worker:", err)
		return 2
	}

	n := *name
	if n == "" {
		if host, err := os.Hostname(); err == nil {
			n = host
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lg.Info("pulling leases", "url", *url, "worker", n)
	if err := zenspec.ServeWorker(ctx, *url, zenspec.WorkerOptions{
		Name:        n,
		Parallelism: *parallel,
		Poll:        *poll,
		Logger:      lg,
	}); err != nil && ctx.Err() == nil {
		lg.Error("worker failed", "err", err)
		return 1
	}
	lg.Info("exiting", "worker", n)
	return 0
}
