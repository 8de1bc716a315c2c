// Package svcobs is the service-plane observability layer: distributed
// tracing, wall-clock metrics and structured logging for the zenspecd job
// lifecycle. Where internal/obs watches the *simulated machine* (cycles,
// predictors, squashes) with deterministic, report-grade registries, svcobs
// watches the *service around it* — queue waits, lease round-trips, shard
// wall-clocks, journal fsyncs — in host time, strictly off the report path:
// nothing here ever feeds back into a Report, so a job's StableJSON is the
// bytes a direct run of its spec produces.
//
// The three planes share one correlation ID, minted per job at submission,
// journaled with the job, and propagated to remote workers in every lease:
//
//   - Traces: a TraceLog of wall-clock spans on per-actor tracks (the daemon
//     plus every worker that touched the job), exported as Chrome
//     trace-event JSON through internal/obs's encoder — the same Perfetto
//     format the simulator's Recorder writes for simulated cycles — so one
//     trace shows queue wait, lease latency, shard execution and journal
//     fsyncs side by side.
//   - Metrics: a Registry of counters, histograms and scrape-time gauges,
//     exposed in Prometheus text through internal/obs's writer under the
//     zenspec_service_* namespace on the daemon's /metrics.
//   - Logs: log/slog structured logging with consistent job/shard/lease/
//     worker/attempt/trace fields, selectable text or JSON handlers.
//
// A daemon always runs with a Hub; one built by New(nil) logs nowhere but
// still collects metrics and traces.
package svcobs

import (
	"io"
	"log/slog"
)

// Hub bundles the three service-observability planes.
type Hub struct {
	logger  *slog.Logger
	metrics *Registry
	traces  *TraceLog
}

// New returns a hub collecting metrics and traces and logging through logger
// (nil logger discards).
func New(logger *slog.Logger) *Hub {
	if logger == nil {
		logger = Discard()
	}
	return &Hub{logger: logger, metrics: NewRegistry(), traces: NewTraceLog()}
}

// Logger returns the hub's logger.
func (h *Hub) Logger() *slog.Logger { return h.logger }

// Metrics returns the hub's registry.
func (h *Hub) Metrics() *Registry { return h.metrics }

// Traces returns the hub's trace log.
func (h *Hub) Traces() *TraceLog { return h.traces }

// discard is the shared no-op logger behind Discard.
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// Discard returns a logger that drops everything, for code paths that want
// an always-valid *slog.Logger.
func Discard() *slog.Logger { return discard }
