package main

import (
	"fmt"
	"math"
	"time"

	"zenspec/internal/harness/suite"
)

// tracedJobsPerClient is how many jobs each client runs in a traced service
// leg (and in the untraced leg it is compared with).
const tracedJobsPerClient = 20

// runTraced is a traced run. Whatever the workload, it runs every leg once
// with spans recorded — the suite with a PMC observer, the observed set
// (plus its unobserved twin), a service leg, the fig11 merge and the layer
// probes — so every per-layer metric is measured in every traced run. The
// workload picks the leg that is also run untraced first: the two give the
// tracing overhead, and their reports must be identical.
func runTraced(r *run) (*result, error) {
	seed := experimentSeed(r.seed)
	r.provenance(map[string]any{
		"suite": suiteSet().params(seed, r.nproc), "observed": observedSet().params(seed, r.nproc),
		"service": serviceParams(r.nproc), "service_jobs_per_client": tracedJobsPerClient,
	})
	t := NewTracer()
	res := &result{}
	countPass := func(p passResult) {
		res.add(p.ran, len(p.bad))
		if len(p.bad) > 0 {
			r.info("%v failed", p.bad)
		}
	}
	gate := func(leg, untraced, traced string) {
		res.add(1, 0)
		r.info("%s stablejson sha256 untraced %s traced %s", leg, untraced, traced)
		if untraced != traced {
			res.Failed++
			r.info("%s: the traced report differs from the untraced one", leg)
		}
	}
	var overhead float64

	// suite
	var suiteU passResult
	if r.workload == "suite" {
		var err error
		if suiteU, err = runPass(suiteSet(), seed, r.nproc); err != nil {
			return nil, err
		}
		countPass(suiteU)
	}
	pc := &pmcCounter{}
	suiteT, err := runTracedPass(t, suiteSet(), seed, r.nproc, pc)
	if err != nil {
		return nil, err
	}
	countPass(suiteT.passResult)
	if r.workload == "suite" {
		gate("suite", suiteU.digest, suiteT.digest)
		overhead = suiteT.wall.net().Seconds() / suiteU.wall.net().Seconds()
	}

	// observed, and the same experiments unobserved
	var obsU passResult
	if r.workload == "observed" {
		if obsU, err = runPass(observedSet(), seed, r.nproc); err != nil {
			return nil, err
		}
		countPass(obsU)
	}
	obsT, err := runTracedPass(t, observedSet(), seed, r.nproc, nil)
	if err != nil {
		return nil, err
	}
	countPass(obsT.passResult)
	if r.workload == "observed" {
		gate("observed", obsU.digest, obsT.digest)
		overhead = obsT.wall.net().Seconds() / obsU.wall.net().Seconds()
	}
	bare := expSet{name: "unobserved", ids: observedIDs}
	bareP, err := runPass(bare, seed, r.nproc)
	if err != nil {
		return nil, err
	}
	countPass(bareP)

	// service
	env, err := openService(r.dir, r.nproc)
	if err != nil {
		return nil, err
	}
	env.startWorkers()
	fixed := func(j int) bool { return j < tracedJobsPerClient }
	var outsU []jobOutcome
	var windowU time.Duration
	if r.workload == "service" {
		outsU, windowU = env.round(r.seed, 0, fixed)
	}
	env.tracer.Store(t)
	env.sources[0].beats.Store(heartbeatProbe)
	outsT, windowT := env.round(r.seed, tracedJobsPerClient*r.nproc, fixed)
	env.tracer.Store(nil)
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("service shutdown: %w", err)
	}
	svc := countServiceFaults(res, env.hub, r.info)
	res.add(heartbeatProbe, int(env.sources[0].beatErrs.Load()))
	if r.workload == "service" {
		overhead = windowT.Seconds() / windowU.Seconds()
	}
	outs := append(outsU, outsT...)
	if err := verify(outs, r.nproc); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	_, good := jobStats(res, outs, r.info)

	// fig11 trial-range merge and the layer probes
	mergeMS, mergeOK, err := mergeProbe(t, seed, r.nproc)
	if err != nil {
		return nil, err
	}
	res.add(1, 0)
	if !mergeOK {
		res.Failed++
		r.info("merged fig11 report failed its band")
	}
	probes, err := runProbes(t, r.seed, r.info)
	if err != nil {
		return nil, err
	}

	// harness
	for _, e := range suite.Registry().All() {
		res.set("harness.exp_wall_ms."+e.ID, suiteT.expMS[e.ID], "ms")
	}
	res.set("harness.stablejson_ms", median(suiteT.stableJSON), "ms")
	res.set("harness.merge_ms", median(mergeMS), "ms")

	// pipeline, from the PMC observer
	setSim := func(prefix string, c simCount) {
		res.set(prefix+"sim_insts", float64(c.insts), "count")
		res.set(prefix+"core_runs", float64(c.runs), "count")
		res.set(prefix+"insts_per_run", float64(c.insts)/float64(max(c.runs, 1)), "insts/run")
		res.set(prefix+"host_ns_per_sim_inst", float64(c.cpu.Nanoseconds())/float64(max(c.insts, 1)), "ns/inst")
	}
	setSim("pipeline.", suiteT.total)
	setSim("pipeline.fig11.", suiteT.sim["fig11"])

	// layer probes: time per call; heap allocations per call are printed, not
	// reported, because zero allocations is a common and good value
	for _, name := range []string{
		"pipeline.step_ns_per_inst", "pipeline.run_fixed_ns", "kernel.run_ns",
		"predict.predict_verify_ns", "cache.access_ns", "mem.translate_ns",
		"sidechannel.sweep_ns", "obs.emit_ns", "prof.handle_inst_ns",
	} {
		p := probes[name]
		res.set(name, p.ns, "ns")
		r.info("%s %.1f, allocs/op %.3f", name, p.ns, p.allocs)
	}
	for _, name := range []string{"speccheck.cold_ms", "speccheck.warm_ms", "obs.metrics_snapshot_ms", "prof.snapshot_ms"} {
		res.set(name, probes[name].ns, "ms")
	}
	res.set("obs.overhead_x", obsT.wall.net().Seconds()/bareP.wall.net().Seconds(), "x")

	// service, from the spans of the traced leg
	spans := t.Spans()
	res.set("service.submit_ms", median(durations(spans, "submit")), "ms")
	res.set("service.status_ms", median(durations(spans, "status")), "ms")
	res.set("service.report_ms", median(durations(spans, "report")), "ms")
	res.set("service.lease_ms", median(durations(spans, "lease")), "ms")
	res.set("service.heartbeat_ms", median(durations(spans, "heartbeat")), "ms")
	res.set("service.complete_ms", median(durations(spans, "complete")), "ms")
	res.set("service.shard_exec_ms", median(durations(spans, "shard")), "ms")
	leases, empty := len(durations(spans, "lease")), len(durations(spans, "lease-empty"))
	res.set("service.lease_calls_per_shard", float64(leases+empty)/float64(max(leases, 1)), "calls/shard")
	res.set("service.queue_wait_ms", median(queueWaits(spans)), "ms")
	res.set("service.job_self_ms", median(selfTimes(spans, "job", "shard")), "ms")
	res.set("service.polls_per_job", float64(len(durations(spans, "status")))/float64(max(len(outsT), 1)), "polls/job")
	res.set("svcobs.journal_fsync_ms", svc["fsync_ms_sum"]/math.Max(svc["fsync_ms_count"], 1), "ms")
	res.set("svcobs.checkpoint_ms", svc["checkpoint_ms_sum"]/math.Max(svc["checkpoint_ms_count"], 1), "ms")

	res.set("bench.trace_overhead_x", overhead, "x")
	r.info("traced legs: suite %.3fs, observed %.3fs (unobserved %.3fs), service %d jobs in %.3fs with %d heartbeats; %d of %d jobs good",
		suiteT.wall.net().Seconds(), obsT.wall.net().Seconds(), bareP.wall.net().Seconds(), len(outsT), windowT.Seconds(),
		len(durations(spans, "heartbeat")), good, len(outs))
	r.info("fig11: %.1f ms, %d simulated instructions in %d Core.Run calls",
		suiteT.expMS["fig11"], suiteT.sim["fig11"].insts, suiteT.sim["fig11"].runs)
	return res, r.writeTrace(t)
}

// queueWaits is, per job, the time from the start of its submit to the end
// of its first lease.
func queueWaits(spans []Span) []float64 {
	submit := map[string]time.Duration{}
	first := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "submit":
			submit[s.ID] = s.Start
		case "lease":
			if f, ok := first[s.ID]; !ok || s.End < f {
				first[s.ID] = s.End
			}
		}
	}
	var out []float64
	for id, st := range submit {
		if f, ok := first[id]; ok {
			out = append(out, ms(f-st))
		}
	}
	return out
}
