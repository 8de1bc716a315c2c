#!/bin/sh
# verify.sh — the repository's full local gate: formatting, vet, build, and
# the test suite under the race detector. CI and pre-commit both run this.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Static-analysis gate: staticcheck when available (CI installs it), with a
# visible skip locally so the gate never silently weakens.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (go vet already ran)" >&2
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# Among the tests, TestEveryFunctionRuns (reach_test.go) fails on any
# function, method or internal package that no command, example or
# perfbench reaches outside tests: it runs in an experiment or it goes.
go test -race ./...

echo "== perfbench module (vet + tests) =="
# perfbench is its own module, so the root ./... above skips it; its unit
# tests pin the benchmark's own arithmetic.
(cd perfbench && go vet ./... && go test ./...)

echo "== speccheck summary-equivalence fuzz smoke =="
# Ten seconds of coverage-guided search for any divergence between the
# incremental summary engine and the whole-program analyzer.
go test -run=FuzzSummaryEquivalence -fuzz=FuzzSummaryEquivalence \
    -fuzztime 10s ./internal/speccheck

echo "== pipeline NOP-run fuzz smoke =="
# Ten seconds of search for a program, placement or core shape on which
# retiring a run of NOPs in one step leaves any state different from
# stepping the NOPs one at a time.
go test -run=FuzzNOPRuns -fuzz=FuzzNOPRuns -fuzztime 10s ./internal/pipeline

echo "== service journal replay fuzz smoke =="
# Ten seconds of search for segment bytes on which opening the journal
# panics, fails other than by refusing an older format, or replays records
# that do not fold into the job table or do not reopen unchanged.
go test -run=FuzzJournalOpen -fuzz=FuzzJournalOpen -fuzztime 10s ./internal/service

echo "== report writer differential fuzz smoke =="
# Ten seconds of search for a report on which the streaming JSON writer's
# bytes, plain or stable, differ from json.MarshalIndent's, or on which it
# refuses differently or only after writing.
go test -run=FuzzReportJSON -fuzz=FuzzReportJSON -fuzztime 10s ./internal/harness

echo "== core microbenchmark smoke (allocation invariants) =="
# One short pass over the per-cycle hot-path benchmarks. The grep gates the
# zero-allocation invariants at the benchmark level too (the dedicated
# AllocsPerRun tests already ran under -race above): the steady-state
# pipeline step, the NOP-sled run, the timed stld run, the emit path bare,
# disabled and into the metrics registry plus profile, the profile's fold
# and the Flush+Reload sweep must all report 0 allocs/op. benchstat renders
# the table when installed (CI installs it), with a visible skip locally.
bench_out=$(mktemp)
go test -run '^$' \
    -bench 'BenchmarkCoreStep|BenchmarkCoreNOPSled|BenchmarkStldRun|BenchmarkObsEmitFast|BenchmarkObsEmitObserved|BenchmarkObsEmitDisabled|BenchmarkProfileFold|BenchmarkFlushReloadSweep' \
    -benchtime 100x -count 1 . | tee "$bench_out"
benches=$(grep -c '^Benchmark' "$bench_out")
zeroalloc=$(grep -c '	 *0 allocs/op' "$bench_out") || true
if [ "$benches" -ne 8 ] || [ "$zeroalloc" -ne 8 ]; then
    echo "core benchmarks must all report 0 allocs/op ($zeroalloc of $benches did)" >&2
    exit 1
fi
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$bench_out"
else
    echo "benchstat not installed; raw go test -bench output above" >&2
fi
rm -f "$bench_out"

echo "== experiment suite smoke (quick, JSON) =="
suite_json=$(mktemp)
fault_json=$(mktemp)
trace_json=$(mktemp)
trap 'rm -f "$suite_json" "$fault_json" "$trace_json"' EXIT
go run ./cmd/experiments -quick -json > "$suite_json"
go run ./cmd/experiments -validate "$suite_json"

echo "== quick stable report digest (seed 42) =="
# The quick suite's StableJSON at seed 42 is pinned by its sha256. A change
# that moves any quick report fails here until
# testdata/quick_stable_seed42.sha256 is updated, and CHANGES.md says why.
quick_sum=$(go run ./cmd/experiments -seed 42 -quick -stable | sha256sum | cut -d' ' -f1)
want_sum=$(cat testdata/quick_stable_seed42.sha256)
if [ "$quick_sum" != "$want_sum" ]; then
    echo "experiments -seed 42 -quick -stable hashes to $quick_sum;" >&2
    echo "testdata/quick_stable_seed42.sha256 pins $want_sum" >&2
    exit 1
fi

echo "== quick observed report digest (seed 42, metrics + profile) =="
# The same pin for the observed experiments with both observers on, so the
# micro (metrics registry) and profile sections of the report are held byte
# for byte too. A change that moves them fails here until
# testdata/quick_observed_seed42.sha256 is updated, and CHANGES.md says why.
obs_sum=$(go run ./cmd/experiments -seed 42 -quick -only spectre-stl,defenses,sandbox-escape \
    -metrics -profile -stable | sha256sum | cut -d' ' -f1)
want_obs_sum=$(cat testdata/quick_observed_seed42.sha256)
if [ "$obs_sum" != "$want_obs_sum" ]; then
    echo "experiments -seed 42 -quick -only spectre-stl,defenses,sandbox-escape -metrics -profile -stable" >&2
    echo "hashes to $obs_sum; testdata/quick_observed_seed42.sha256 pins $want_obs_sum" >&2
    exit 1
fi

echo "== faulted suite smoke (quick, default plan, JSON) =="
# The degraded report (injected trial faults) must still validate: every
# experiment in band, failures accounted for as retries/recoveries.
go run ./cmd/experiments -quick -faults default \
    -only fault-stl,fault-ctl,fault-harness -json > "$fault_json"
go run ./cmd/experiments -validate "$fault_json"

echo "== observability smoke (trace + metrics on the STL attack) =="
# The trace must come back as a Chrome trace-event JSON document with at
# least one complete event; -validate-trace enforces both.
go run ./cmd/experiments -quick -only spectre-stl -metrics \
    -trace "$trace_json" -trace-classes squash,predict,fault,kernel > /dev/null
go run ./cmd/experiments -validate-trace "$trace_json"

echo "== profiler smoke (pprof export readable by go tool pprof) =="
# The cycle-attribution profile must export as pprof protobuf that the stock
# toolchain can open, plus non-empty folded flamegraph text. Metrics ride
# along, so the registry and the profile run composed through obs.Multi.
prof_pb=$(mktemp)
prof_flame=$(mktemp)
trap 'rm -f "$suite_json" "$fault_json" "$trace_json" "$prof_pb" "$prof_flame"' EXIT
go run ./cmd/experiments -quick -only spectre-stl -metrics -profile \
    -profile-out "$prof_pb" -flame "$prof_flame" > /dev/null
go tool pprof -top -nodecount=5 "$prof_pb" > /dev/null
test -s "$prof_flame"

echo "== single-program CLI smoke (zrun -profile, speccheck, -transition-table, a failed report write) =="
# The Listing 2 chain with its addresses mapped: over three runs it halts
# cleanly and squashes once, on the first run's store bypass; its profile
# exports open in go tool pprof. speccheck finds the same chain statically
# and gates with exit 1. experiments exits non-zero when stdout is full.
cli_tmp=$(mktemp -d)
trap 'rm -f "$suite_json" "$fault_json" "$trace_json" "$prof_pb" "$prof_flame"; rm -rf "$cli_tmp"' EXIT
go build -o "$cli_tmp/" ./cmd/zrun ./cmd/speccheck ./cmd/experiments
printf 'store [rcx], rax\nload rdx, [r14]\nadd rbx, rdx, r11\nload r8, [rbx]\nadd r9, r8, r11\nload r10, [r9]\nhalt\n' \
    > "$cli_tmp/prog.s"
"$cli_tmp/zrun" -file "$cli_tmp/prog.s" -regs "rcx=0x10000,r14=0x10008,r11=0x10000" \
    -profile -runs 3 -pprof "$cli_tmp/prog.pb.gz" -flame "$cli_tmp/prog.folded" \
    > "$cli_tmp/zrun.out"
squashes=$(grep -c '×' "$cli_tmp/zrun.out") || true
if ! grep -q '^run 3 of 3: stop: halt ' "$cli_tmp/zrun.out" || [ "$squashes" -ne 1 ] ||
    ! grep -q '^ *1× stl-bypass ' "$cli_tmp/zrun.out"; then
    echo "zrun -profile: want three clean runs and one stl-bypass squash:" >&2
    cat "$cli_tmp/zrun.out" >&2
    exit 1
fi
go tool pprof -top "$cli_tmp/prog.pb.gz" > /dev/null
test -s "$cli_tmp/prog.folded"
code=0
"$cli_tmp/speccheck" -asm "$cli_tmp/prog.s" > "$cli_tmp/speccheck.out" || code=$?
if [ "$code" -ne 1 ] || ! grep -q 'stl: store@+0x0' "$cli_tmp/speccheck.out"; then
    echo "speccheck: want exit 1 and the stl chain from +0x0, got exit $code:" >&2
    cat "$cli_tmp/speccheck.out" >&2
    exit 1
fi
"$cli_tmp/experiments" -transition-table > "$cli_tmp/table1.txt"
test -s "$cli_tmp/table1.txt"
# A report that cannot be written is an error, not a silent exit 0.
code=0
"$cli_tmp/experiments" -seed 42 -quick -only table1 -stable > /dev/full 2> "$cli_tmp/full.err" || code=$?
if [ "$code" -ne 2 ] || ! grep -q '^experiments: ' "$cli_tmp/full.err"; then
    echo "experiments -stable > /dev/full: want exit 2 and the write error, got exit $code:" >&2
    cat "$cli_tmp/full.err" >&2
    exit 1
fi

echo "== zenspecd service smoke (submit, byte-identical report, drain) =="
# Start the daemon (race-instrumented) on a random port, submit a quick
# subset through the cmd/experiments client, and require the fetched
# StableJSON report to be byte-identical to a direct local run of the same
# spec. Then SIGTERM the daemon and require a clean drain + checkpoint.
svc_tmp=$(mktemp -d)
svc_pid=
wrk_a_pid=
wrk_b_pid=
cleanup_svc() {
    [ -n "$svc_pid" ] && kill "$svc_pid" 2>/dev/null || true
    [ -n "$wrk_a_pid" ] && kill -9 "$wrk_a_pid" 2>/dev/null || true
    [ -n "$wrk_b_pid" ] && kill "$wrk_b_pid" 2>/dev/null || true
    rm -rf "$svc_tmp" "$cli_tmp"
    rm -f "$suite_json" "$fault_json" "$trace_json" "$prof_pb" "$prof_flame"
}
trap cleanup_svc EXIT
go build -race -o "$svc_tmp/zenspecd" ./cmd/zenspecd
go build -o "$svc_tmp/experiments" ./cmd/experiments
go build -o "$svc_tmp/zenspec-worker" ./cmd/zenspec-worker

echo "== zenspecd refuses an old state directory =="
# A directory holding only the pre-segmentation journal.wal must be refused
# loudly, never adopted or misread: zenspecd exits non-zero naming the
# unsupported journal version, and the file is left as it was.
mkdir "$svc_tmp/old-state"
printf 'ZSJ1' > "$svc_tmp/old-state/journal.wal"
cp "$svc_tmp/old-state/journal.wal" "$svc_tmp/old-journal"
if timeout 60 "$svc_tmp/zenspecd" -dir "$svc_tmp/old-state" -addr 127.0.0.1:0 \
    -workers 0 > "$svc_tmp/old-out" 2> "$svc_tmp/old-err"; then
    echo "zenspecd started on a pre-segmentation state directory" >&2
    exit 1
fi
grep -q "unsupported journal version" "$svc_tmp/old-err" || {
    echo "zenspecd did not refuse the old journal by version:" >&2
    cat "$svc_tmp/old-out" "$svc_tmp/old-err" >&2
    exit 1
}
cmp "$svc_tmp/old-state/journal.wal" "$svc_tmp/old-journal"
"$svc_tmp/zenspecd" -dir "$svc_tmp/state" -addr 127.0.0.1:0 -workers 2 \
    > "$svc_tmp/out" 2> "$svc_tmp/err" &
svc_pid=$!
svc_url=
i=0
while [ $i -lt 100 ]; do
    svc_url=$(sed -n 's/^zenspecd: listening on //p' "$svc_tmp/out")
    [ -n "$svc_url" ] && break
    kill -0 "$svc_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$svc_url" ]; then
    echo "zenspecd did not start:" >&2
    cat "$svc_tmp/out" "$svc_tmp/err" >&2
    exit 1
fi
"$svc_tmp/experiments" -submit "$svc_url" -quick -only fig2,table1 -stable \
    > "$svc_tmp/service.json"
"$svc_tmp/experiments" -quick -only fig2,table1 -stable > "$svc_tmp/direct.json"
cmp "$svc_tmp/service.json" "$svc_tmp/direct.json"
kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=
grep -q "journal checkpointed" "$svc_tmp/err" || {
    echo "zenspecd did not checkpoint on SIGTERM:" >&2
    cat "$svc_tmp/err" >&2
    exit 1
}

echo "== distributed smoke (queue-only daemon, 2 pull workers, one SIGKILLed) =="
# The scale-out path: a queue-only daemon (-workers 0) cuts a quick fig11 job
# into four trial-range shards (-split 4) of about half a second each, two
# external zenspec-worker processes drain it over /v1 leases, and one worker
# is SIGKILLed as soon as it logs a lease, while its shard runs — its
# abandoned lease expires and the survivor reruns the shard. The merged
# StableJSON must still be byte-identical to a direct local run of the same
# spec.
"$svc_tmp/experiments" -quick -only fig11 -stable > "$svc_tmp/dist-direct.json"
"$svc_tmp/zenspecd" -dir "$svc_tmp/dist-state" -addr 127.0.0.1:0 -workers 0 \
    -lease 2s > "$svc_tmp/dist-out" 2> "$svc_tmp/dist-err" &
svc_pid=$!
svc_url=
i=0
while [ $i -lt 100 ]; do
    svc_url=$(sed -n 's/^zenspecd: listening on //p' "$svc_tmp/dist-out")
    [ -n "$svc_url" ] && break
    kill -0 "$svc_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$svc_url" ]; then
    echo "queue-only zenspecd did not start:" >&2
    cat "$svc_tmp/dist-out" "$svc_tmp/dist-err" >&2
    exit 1
fi
"$svc_tmp/zenspec-worker" -url "$svc_url" -name doomed -poll 200ms \
    -log-format json > "$svc_tmp/wrk-a.log" 2>&1 &
wrk_a_pid=$!
"$svc_tmp/zenspec-worker" -url "$svc_url" -name survivor -poll 200ms \
    -log-format json > "$svc_tmp/wrk-b.log" 2>&1 &
wrk_b_pid=$!
"$svc_tmp/experiments" -submit "$svc_url" -quick -only fig11 -split 4 \
    -stable > "$svc_tmp/dist.json" &
submit_pid=$!
# SIGKILL the doomed worker the moment it claims a lease: no Complete, no
# heartbeat — the daemon only learns from the lease expiring.
i=0
while [ $i -lt 600 ] && ! grep -q "lease claimed" "$svc_tmp/wrk-a.log"; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$wrk_a_pid" 2>/dev/null || true
wait "$wrk_a_pid" 2>/dev/null || true
wrk_a_pid=
grep -q "lease claimed" "$svc_tmp/wrk-a.log" || {
    echo "SIGKILLed worker never claimed a lease; smoke did not exercise re-lease:" >&2
    cat "$svc_tmp/wrk-a.log" >&2
    exit 1
}
if ! wait "$submit_pid"; then
    echo "distributed submit failed:" >&2
    cat "$svc_tmp/dist-err" "$svc_tmp/wrk-b.log" >&2
    exit 1
fi
cmp "$svc_tmp/dist.json" "$svc_tmp/dist-direct.json"
# The killed worker's lease must have been revoked and its shard requeued
# by the drain itself, before the hand-claimed lease further down.
curl -fsS "$svc_url/metrics" > "$svc_tmp/drain-metrics"
grep -Eq '^zenspec_service_(shards_abandoned_total\{[^}]*\}|lease_revocations_total) [1-9]' \
    "$svc_tmp/drain-metrics" || {
    echo "drain revoked no lease: the SIGKILL missed every running shard:" >&2
    grep -E 'abandoned|revocations|leases_granted' "$svc_tmp/drain-metrics" >&2
    exit 1
}
drain_revoked=$(sed -n 's/^zenspec_service_lease_revocations_total //p' "$svc_tmp/drain-metrics")

echo "== distributed observability smoke (metrics, stitched trace, JSON logs) =="
# After the drain the daemon's /metrics scrape must carry the service plane:
# per-experiment shard wall-clock histograms, lease counters, the queue
# gauges, and — because the doomed worker was SIGKILLed after claiming a
# lease — at least one revocation.
curl -fsS "$svc_url/metrics" > "$svc_tmp/metrics"
grep -q '^zenspec_service_shard_wall_ms_bucket{exp=' "$svc_tmp/metrics" || {
    echo "metrics scrape missing per-experiment shard wall-clock histogram:" >&2
    cat "$svc_tmp/metrics" >&2
    exit 1
}
grep -q '^zenspec_service_leases_granted_total [1-9]' "$svc_tmp/metrics" || {
    echo "metrics scrape missing lease grant counter:" >&2
    cat "$svc_tmp/metrics" >&2
    exit 1
}
# The queue gauges are sampled into the same registry scrape, and the host
# profiler is mounted beside it.
for g in queue_depth leases_active jobs_active; do
    grep -q "^zenspec_service_$g " "$svc_tmp/metrics" || {
        echo "metrics scrape missing gauge zenspec_service_$g:" >&2
        cat "$svc_tmp/metrics" >&2
        exit 1
    }
done
curl -fsS "$svc_url/debug/pprof/cmdline" > /dev/null
# The job's stitched daemon+worker trace must be Perfetto-loadable JSON with
# events from the daemon and both worker actors, re-leased shard included.
python3 - "$svc_url" <<'PYEOF'
import json, sys, urllib.request
base = sys.argv[1]
jobs = json.load(urllib.request.urlopen(base + "/v1/jobs"))["jobs"]
assert jobs, "daemon lists no jobs"
trace = json.load(urllib.request.urlopen(base + "/v1/jobs/" + jobs[0]["id"] + "/trace"))
evs = trace["traceEvents"]
assert evs, "trace has no events"
actors = {e["args"]["name"] for e in evs if e["ph"] == "M" and e["name"] == "process_name"}
assert "zenspecd" in actors, f"daemon actor missing from trace: {actors}"
assert any(a.startswith("worker:") for a in actors), f"no worker spans stitched in: {actors}"
shards = {s["id"] for s in jobs[0]["shards"]}
runs = {e["name"][4:] for e in evs if e["name"].startswith("run ")}
missing = shards - runs
assert not missing, f"trace missing run spans for shards: {missing}"
print(f"trace OK: {len(evs)} events, actors {sorted(actors)}")
PYEOF
# -log-format=json means every worker log line is an independently
# parseable JSON object.
python3 - "$svc_tmp/wrk-b.log" <<'PYEOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "survivor worker logged nothing"
for l in lines:
    json.loads(l)
print(f"worker JSON logs OK: {len(lines)} lines")
PYEOF
kill "$wrk_b_pid" 2>/dev/null || true
wait "$wrk_b_pid" 2>/dev/null || true
wrk_b_pid=
# Revocation path: with no workers left, claim a lease by hand over /v1 and
# never heartbeat. The monitor must revoke it within the 2s TTL and the
# revocation must land on the scrape, one past the drain's count.
python3 - "$svc_url" "${drain_revoked:-0}" <<'PYEOF'
import json, sys, time, urllib.request
base = sys.argv[1]
before = int(sys.argv[2])
def post(path, body):
    req = urllib.request.Request(base + path, json.dumps(body).encode(),
                                 {"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as r:
        return json.loads(r.read()) if r.status != 204 else None
post("/v1/jobs", {"seed": 1, "quick": True, "only": ["fig2"]})
lease = post("/v1/leases", {"worker": "verify-zombie", "wait_ms": 2000})
assert lease and lease.get("token"), f"no lease granted: {lease}"
deadline = time.time() + 30
while time.time() < deadline:
    scrape = urllib.request.urlopen(base + "/metrics").read().decode()
    n = [l for l in scrape.splitlines()
         if l.startswith("zenspec_service_lease_revocations_total ")]
    if n and int(n[0].split()[1]) > before:
        print(f"revocation OK: {n[0]}")
        sys.exit(0)
    time.sleep(0.5)
sys.exit(f"abandoned lease was never revoked (revocation counter still {before})")
PYEOF
kill -TERM "$svc_pid"
wait "$svc_pid"
svc_pid=
grep -q "journal checkpointed" "$svc_tmp/dist-err" || {
    echo "queue-only zenspecd did not checkpoint on SIGTERM:" >&2
    cat "$svc_tmp/dist-err" >&2
    exit 1
}

echo "verify: OK"
