#!/bin/sh
# check.sh mirrors the CI workflow (.github/workflows/ci.yml) locally:
# formatting, vet, the codvet analyzer suite, and the full test suite.
# Run it from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== codvet (project invariants: determinism, policydecl, layering, ctxwait, errwrap, nopool) =="
go run ./cmd/codvet ./...

# staticcheck and govulncheck are external tools; CI installs them pinned
# (see ci.yml). Locally they gate when present and are skipped offline.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (CI runs it pinned) =="
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck =="
    govulncheck ./...
else
    echo "== govulncheck: not installed, skipping (CI runs it pinned) =="
fi

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

# perfbench is its own module (replace codsim => ../), so the root
# ./... patterns never compile it; it calls trace.RunSkill,
# Cluster.WaitExamContext and Coordinator.RunStream directly.
echo "== perfbench module (vet + test) =="
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== bench smoke (1 iteration) =="
go test -bench . -benchtime 1x -run '^$' ./...

echo "== slow-subscriber smoke (MemLAN, 2 s stall: conflation + backpressure) =="
go test -run 'TestSlowSubscriberMemLANSmoke|TestReliableBackpressureStallsAndDrains|TestLatestValueStalledSubscriberConflates' -race -count=1 ./internal/cb

echo "== dist smoke (coordinator + workers, MemLAN) =="
go test -run 'TestCoordinatorWorkersMemLAN|TestRedispatchOnWorkerDeath|TestMemLANTandemSweep' -count=1 ./internal/dist

out=$(mktemp -d)
w1=; w2=
cleanup() {
    # || true throughout: under set -e a failed kill (process already
    # gone) must not abort the trap before the rest of the cleanup.
    [ -z "$w1" ] || kill "$w1" 2>/dev/null || true
    [ -z "$w2" ] || kill "$w2" 2>/dev/null || true
    rm -rf "$out" || true
}
trap cleanup EXIT

echo "== bench regression (allocs/op vs BENCH_baseline.json; CBRouting gates) =="
# 10x matches the baseline's recording conditions: at 1x the one-time
# channel-setup allocations drown the per-op signal.
go test -bench 'BenchmarkCB|BenchmarkChannelSetup' -benchtime 10x -run '^$' . >"$out/bench.txt"
go test -bench . -benchtime 10x -run '^$' ./internal/transport >>"$out/bench.txt"
# ObsCounter carries a 0-allocs/op ceiling: metric points must stay cheap
# enough to sit on delivery hot paths. 1000x for a steady-state reading.
go test -bench . -benchtime 1000x -run '^$' ./internal/obs >>"$out/bench.txt"
# The gated CBRouting ceilings need steady-state numbers: at 10x the
# channel-setup amortization still flickers allocs/op by ±3. benchdiff
# keeps the last line per benchmark, so this run overrides the 10x one.
go test -bench 'BenchmarkCBRouting' -benchtime 500x -run '^$' . >>"$out/bench.txt"
# Sustained throughput at 1000x: the frames/sec/core headline plus gated
# allocs/bytes ceilings on the pipelined publish→consume path.
go test -bench 'BenchmarkCBThroughput' -benchtime 1000x -run '^$' . >>"$out/bench.txt"
# The certification hot loop is gated at 0 allocs per 60 Hz step (20000x
# amortizes the per-run rig rebuilds); one full oracle dry-run stays
# under its setup ceiling at 20x.
go test -bench 'BenchmarkHeadlessRun' -benchtime 20000x -run '^$' . >>"$out/bench.txt"
go test -bench 'BenchmarkOracleCertify' -benchtime 20x -run '^$' . >>"$out/bench.txt"
go run ./cmd/benchdiff BENCH_baseline.json "$out/bench.txt"

echo "== batch smoke (headless sweep incl. multi-crane, JSONL report) =="
go build -o "$out/codbatch" ./cmd/codbatch
"$out/codbatch" -headless -strict -out "$out/results.jsonl" >"$out/report.txt"
tail -n 3 "$out/report.txt"

echo "== tandem-lift smoke (two cranes, headless + skill spread) =="
"$out/codbatch" -headless -strict -scenarios tandem-beam,twin-yard >"$out/tandem.txt"
"$out/codbatch" -headless -strict -skill novice -scenarios tandem-beam,twin-yard >>"$out/tandem.txt"
tail -n 2 "$out/tandem.txt"

echo "== campaign smoke (100 generated scenarios, oracle-certified, strict, verdict cache) =="
"$out/codbatch" -campaign 7:100 -headless -strict -campaign-cache "$out/verdicts.jsonl" >"$out/campaign.txt"
tail -n 3 "$out/campaign.txt"
"$out/codbatch" -campaign 7:100 -list >/dev/null
# Warm rerun: every verdict replays from the cache — zero live dry-runs.
"$out/codbatch" -campaign 7:100 -headless -strict -campaign-cache "$out/verdicts.jsonl" >"$out/campaign-warm.txt"
grep -q '0 live dry-runs' "$out/campaign-warm.txt" || {
    echo "campaign smoke: warm cache rerun still flew dry-runs" >&2
    grep 'verdict cache' "$out/campaign-warm.txt" >&2 || true
    exit 1
}

echo "== fuzz smoke (Spec JSON surface, 10 s per target) =="
go test -run '^$' -fuzz '^FuzzUnmarshalSpec$' -fuzztime 10s ./internal/scenario
go test -run '^$' -fuzz '^FuzzValidate$' -fuzztime 10s ./internal/scenario

echo "== dist CLI smoke (codbatch coordinator + 2 worker processes, UDPLAN loopback) =="
"$out/codbatch" -serve -lan 127.0.0.1:47901 -name smoke1 -headless -obs 127.0.0.1:47911 >"$out/w1.log" 2>&1 &
w1=$!
"$out/codbatch" -serve -lan 127.0.0.1:47901 -name smoke2 -headless >"$out/w2.log" 2>&1 &
w2=$!
# timeout: if a worker failed at startup (port clash with a stray run),
# the coordinator would otherwise wait for its heartbeat forever.
timeout 120 "$out/codbatch" -coordinator smoke1,smoke2 -lan 127.0.0.1:47901 \
    -scenarios classic-exam,blind-lift,tandem-beam,twin-yard -repeat 2 -headless -strict \
    -out "$out/dist-results.jsonl" >"$out/dist-report.txt"
tail -n 3 "$out/dist-report.txt"

echo "== obs smoke (telemetry plane on worker smoke1: /metrics + /healthz) =="
curl -fsS http://127.0.0.1:47911/healthz | grep -q '^ok'
# One post-sweep scrape suffices: collect-on-scrape refreshes the gauges,
# and the codsim_cb_sub_* lifetime totals survive the sweep's channel
# teardown (the per-channel codsim_cb_channel_* series die with their
# channels, so the smoke doesn't race the sweep to see them).
curl -fsS http://127.0.0.1:47911/metrics >"$out/metrics.txt"
for series in 'codsim_dist_jobs{role="worker"' codsim_job_phase_seconds_bucket \
    codsim_cb_stat codsim_cb_sub_frames_total codsim_obs_samples_total; do
    grep -qF "$series" "$out/metrics.txt" || {
        echo "obs smoke: series $series missing from /metrics" >&2
        exit 1
    }
done

echo "OK"
