#!/bin/sh
# ci.sh — the repository's check pipeline: formatting, vet, build, the
# traulint static-analysis suite, and the test suite under the race
# detector. Run from the module root; any failure aborts.
set -eu

cd "$(dirname "$0")"

# Scratch files live in one directory under $TMPDIR. Every background
# trauserve is recorded in $server_pids, so whatever check fails, the
# exit trap stops the servers still up and removes the directory.
work=$(mktemp -d)
server_pids=""
stop_servers() {
    for p in $server_pids; do
        kill -KILL "$p" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap stop_servers EXIT
trap 'exit 130' INT TERM

# start_server LOG ARGS... boots trauserve in the background with its
# output in LOG, records its pid (left in $pid) and waits up to 10 s for
# it to announce its address (left in $url).
start_server() {
    log=$1
    shift
    "$work/trauserve" "$@" >"$log" 2>&1 &
    pid=$!
    server_pids="$server_pids $pid"
    url=""
    for _ in $(seq 1 100); do
        url=$(sed -n 's/^trauserve: listening on //p' "$log")
        [ -n "$url" ] && return 0
        sleep 0.1
    done
    echo "trauserve $* did not announce its address" >&2
    cat "$log" >&2
    exit 1
}

# reap PID waits for a server that has been stopped, then drops it from
# $server_pids, so the exit trap never signals a reused pid. The pid
# stays recorded until wait returns: a signal that lands mid-drain still
# reaches it through the trap. The exit status is wait's.
reap() {
    st=0
    wait "$1" || st=$?
    rest=""
    for p in $server_pids; do
        [ "$p" = "$1" ] || rest="$rest $p"
    done
    server_pids=$rest
    return $st
}

# drain_server PID LOG requires a graceful SIGTERM drain: exit status 0
# and the drained line in LOG.
drain_server() {
    kill -TERM "$1"
    reap "$1"
    grep -q 'trauserve: drained' "$2"
}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> traulint"
# Gate on the machine-readable report: the run must exit 0 AND render a
# literal empty findings array, so a formatting regression in the JSON
# encoder cannot silently stop the gate from seeing findings.
go run ./cmd/traulint -json ./... >"$work/traulint.json"
if ! grep -q '"findings": \[\]' "$work/traulint.json"; then
    echo "traulint findings:" >&2
    cat "$work/traulint.json" >&2
    exit 1
fi

echo "==> cancellation and concurrency tests (-race)"
# The cooperative-cancellation paths are the raciest code in the tree:
# every layer must abort promptly when its engine.Ctx is cancelled from
# another goroutine, and the racing portfolio must stay deterministic.
# benchtab's worker pool rides along: the portfolio races backends on
# clones of one problem, each refine attempt with its own lia sessions,
# and the table runner solves instances concurrently. Run them first
# and explicitly so a hang here is attributed correctly.
race_first_tests='Cancel|Deadline|Timeout|Parallel|Concurrent|Portfolio|Hedge|FailsOver'
go test -race -run "$race_first_tests" \
    ./internal/sat ./internal/simplex ./internal/lia \
    ./internal/core ./internal/baseline ./internal/bench \
    ./internal/portfolio ./internal/backend ./internal/cluster
# trauserve's workers share one portfolio Solver, whose staged races
# read and write one win history: run that test ten times in a row.
go test -race -count=10 -run '^TestConcurrentStagedRaces$' ./internal/portfolio

echo "==> server race suites (-race -count=2)"
# The serving layer's concurrency suites — admission, the two-class QoS
# scheduler, dedup-in-flight, batch jobs, drain — run TWICE in one
# process. The second run must pass against whatever package-level
# state the first left behind, so order-dependence and leaked global
# state fail here instead of flaking later.
go test -race -count=2 \
    -run 'Cancel|Deadline|Timeout|Concurrent|QoS|Batch|Scheduler|JobStore|TenantBudget|TenantRefill|RetryAfter|PeerCacheFill|Shutdown' \
    ./internal/server

echo "==> chaos: fault-injection sweep (-race)"
# Deterministic fault injection over the containment boundaries: panics,
# cancellations, and budget trips at the first, middle, and last
# injectable site of each probe instance. Gating — the sweep asserts the
# two containment invariants (verdicts never flip SAT<->UNSAT, no
# goroutine leaks) plus the over-budget UNKNOWN acceptance case.
race_chaos_tests='Chaos|OverBudget|ContainedWorkerPanic|FaultSeed'
go test -race -run "$race_chaos_tests" \
    ./internal/bench ./internal/server ./internal/cluster ./cmd/trauserve

echo "==> go test -race"
# internal/bench skips what the two steps above already ran under -race
# (its heavy differential suites), so each of its tests runs under the
# race detector exactly once and the package stays inside go test's
# default 10-minute timeout on a 2-core machine.
go test -race $(go list ./... | grep -v '^repro/internal/bench$')
go test -race -skip "$race_first_tests|$race_chaos_tests" ./internal/bench

echo "==> fuzz: simplex fast path against big.Rat, lia and Parikh connectivity against brute force (10 s each)"
# go test runs a fuzz target's seed corpus only; these run past it. One
# target checks each rval operation against big.Rat around the +-2^63
# boundaries, another replays random systems through the solver with
# and without the fast path and requires identical transcripts, the
# lia target decides random bound combinations and checks every verdict
# against exhaustive search over a small box, and the parikh target
# decides every small count vector of a random automaton by flow
# conservation plus connectivity cuts and checks it against a search
# for the run.
for target in FuzzFastPathArith FuzzSolverFastSlow; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/simplex
done
go test -run '^$' -fuzz '^FuzzSolveAgainstBruteForce$' -fuzztime 10s ./internal/lia
go test -run '^$' -fuzz '^FuzzLazyConnectivity$' -fuzztime 10s ./internal/parikh

echo "==> trauserve smoke"
# End-to-end over a real socket: boot the service, solve once cold,
# once from the cache, probe /stats, then require a graceful SIGTERM
# drain with exit code 0. Gating — a server that cannot serve or drain
# is broken no matter what the unit tests say.
go build -o "$work/trauserve" ./cmd/trauserve
start_server "$work/trauserve.log" -addr 127.0.0.1:0
payload='{"smtlib": "(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n 42))(assert (= (str.len x) 4))(check-sat)"}'
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"status": "sat"'
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"cached": true'
curl -sf "$url/stats" | grep -q '"cache"'
drain_server "$pid" "$work/trauserve.log"

echo "==> trauserve portfolio smoke"
# Same boot, -portfolio: the solve response must name the backend that
# won the race and /stats must expose the portfolio's win history.
start_server "$work/trauserve_pf.log" -addr 127.0.0.1:0 -portfolio
curl -sf -X POST -d "$payload" "$url/solve" >"$work/trauserve_pf_body.json"
grep -q '"status": "sat"' "$work/trauserve_pf_body.json"
grep -q '"backend"' "$work/trauserve_pf_body.json"
curl -sf "$url/stats" | grep -q '"portfolio"'
drain_server "$pid" "$work/trauserve_pf.log"

echo "==> trauserve fault smoke"
# Containment end-to-end: boot with -faultseed 3072 (panic at the first
# worker-boundary visit), require the first request to fail with a
# structured 500 carrying a fault id, the NEXT request to succeed on the
# surviving worker, /stats to expose the contained fault, and the
# process to still drain cleanly.
start_server "$work/trauserve_fault.log" -addr 127.0.0.1:0 -workers 1 -faultseed 3072
first=$(curl -s -o "$work/trauserve_fault_body.json" -w '%{http_code}' -X POST -d "$payload" "$url/solve")
if [ "$first" != "500" ]; then
    echo "fault smoke: first request status $first, want 500" >&2
    cat "$work/trauserve_fault_body.json" >&2
    exit 1
fi
grep -q '"fault_id"' "$work/trauserve_fault_body.json"
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"status": "sat"'
curl -sf "$url/stats" | grep -q '"contained": 1'
drain_server "$pid" "$work/trauserve_fault.log"

echo "==> trauserve batch smoke"
# Multi-tenant QoS end-to-end: submit a 20-instance batch of one slow
# problem from a bulk tenant, interleave interactive solves from
# another tenant while the batch runs, and require (a) every
# interactive solve answers inside a latency bound despite the flood,
# (b) the duplicates coalesce onto one underlying solve (nonzero
# coalesce hits in /stats), (c) the job polls to completion with every
# instance settled, and (d) the process still drains cleanly.
go run ./cmd/benchgen -out "$work/suites" -per 1 -luhn 8 >/dev/null
slow=$(grep -v '^;' "$work/suites/table3/checkLuhn/luhn-08.smt2" | tr '\n' ' ' | sed 's/"/\\"/g')
inst="{\"smtlib\": \"$slow\"}"
insts="$inst"
for _ in $(seq 2 20); do insts="$insts, $inst"; done
batch_payload="{\"instances\": [$insts], \"timeout_ms\": 25000}"
start_server "$work/trauserve_batch.log" -addr 127.0.0.1:0 -workers 2
curl -sf -X POST -H 'X-Tenant: bulk' -d "$batch_payload" "$url/batch" >"$work/trauserve_batch_202.json"
job_id=$(sed -n 's/.*"job_id": "\([^"]*\)".*/\1/p' "$work/trauserve_batch_202.json")
if [ -z "$job_id" ]; then
    echo "batch smoke: no job id in the 202" >&2
    cat "$work/trauserve_batch_202.json" >&2
    exit 1
fi
# Interactive solves from another tenant while the batch is in flight:
# each must finish fast — the flood occupies at most one worker (the 19
# duplicates coalesce), and interactive work outranks batch anyway.
for _ in 1 2 3; do
    t=$(curl -sf -o /dev/null -w '%{time_total}' -X POST -H 'X-Tenant: alice' \
        -d "$payload" "$url/solve")
    if ! awk "BEGIN{exit !($t < 2.0)}"; then
        echo "batch smoke: interactive solve took ${t}s under the batch flood" >&2
        exit 1
    fi
done
# Poll the job to completion.
pending=1
for _ in $(seq 1 120); do
    curl -sf "$url/jobs/$job_id" >"$work/trauserve_batch_job.json"
    if grep -q '"pending": 0' "$work/trauserve_batch_job.json"; then
        pending=0
        break
    fi
    sleep 0.5
done
if [ "$pending" != "0" ]; then
    echo "batch smoke: job never settled" >&2
    cat "$work/trauserve_batch_job.json" >&2
    exit 1
fi
grep -q '"state": "done"' "$work/trauserve_batch_job.json"
if grep -q '"status": "pending"' "$work/trauserve_batch_job.json"; then
    echo "batch smoke: settled job still reports pending instances" >&2
    exit 1
fi
# The 19 duplicates must have coalesced onto the leader's solve.
coalesced=$(curl -sf "$url/stats" | sed -n '/"dedup"/,/}/s/.*"coalesced": \([0-9]*\).*/\1/p')
if [ -z "$coalesced" ] || [ "$coalesced" -eq 0 ]; then
    echo "batch smoke: no coalesce hits in /stats (got '${coalesced:-none}')" >&2
    curl -sf "$url/stats" >&2 || true
    exit 1
fi
drain_server "$pid" "$work/trauserve_batch.log"

echo "==> trauserve router smoke"
# The cluster layer end-to-end, as separate OS processes: three shards
# plus a consistent-hash router, a mixed flood through the router with
# one shard SIGKILLed mid-flood. Gating invariants: every request
# settles with a verdict (the kill becomes latency, never an error),
# the dead shard's circuit breaker opens, failover engages, and the
# router plus surviving shards still drain cleanly on SIGTERM.
base=$((21000 + $$ % 9000))
s1="127.0.0.1:$base"; s2="127.0.0.1:$((base + 1))"; s3="127.0.0.1:$((base + 2))"
router_addr="127.0.0.1:$((base + 3))"
shard_list="$s1,$s2,$s3"
surviving_shards=""
for s in "$s1" "$s2" "$s3"; do
    start_server "$work/trauserve_shard_${s##*:}.log" -addr "$s" -self "$s" \
        -shards "$shard_list" -workers 2
    if [ "$s" = "$s1" ]; then
        shard_kill_pid=$pid
    else
        surviving_shards="$surviving_shards $pid"
    fi
done
start_server "$work/trauserve_router.log" -addr "$router_addr" -router \
    -shards "$shard_list" -probe 100ms
router_pid=$pid
grep -q 'trauserve: routing across 3 shards' "$work/trauserve_router.log"
router_url="http://$router_addr"
# Mixed flood through the router: 12 distinct problems (distinct hashes
# spread across the ring), shard s1 SIGKILLed after the 4th. Every
# single request must come back 200 with a settled verdict.
i=0
while [ "$i" -lt 12 ]; do
    if [ "$i" = 4 ]; then
        kill -KILL "$shard_kill_pid"
        reap "$shard_kill_pid" || true
    fi
    n=$((40 + i))
    p="{\"smtlib\": \"(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n $n))(assert (= (str.len x) 4))(check-sat)\"}"
    code=$(curl -s -o "$work/trauserve_router_body.json" -w '%{http_code}' -X POST -d "$p" "$router_url/solve")
    if [ "$code" != "200" ] || ! grep -q '"status": "sat"' "$work/trauserve_router_body.json"; then
        echo "router smoke: request $i answered $code mid-kill" >&2
        cat "$work/trauserve_router_body.json" >&2
        exit 1
    fi
    i=$((i + 1))
done
# The health probes must have opened the dead shard's breaker.
sleep 1
curl -sf "$router_url/stats" >"$work/trauserve_router_stats.json"
grep -q '"breaker": "open"' "$work/trauserve_router_stats.json"
# Drive failover explicitly: which shard owns a given problem is up to
# the hash, so keep sending fresh problems until one lands on the dead
# owner and is routed past it. Each problem has a 1-in-3 chance, so 60
# tries bounds the loop without ever realistically failing.
failovers=0
i=100
while [ "$i" -lt 160 ]; do
    p="{\"smtlib\": \"(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n $i))(assert (= (str.len x) 4))(check-sat)\"}"
    code=$(curl -s -o "$work/trauserve_router_body.json" -w '%{http_code}' -X POST -d "$p" "$router_url/solve")
    if [ "$code" != "200" ] || ! grep -q '"status": "sat"' "$work/trauserve_router_body.json"; then
        echo "router smoke: request n=$i answered $code against the degraded cluster" >&2
        cat "$work/trauserve_router_body.json" >&2
        exit 1
    fi
    curl -sf "$router_url/stats" >"$work/trauserve_router_stats.json"
    failovers=$(sed -n 's/.*"failovers": \([0-9]*\).*/\1/p' "$work/trauserve_router_stats.json")
    [ -n "$failovers" ] && [ "$failovers" -gt 0 ] && break
    i=$((i + 1))
done
if [ -z "$failovers" ] || [ "$failovers" -eq 0 ]; then
    echo "router smoke: no failovers recorded though a shard was killed" >&2
    cat "$work/trauserve_router_stats.json" >&2
    exit 1
fi
# Clean drain: the router and both surviving shards exit 0 on SIGTERM.
drain_server "$router_pid" "$work/trauserve_router.log"
for p in $surviving_shards; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in $surviving_shards; do
    reap "$p" || true
done
grep -q 'trauserve: drained' "$work/trauserve_shard_${s2##*:}.log"
grep -q 'trauserve: drained' "$work/trauserve_shard_${s3##*:}.log"

echo "==> traubench luhn smoke"
# One short traubench run of each Luhn workload: both solve checkLuhn
# k = 2..8 through SMT-LIB and check every verdict and model, luhn
# through refine and luhn-portfolio through the portfolio's race.
# Gating on the run's own "correct" flag, not on its timings.
go build -o "$work/traubench" ./cmd/traubench
for workload in luhn luhn-portfolio; do
    "$work/traubench" -workload "$workload" -seconds 1 >"$work/traubench_$workload.json"
    if ! tail -n 1 "$work/traubench_$workload.json" | grep -q '"correct":true'; then
        echo "traubench $workload smoke: a verdict or model was wrong" >&2
        cat "$work/traubench_$workload.json" >&2
        exit 1
    fi
done

echo "ci: all checks passed"
