#!/usr/bin/env bash
# Offline verification gate. Everything here must pass before merging:
#
#   1. tier-1: warning-free release build + full workspace test suite
#   2. source lint (tests/lint.rs): no unwrap/expect in smt/core library code
#   3. sta-smt under --features certify-debug (simplex invariant auditor on)
#   4. end-to-end certification smoke on IEEE 14-bus: one SAT answer with
#      model re-evaluation and one UNSAT answer with RUP proof replay,
#      both under `--certify full`
#   5. campaign smoke: a certified 33-job IEEE 14-bus sweep on 4 workers
#      with one forced-timeout job (must exit 3 = at least one unknown),
#      whose timing-stripped report is byte-identical to a 1-worker run;
#      its --trace JSONL must be well-formed with non-zero phase counters;
#      on machines with >= 4 CPUs the 4-worker run must also be >= 2x
#      faster than the 1-worker run
#   6. incremental equivalence: the same 33-job campaign with
#      --incremental on vs off must produce byte-identical timing-stripped
#      reports — the persistent solver core may only change how fast
#      answers arrive, never the answers
#   6b. engine equivalence: the same campaign pinned to `--simplex dense`
#      and `--simplex revised` must produce byte-identical timing-stripped
#      reports — the revised engine replays the dense pivot trajectory
#      exactly, so only the clock may differ
#   7. bench smoke: `sta bench --reps 1` must emit a schema-valid
#      sta-bench/v1 trajectory point, and the deterministic self-diff
#      (--baseline F --against F) must exit 0 for both the fresh point
#      and the checked-in BENCH_smoke.json
#   8. serve smoke: a persistent `sta serve` daemon on a unix socket
#      answers a cold `sta client verify` with a session cache miss and
#      the identical warm request with a hit, then drains cleanly and
#      removes its socket file
#   9. serve bench: `sta bench --suite serve --reps 5` medians — a warm
#      request (cached session) must beat the cold request that built it
#  10. scale bench: `sta bench --suite scale --reps 1` runs the WLS /
#      observability / verify ladder at 14..2000 buses to completion with
#      a schema-valid report, and three ratios/verdicts are pinned:
#      the 300-bus sparse WLS median must be at least 10x faster than
#      the dense-oracle median (the sparse numerics lift the estimation
#      ceiling); the pivot-heavy 300-bus engine A/B pair must show the
#      revised simplex strictly beating the dense tableau (the factorized
#      basis lifts the solver ceiling); and the 2000-bus verify rung must
#      answer `unsat` — completing within its deadline, not timing out
#  11. telemetry smoke (inside the serve smoke): the metrics registry
#      counts the two verify requests exactly, the Prometheus exposition
#      carries the same totals, and `sta top --once` renders a frame
#  12. telemetry overhead: the serve bench's warm-verify median with the
#      measurement plane on must stay within 1.5x + 500us of the
#      telemetry-off median — observation must stay cheap
#  13. paper regeneration: `sta reproduce case-study` prints byte-identical
#      verdicts, witnesses, replays and architectures at 1 and 4 workers,
#      including the five §IV-E architecture lines, and `sta reproduce
#      table4` exits 0 (the long fig4/fig5 sweeps stay out of the gate)
#
# No network access is required; the script fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: release build (deny warnings)"
RUSTFLAGS="-D warnings" cargo build --release

echo "==> tier-1: workspace tests"
cargo test -q

echo "==> source lint (invariant analyzer via cargo test)"
cargo test -q --test lint

echo "==> sta lint: zero findings, byte-stable JSON"
./target/release/sta lint --json > LINT_findings.json
./target/release/sta lint --json > LINT_findings.rerun.json
cmp -s LINT_findings.json LINT_findings.rerun.json || {
    echo "sta lint --json output differs between identical runs" >&2
    exit 1
}
rm -f LINT_findings.rerun.json
# Findings-count regression gate: the tree at HEAD must be clean — any
# new finding (or stale allowlist entry) fails the build.
grep -q '"findings":\[\]' LINT_findings.json || {
    echo "sta lint reports findings (see LINT_findings.json)" >&2
    exit 1
}

echo "==> sta lint: injected violation must exit 1"
lintroot="$(mktemp -d)"
for root in crates/analysis/src crates/campaign/src crates/core/src \
            crates/estimator/src crates/grid/src crates/linalg/src \
            crates/serve/src crates/smt/src src; do
    mkdir -p "$lintroot/$root"
    cp -r "$root/." "$lintroot/$root/"
done
printf 'fn injected() { let _ = std::time::Instant::now(); }\n' \
    | cat - "$lintroot/crates/core/src/lib.rs" > "$lintroot/crates/core/src/lib.rs.tmp"
mv "$lintroot/crates/core/src/lib.rs.tmp" "$lintroot/crates/core/src/lib.rs"
status=0
./target/release/sta lint --root "$lintroot" >/dev/null || status=$?
rm -rf "$lintroot"
if [ "$status" -ne 1 ]; then
    echo "expected exit 1 from sta lint on an injected violation, got $status" >&2
    exit 1
fi

echo "==> sta-smt with certify-debug (simplex invariant audits)"
cargo test -q -p sta-smt --features certify-debug

echo "==> certification smoke: SAT with full certification (ieee14)"
./target/release/sta verify ieee14 - --certify full >/dev/null

echo "==> certification smoke: UNSAT with full certification (ieee14)"
scenario="$(mktemp)"
trap 'rm -f "$scenario"' EXIT
cat > "$scenario" <<'EOF'
target 12 change
max-measurements 0
certify full
EOF
# A blocked scenario must exit 1 (unsat); any other status is a failure.
status=0
./target/release/sta verify ieee14 "$scenario" >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "expected certified unsat (exit 1), got exit $status" >&2
    exit 1
fi

echo "==> paper regeneration: case-study verdicts at 1 and 4 workers, table4"
case_study="$(mktemp)"
./target/release/sta reproduce case-study --jobs 1 > "$case_study"
./target/release/sta reproduce case-study --jobs 4 | cmp -s - "$case_study" || {
    echo "sta reproduce case-study output differs between 1 and 4 workers" >&2
    exit 1
}
for line in \
    "Scenario 1 (limited attacker, budget 4; paper: {1,6,7,10}): secured buses {1, 6, 8, 9}" \
    "Scenario 2 (full knowledge, budget 4; paper: none): no architecture" \
    "Scenario 2 (full knowledge, budget 5; paper: {1,3,6,8,9}): secured buses {1, 3, 6, 8, 9}" \
    "Scenario 3 (+ topology, budget 4; paper at 5: none): no architecture" \
    "Scenario 3 (+ topology, budget 5; paper needs 6: {1,4,6,8,10,14}): secured buses {1, 3, 6, 8, 9}"; do
    grep -qF "$line" "$case_study" || {
        echo "sta reproduce case-study is missing the §IV-E line: $line" >&2
        exit 1
    }
done
rm -f "$case_study"
./target/release/sta reproduce table4 >/dev/null

echo "==> campaign smoke: certified 33-job sweep, 4 workers, one forced timeout"
report1="$(mktemp)" report4="$(mktemp)" trace4="$(mktemp)"
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4"' EXIT
status=0
./target/release/sta campaign ieee14 --jobs 4 --certify full --force-timeout \
    --out "$report4" --strip-timing --trace "$trace4" --metrics >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 (forced-timeout job is unknown), got exit $status" >&2
    exit 1
fi
grep -q '"verdict":"unknown(timeout)"' "$report4" || {
    echo "campaign report is missing the forced unknown(timeout) verdict" >&2
    exit 1
}

echo "==> trace smoke: --trace JSONL is well-formed with non-zero counters"
bad_lines=$(grep -c -v '^{"event":"' "$trace4" || true)
if [ "$bad_lines" -ne 0 ]; then
    echo "trace file has $bad_lines line(s) not starting with {\"event\":\"" >&2
    exit 1
fi
for pattern in '"event":"run-start"' '"event":"job-start"' '"event":"run-end"' \
               '"phase":"encode"' '"phase":"search"' '"phase":"simplex"'; do
    grep -q -- "$pattern" "$trace4" || {
        echo "trace file is missing $pattern" >&2
        exit 1
    }
done
grep -q '"decisions":[1-9]' "$trace4" || {
    echo "trace file has no job with non-zero decisions" >&2
    exit 1
}
grep -q '"clauses":[1-9]' "$trace4" || {
    echo "trace file has no job with non-zero clauses" >&2
    exit 1
}

echo "==> campaign determinism: 1-worker stripped report must match"
status=0
./target/release/sta campaign ieee14 --jobs 1 --certify full --force-timeout \
    --out "$report1" --strip-timing >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 from the 1-worker run, got exit $status" >&2
    exit 1
fi
cmp -s "$report1" "$report4" || {
    echo "timing-stripped campaign reports differ between 1 and 4 workers" >&2
    exit 1
}

echo "==> incremental equivalence: --incremental on/off stripped reports must match"
# The 4-worker stripped report above ran with the default (--incremental
# on); rerun the identical campaign with the persistent core disabled and
# byte-compare. Verdicts, models and certificates must not depend on the
# solve path.
report_cold="$(mktemp)"
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4" "$report_cold"' EXIT
status=0
./target/release/sta campaign ieee14 --jobs 4 --certify full --force-timeout \
    --incremental off --out "$report_cold" --strip-timing >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 from the --incremental off run, got exit $status" >&2
    exit 1
fi
cmp -s "$report4" "$report_cold" || {
    echo "timing-stripped campaign reports differ between --incremental on and off" >&2
    exit 1
}

echo "==> engine equivalence: --simplex dense/revised stripped reports must match"
report_dense="$(mktemp)" report_revised="$(mktemp)"
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4" "$report_cold" \
     "$report_dense" "$report_revised"' EXIT
for engine in dense revised; do
    status=0
    ./target/release/sta campaign ieee14 --jobs 4 --certify full --force-timeout \
        --simplex "$engine" --out "$(eval echo "\$report_$engine")" \
        --strip-timing >/dev/null || status=$?
    if [ "$status" -ne 3 ]; then
        echo "expected exit 3 from the --simplex $engine run, got exit $status" >&2
        exit 1
    fi
done
cmp -s "$report_dense" "$report_revised" || {
    echo "timing-stripped campaign reports differ between --simplex dense and revised" >&2
    exit 1
}
cmp -s "$report4" "$report_revised" || {
    echo "pinned-engine stripped report differs from the default (auto) run" >&2
    exit 1
}

if [ "$(nproc)" -ge 4 ]; then
    echo "==> campaign speedup: --jobs 4 must halve the 32-job sweep wall clock"
    t1_start=$(date +%s%N)
    ./target/release/sta campaign ieee14 --jobs 1 >/dev/null
    t1=$((($(date +%s%N) - t1_start) / 1000000))
    t4_start=$(date +%s%N)
    ./target/release/sta campaign ieee14 --jobs 4 >/dev/null
    t4=$((($(date +%s%N) - t4_start) / 1000000))
    echo "    1 worker: ${t1} ms, 4 workers: ${t4} ms"
    if [ $((t4 * 2)) -gt "$t1" ]; then
        echo "expected >= 2x speedup at --jobs 4 (got ${t1} ms -> ${t4} ms)" >&2
        exit 1
    fi
else
    echo "==> campaign speedup check skipped ($(nproc) CPU(s) available)"
fi

echo "==> bench smoke: one-rep trajectory point + deterministic self-diff"
./target/release/sta bench --suite smoke --reps 1 --out BENCH_smoke.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_smoke.ci.json || {
    echo "bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
# --against skips the run entirely: a file diffed against itself must
# parse (schema validation) and report zero regressions (exit 0).
./target/release/sta bench --baseline BENCH_smoke.ci.json \
    --against BENCH_smoke.ci.json >/dev/null
./target/release/sta bench --baseline BENCH_smoke.json \
    --against BENCH_smoke.json >/dev/null

echo "==> serve smoke: warm session cache over a unix socket"
sockdir="$(mktemp -d)"
serve_pid=""
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4" "$report_cold" \
     "$report_dense" "$report_revised"; \
     [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; \
     rm -rf "$sockdir"; true' EXIT
sock="$sockdir/sta-serve-ci.sock"
./target/release/sta serve --listen "$sock" --jobs 2 >/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.05
done
[ -S "$sock" ] || { echo "serve socket never appeared at $sock" >&2; exit 1; }
cold_out="$(./target/release/sta client "$sock" verify ieee14 -)"
warm_out="$(./target/release/sta client "$sock" verify ieee14 -)"
echo "$cold_out" | grep -q '"session":"miss"' || {
    echo "cold serve request did not report a session cache miss" >&2
    exit 1
}
echo "$warm_out" | grep -q '"session":"hit"' || {
    echo "warm serve request did not report a session cache hit" >&2
    exit 1
}
echo "==> telemetry smoke: exact counters, Prometheus exposition, top frame"
metrics_out="$(./target/release/sta client "$sock" metrics --json)"
echo "$metrics_out" | grep -q '"schema":"sta-metrics/v1"' || {
    echo "metrics reply is missing the sta-metrics/v1 schema tag" >&2
    exit 1
}
echo "$metrics_out" | grep -q '"verify":{"requests":2' || {
    echo "metrics registry did not count exactly 2 verify requests" >&2
    exit 1
}
./target/release/sta client "$sock" metrics --format prometheus \
    | grep -q 'sta_requests_total{op="verify"} 2' || {
    echo "Prometheus exposition disagrees with the verify request count" >&2
    exit 1
}
top_out="$(./target/release/sta top "$sock" --once)"
echo "$top_out" | grep -q 'uptime ' || {
    echo "sta top --once did not render the header gauges" >&2
    exit 1
}
echo "$top_out" | grep -q '^verify ' || {
    echo "sta top --once did not render the per-op table" >&2
    exit 1
}
./target/release/sta client "$sock" shutdown >/dev/null
wait "$serve_pid" || {
    echo "sta serve exited non-zero after a clean shutdown" >&2
    exit 1
}
serve_pid=""
[ -S "$sock" ] && { echo "serve left its socket file behind" >&2; exit 1; }

echo "==> serve bench: warm must beat cold on 5-rep medians"
./target/release/sta bench --suite serve --reps 5 --out BENCH_serve.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_serve.ci.json || {
    echo "serve bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
./target/release/sta bench --baseline BENCH_serve.ci.json \
    --against BENCH_serve.ci.json >/dev/null
cold_us="$(sed -n 's/.*"label":"cold-verify"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
warm_us="$(sed -n 's/.*"label":"warm-verify"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
if [ -z "$cold_us" ] || [ -z "$warm_us" ]; then
    echo "could not extract cold/warm medians from BENCH_serve.ci.json" >&2
    exit 1
fi
echo "    cold median: ${cold_us} us, warm median: ${warm_us} us"
if [ "$warm_us" -ge "$cold_us" ]; then
    echo "warm serve requests must beat cold (got ${cold_us} us -> ${warm_us} us)" >&2
    exit 1
fi

echo "==> telemetry overhead: histograms on vs off on warm medians"
off_us="$(sed -n 's/.*"label":"warm-verify-notelemetry"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
if [ -z "$off_us" ]; then
    echo "could not extract the warm-verify-notelemetry median from BENCH_serve.ci.json" >&2
    exit 1
fi
echo "    telemetry on: ${warm_us} us, off: ${off_us} us"
if [ "$warm_us" -gt $((off_us * 3 / 2 + 500)) ]; then
    echo "telemetry overhead too high: warm ${warm_us} us vs ${off_us} us off (bound 1.5x + 500us)" >&2
    exit 1
fi

echo "==> scale bench: sparse WLS must beat the dense oracle 10x at 300 buses"
./target/release/sta bench --suite scale --reps 1 --out BENCH_scale.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_scale.ci.json || {
    echo "scale bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
# Deterministic self-diff: the fresh report must parse and diff cleanly
# against itself (same schema/regression machinery as the smoke suites).
./target/release/sta bench --baseline BENCH_scale.ci.json \
    --against BENCH_scale.ci.json >/dev/null
sparse_us="$(sed -n 's/.*"label":"wls-sparse-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
dense_us="$(sed -n 's/.*"label":"wls-dense-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
if [ -z "$sparse_us" ] || [ -z "$dense_us" ]; then
    echo "could not extract 300-bus WLS medians from BENCH_scale.ci.json" >&2
    exit 1
fi
echo "    300-bus WLS median: sparse ${sparse_us} us, dense ${dense_us} us"
if [ $((sparse_us * 10)) -gt "$dense_us" ]; then
    echo "300-bus sparse WLS must be >= 10x faster than dense (got sparse ${sparse_us} us vs dense ${dense_us} us)" >&2
    exit 1
fi

echo "==> scale bench: revised simplex must beat dense on the 300-bus A/B pair"
vd_us="$(sed -n 's/.*"label":"verify-dense-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
vr_us="$(sed -n 's/.*"label":"verify-revised-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
if [ -z "$vd_us" ] || [ -z "$vr_us" ]; then
    echo "could not extract the 300-bus engine A/B medians from BENCH_scale.ci.json" >&2
    exit 1
fi
echo "    300-bus pivot-heavy verify median: dense ${vd_us} us, revised ${vr_us} us"
if [ "$vr_us" -ge "$vd_us" ]; then
    echo "revised simplex must strictly beat dense at 300 buses (got dense ${vd_us} us vs revised ${vr_us} us)" >&2
    exit 1
fi

echo "==> scale bench: the 2000-bus verify rung must complete within its deadline"
v2000="$(sed -n 's/.*"label":"verify-2000"[^}]*"verdict":"\([^"]*\)".*/\1/p' BENCH_scale.ci.json)"
if [ "$v2000" != "unsat" ]; then
    echo "2000-bus verify rung did not complete (verdict: '${v2000:-missing}')" >&2
    exit 1
fi

echo "verify.sh: all checks passed"
