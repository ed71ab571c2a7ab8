#!/usr/bin/env bash
# Repository gate: offline build, full test suite, the websec-lint static
# checks, the WS001-WS012 analyzer over every example stack (byte-diffed
# for determinism, failing on error findings), the WS013-WS018 static
# policy verifier over the seed fixtures (byte-diffed against the
# committed ANALYSIS_policy.json baseline), and the serving benchmark
# with its speedup and incremental-analysis gates. Fails on the first
# broken step. `./check.sh --verify-policies` runs just the policy
# verifier step.
set -euo pipefail
cd "$(dirname "$0")"

# Static policy verifier (WS013-WS018) over the seed fixtures: rebuilt
# twice for determinism, then byte-diffed against the committed
# ANALYSIS_policy.json baseline, exactly like LOCKORDER.json. Runs inside
# the full gate and standalone via `./check.sh --verify-policies`.
verify_policies_step() {
    echo "==> policy verifier baseline (ANALYSIS_policy.json)"
    cargo run --release --offline -p websec-examples --bin verify_policies > ANALYSIS_policy_run1.json
    cargo run --release --offline -p websec-examples --bin verify_policies > ANALYSIS_policy_run2.json
    if ! cmp -s ANALYSIS_policy_run1.json ANALYSIS_policy_run2.json; then
        echo "check.sh: FAIL — verify_policies output is not deterministic" >&2
        diff ANALYSIS_policy_run1.json ANALYSIS_policy_run2.json >&2 || true
        exit 1
    fi
    if ! cmp -s ANALYSIS_policy_run1.json ANALYSIS_policy.json; then
        echo "check.sh: FAIL — policy-verifier findings drifted from the committed ANALYSIS_policy.json" >&2
        echo "  (inspect the diff; if the change is intended, commit the new baseline)" >&2
        diff ANALYSIS_policy.json ANALYSIS_policy_run1.json >&2 || true
        exit 1
    fi
    rm -f ANALYSIS_policy_run1.json ANALYSIS_policy_run2.json
}

if [ "${1:-}" = "--verify-policies" ]; then
    echo "==> cargo build --release --offline"
    cargo build --release --offline
    verify_policies_step
    echo "check.sh: policy-verifier gate passed"
    exit 0
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

# Chaos sweep width for tests/tests/chaos.rs: 25 seeds keeps tier-1 fast;
# raise it (e.g. CHAOS_SEEDS=200 ./check.sh) for a deep soak, or pin a
# single failing seed when reproducing (see README "Testing & chaos").
export CHAOS_SEEDS="${CHAOS_SEEDS:-25}"

echo "==> cargo test --offline (CHAOS_SEEDS=${CHAOS_SEEDS})"
cargo test -q --offline

# Concurrency-correctness pass: the chaos + serving + lockdep suites and
# the Deny gate's oracle walk rerun with the lock-order/race detector
# armed; any WS110/WS111 finding fails a test. 200 seeds is the regression oracle for future lock-free refactors
# (LOCKDEP_CHAOS_SEEDS overrides).
export LOCKDEP_CHAOS_SEEDS="${LOCKDEP_CHAOS_SEEDS:-200}"
echo "==> cargo test with WEBSEC_LOCKDEP=1 (CHAOS_SEEDS=${LOCKDEP_CHAOS_SEEDS})"
WEBSEC_LOCKDEP=1 CHAOS_SEEDS="${LOCKDEP_CHAOS_SEEDS}" \
    cargo test -q --offline -p websec-integration-tests \
    --test chaos --test serving --test lockdep --test scheduler \
    --test compiled_decisions --test scenarios --test gate_oracle

echo "==> lock-order graph baseline (LOCKORDER.json)"
cargo run --release --offline -p websec-examples --bin lockorder_dump LOCKORDER_run1.json
cargo run --release --offline -p websec-examples --bin lockorder_dump LOCKORDER_run2.json
if ! cmp -s LOCKORDER_run1.json LOCKORDER_run2.json; then
    echo "check.sh: FAIL — lockorder_dump output is not deterministic" >&2
    diff LOCKORDER_run1.json LOCKORDER_run2.json >&2 || true
    exit 1
fi
if ! cmp -s LOCKORDER_run1.json LOCKORDER.json; then
    echo "check.sh: FAIL — lock-order graph drifted from the committed LOCKORDER.json" >&2
    echo "  (inspect the diff; if the change is intended, commit the new baseline)" >&2
    diff LOCKORDER.json LOCKORDER_run1.json >&2 || true
    exit 1
fi
rm -f LOCKORDER_run1.json LOCKORDER_run2.json

echo "==> websec-lint --deny-warnings"
cargo run --release --offline --bin websec-lint -- --deny-warnings

echo "==> analyzer over example stacks (deterministic, fails on errors)"
cargo run --release --offline -p websec-examples --bin analyze_examples > ANALYSIS_run1.json
cargo run --release --offline -p websec-examples --bin analyze_examples > ANALYSIS_run2.json
if ! cmp -s ANALYSIS_run1.json ANALYSIS_run2.json; then
    echo "check.sh: FAIL — analyze_examples output is not deterministic" >&2
    diff ANALYSIS_run1.json ANALYSIS_run2.json >&2 || true
    exit 1
fi
mv ANALYSIS_run1.json ANALYSIS_examples.json
rm -f ANALYSIS_run2.json

verify_policies_step

echo "==> serving-layer worker sweep (BENCH_serving.json)"
cargo run --release --offline -p websec-examples --bin serving_bench

# Gate: the 4-worker batch engine must not lose to the serial serve() loop.
serial_qps=$(awk -F': ' '/"serial_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
parallel_qps=$(awk -F': ' '/"parallel_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
ratio=$(awk "BEGIN {printf \"%.2f\", $parallel_qps / $serial_qps}")
echo "==> parallel/serial ratio: ${ratio}x (parallel ${parallel_qps} q/s vs serial ${serial_qps} q/s)"
if awk "BEGIN {exit !($parallel_qps < $serial_qps)}"; then
    echo "check.sh: FAIL — parallel serving (${parallel_qps} q/s) is slower than serial (${serial_qps} q/s)" >&2
    exit 1
fi

# Gate: the batch engine must keep its edge under the seeded ~10% fault plan.
f_serial_qps=$(awk -F': ' '/"faulted_serial_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
f_parallel_qps=$(awk -F': ' '/"faulted_parallel_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
f_ratio=$(awk "BEGIN {printf \"%.2f\", $f_parallel_qps / $f_serial_qps}")
echo "==> faulted parallel/serial ratio: ${f_ratio}x (parallel ${f_parallel_qps} q/s vs serial ${f_serial_qps} q/s)"
if awk "BEGIN {exit !($f_parallel_qps < $f_serial_qps)}"; then
    echo "check.sh: FAIL — faulted parallel serving (${f_parallel_qps} q/s) is slower than faulted serial (${f_serial_qps} q/s)" >&2
    exit 1
fi

# Gate: on the worst-case no-duplicate workload (nothing coalesces, no
# cache level answers twice) an 8-worker batch must beat 1 worker by the
# core-aware factor the bench computed (3x on >= 8 cores, a no-regression
# floor on a single-core box).
nd_1w=$(awk -F': ' '/"nodup_qps_1w"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
nd_8w=$(awk -F': ' '/"nodup_qps_8w"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
nd_speedup=$(awk -F': ' '/"nodup_speedup_8w_over_1w"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
nd_expected=$(awk -F': ' '/"nodup_expected_speedup"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
echo "==> no-dup 8w/1w speedup: ${nd_speedup}x (8w ${nd_8w} q/s vs 1w ${nd_1w} q/s; expected >= ${nd_expected}x)"
if awk "BEGIN {exit !($nd_speedup < $nd_expected)}"; then
    echo "check.sh: FAIL — no-dup 8-worker speedup ${nd_speedup}x is below the core-aware bar ${nd_expected}x" >&2
    exit 1
fi

# Gate: incremental re-analysis after one mutation must not cost more than
# the cold full fixpoint (it re-runs only the affected passes).
a_full=$(awk -F': ' '/"analysis_full_us"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
a_incr=$(awk -F': ' '/"analysis_incremental_us"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
echo "==> analysis full ${a_full} us vs incremental ${a_incr} us"
if awk "BEGIN {exit !($a_incr > $a_full)}"; then
    echo "check.sh: FAIL — incremental re-analysis (${a_incr} us) is slower than a full run (${a_full} us)" >&2
    exit 1
fi

# Gate: the policy verifier's token-keyed incremental re-check after a
# snapshot republication must not cost more than the cold WS013-WS018 run
# (it reuses the cached report wholesale when the policy base is unchanged).
pv_full=$(awk -F': ' '/"policy_verify_full_us"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
pv_incr=$(awk -F': ' '/"policy_verify_incremental_us"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
echo "==> policy verify full ${pv_full} us vs incremental ${pv_incr} us"
if awk "BEGIN {exit !($pv_incr > $pv_full)}"; then
    echo "check.sh: FAIL — incremental policy re-verify (${pv_incr} us) is slower than a full run (${pv_full} us)" >&2
    exit 1
fi

# Gate: the snapshot-compiled decision path must beat the interpreting
# engine >= 5x on unique-subject cache-miss traffic over the generated
# large store (100k docs, 10k subjects).
c_interp=$(awk -F': ' '/"interpreted_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
c_comp=$(awk -F': ' '/"compiled_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
c_speedup=$(awk -F': ' '/"compiled_speedup"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
echo "==> compiled/interpreted ratio: ${c_speedup}x (compiled ${c_comp} v/s vs interpreted ${c_interp} v/s)"
if awk "BEGIN {exit !($c_speedup < 5.0)}"; then
    echo "check.sh: FAIL — compiled decision path (${c_comp} v/s) is below 5x the interpreter (${c_interp} v/s)" >&2
    exit 1
fi

# Gate: the two decision paths must agree byte-for-byte on the sampled
# traffic, and the analyzer cross-check (WS001/WS002 + equivalence classes
# re-run over the compiled form) must accept the published artifact.
c_equiv=$(awk -F': ' '/"compiled_equivalent"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
c_verify=$(awk -F': ' '/"compiled_verify_ok"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
if [ "${c_equiv}" != "1" ]; then
    echo "check.sh: FAIL — compiled and interpreted views diverged on sampled traffic" >&2
    exit 1
fi
if [ "${c_verify}" != "1" ]; then
    echo "check.sh: FAIL — analyzer cross-check rejected the compiled artifact (WS109)" >&2
    exit 1
fi

# Gate: the tracked sync wrappers with the detector compiled in but
# disabled must stay within 2% of raw std::sync on the parallel probe.
ld_untracked=$(awk -F': ' '/"lockdep_probe_untracked_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
ld_tracked=$(awk -F': ' '/"lockdep_probe_tracked_off_qps"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
ld_ratio=$(awk -F': ' '/"lockdep_off_ratio"/ {gsub(/,/, "", $2); print $2}' BENCH_serving.json)
echo "==> lockdep detector-off ratio: ${ld_ratio} (tracked-off ${ld_tracked} op/s vs raw ${ld_untracked} op/s)"
if awk "BEGIN {exit !($ld_ratio < 0.98)}"; then
    echo "check.sh: FAIL — detector-off overhead exceeds 2% (tracked-off ${ld_tracked} op/s < 0.98 x ${ld_untracked} op/s)" >&2
    exit 1
fi

# Scenario smoke suite: the declared workloads (baseline, no-dup, faulted,
# revocation storm, adversarial replay/tamper, UDDI churn, mining) run
# with their invariants checked and their history appended to
# BENCH_scenarios.json. The fingerprint cache makes unchanged re-runs
# free; --gate-trend fails a scenario whose headline q/s drops below
# SCENARIO_TREND_FLOOR (default 0.5) times its history median — both the
# cache and the trend gate bootstrap cleanly on a missing or short
# history (first run: everything executes, trend passes). SCENARIO_FILTER
# narrows the suite by name substring when iterating on one scenario.
export SCENARIO_FILTER="${SCENARIO_FILTER:-}"
echo "==> scenario smoke suite (BENCH_scenarios.json, SCENARIO_report.html)"
cargo run --release --offline -p websec-scenarios -- --suite smoke --gate-trend

echo "check.sh: all gates passed"
