#!/usr/bin/env bash
# Repository gate: rustfmt over the analyzer, websec-xml, websec-policy,
# websec-core, websec-dissem, websec-rdf and websec-uddi libraries and the
# websec-lint binary, offline build, clippy
# with warnings denied, full test suite, the wsbench build, tests and
# short runs, the websec-lint static checks, the WS003-WS012 analyzer over
# every example stack (byte-diffed for determinism, failing on error
# findings), the WS013-WS018 static policy
# verifier over the seed fixtures (byte-diffed against the committed
# ANALYSIS_policy.json baseline), and the serving benchmark, which
# evaluates its own speedup, equivalence, incremental-analysis and
# compile-cost gates. Fails on the first broken step.
# `./check.sh --verify-policies` runs just the policy verifier step.
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

# The analyzer, websec-xml, websec-policy, websec-core, websec-dissem,
# websec-rdf and websec-uddi libraries (each lib.rs and every module it
# declares) and the websec-lint binary are in rustfmt's default style; the
# rest of the tree is not yet.
echo "==> rustfmt --check (analyzer, websec-xml, websec-policy, websec-core, websec-dissem, websec-rdf and websec-uddi libraries, websec-lint)"
rustfmt --edition 2021 --check crates/analyzer/src/lib.rs
rustfmt --edition 2021 --check crates/analyzer/src/bin/websec_lint.rs
rustfmt --edition 2021 --check crates/xml/src/lib.rs
rustfmt --edition 2021 --check crates/policy/src/lib.rs
rustfmt --edition 2021 --check crates/core/src/lib.rs
rustfmt --edition 2021 --check crates/dissem/src/lib.rs
rustfmt --edition 2021 --check crates/rdf/src/lib.rs
rustfmt --edition 2021 --check crates/uddi/src/lib.rs

echo "==> cargo build --release --offline"
cargo build --release --offline

# Every workspace target is clippy-clean; a new lint finding fails the gate.
echo "==> cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

# Chaos sweep width for tests/tests/chaos.rs: 25 seeds keeps tier-1 fast;
# raise it (e.g. CHAOS_SEEDS=200 ./check.sh) for a deep soak, or pin a
# single failing seed when reproducing (see README "Testing & chaos").
export CHAOS_SEEDS="${CHAOS_SEEDS:-25}"

echo "==> cargo test --offline (CHAOS_SEEDS=${CHAOS_SEEDS})"
cargo test -q --offline

# The benchmark harness is a workspace of its own (path dependencies on
# websec-core and websec-scenarios), so the build above never compiles
# it: build and test it here, then run its two gated workloads briefly.
# A run exits non-zero on any outcome that differs from its oracle,
# including a planted WS014 tie the Deny gate fails to reject with WS109.
# Untraced runs write no files.
echo "==> wsbench build, tests and 3 s runs (gated_updates, hot_reads)"
cargo build --release --offline --manifest-path wsbench/Cargo.toml
cargo test -q --release --offline --manifest-path wsbench/Cargo.toml
for workload in gated_updates hot_reads; do
    cargo run -q --release --offline --manifest-path wsbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0
done

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

# Serving benchmark: writes BENCH_serving.json, then evaluates its own
# gate table (parallel >= serial, faulted parallel >= faulted serial, the
# core-aware no-dup scaling bar, incremental <= full analysis and policy
# verification, compiled >= 5x interpreted with byte equivalence and the
# class-partition cross-check, sixteen duplicate grants
# compiling in <= 2x the time of one, a revocation compiled against the
# published tables in <= 0.5x the time of compiling it from nothing, and
# in <= 0.25x with 1,600 grants, detector-off overhead <= 2%)
# against the values as written, printing one line per gate; any failed
# gate exits non-zero.
echo "==> serving-layer benchmark and gates (BENCH_serving.json)"
cargo run --release --offline -p websec-examples --bin serving_bench

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
