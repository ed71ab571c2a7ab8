//! Harness-level tests for the `websec-scenarios` orchestrator.
//!
//! The scenario harness is itself test infrastructure, so these tests hold
//! it to the same bar as the engine: determinism of [`ScenarioResult`]
//! across 100 seeds, honest fingerprint-cache accounting, invariant
//! failures that actually propagate to a failed suite (including from a
//! cached row), the adversarial replay/tamper scenario's WS1xx-only
//! contract, and the `BENCH_scenarios.json` row schema.

use std::path::PathBuf;
use websec_scenarios::prelude::*;

/// A per-test temp history path (removed before use so every test starts
/// from the bootstrap state a fresh checkout sees).
fn temp_history(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "websec-scenarios-{tag}-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Same scenario + same seed must produce a byte-identical
/// [`ScenarioResult`] — the property the fingerprint cache and the
/// seed-replay workflow both stand on. 100 seeds, each run twice.
#[test]
fn scenario_results_are_deterministic_across_100_seeds() {
    for seed in 0..100u64 {
        let scenario = suite::tiny(seed);
        let first = run_scenario(&scenario, "det-rev");
        let second = run_scenario(&scenario, "det-rev");
        assert_eq!(
            first.result, second.result,
            "seed {seed}: ScenarioResult diverged between identical runs"
        );
        assert_eq!(first.fingerprint, second.fingerprint, "seed {seed}");
        assert!(
            first.result.violations.is_empty(),
            "seed {seed}: tiny scenario violated its invariants: {:?}",
            first.result.violations
        );
        assert!(first.result.ok > 0, "seed {seed}: no request succeeded");
    }
}

/// First run misses, identical re-run hits for every scenario, `force`
/// bypasses the cache, and editing a scenario's declared data re-runs
/// only that scenario.
#[test]
fn fingerprint_cache_accounting() {
    let history = temp_history("cache");
    let mut a = suite::tiny(11);
    a.name = "cache_a".to_string();
    let mut b = suite::tiny(12);
    b.name = "cache_b".to_string();
    let scenarios = vec![a, b];
    let opts = SuiteOptions {
        history_path: history.clone(),
        ..SuiteOptions::default()
    };

    let first = run_suite(&scenarios, &opts);
    assert_eq!(first.cache_misses, 2, "bootstrap run executes everything");
    assert_eq!(first.cache_hits, 0);
    assert!(!first.failed);

    let second = run_suite(&scenarios, &opts);
    assert_eq!(second.cache_hits, 2, "unchanged suite is answered from cache");
    assert_eq!(second.cache_misses, 0);
    assert!(!second.failed);
    for entry in &second.entries {
        assert_eq!(entry.cache, CacheState::Hit, "{}", entry.name);
        assert!(entry.headline_qps > 0.0, "{}: cached qps lost", entry.name);
    }

    let forced = run_suite(
        &scenarios,
        &SuiteOptions {
            force: true,
            history_path: history.clone(),
            ..SuiteOptions::default()
        },
    );
    assert_eq!(forced.cache_misses, 2, "--force ignores the cache");

    // Editing one scenario's declared data (here: the seed) invalidates
    // exactly that scenario's fingerprint.
    let mut edited = suite::tiny(13);
    edited.name = "cache_b".to_string();
    let third = run_suite(&[scenarios[0].clone(), edited], &opts);
    assert_eq!(third.cache_hits, 1);
    assert_eq!(third.cache_misses, 1);

    let _ = std::fs::remove_file(&history);
}

/// The substring filter (the `SCENARIO_FILTER` contract) narrows the
/// suite without touching the skipped scenarios' history.
#[test]
fn name_filter_narrows_the_suite() {
    let history = temp_history("filter");
    let mut a = suite::tiny(21);
    a.name = "filter_keep".to_string();
    let mut b = suite::tiny(22);
    b.name = "filter_drop".to_string();
    let summary = run_suite(
        &[a, b],
        &SuiteOptions {
            history_path: history.clone(),
            filter: Some("keep".to_string()),
            ..SuiteOptions::default()
        },
    );
    assert_eq!(summary.entries.len(), 1);
    assert_eq!(summary.entries[0].name, "filter_keep");
    let _ = std::fs::remove_file(&history);
}

/// A deliberately-broken scenario (ErrorFree declared over traffic that
/// contains unknown-document requests) must fail — both on a live run and
/// again when its failing row is answered from the fingerprint cache.
#[test]
fn invariant_failures_propagate() {
    let run = run_scenario(&suite::broken(5), "broken-rev");
    assert!(
        !run.result.violations.is_empty(),
        "the broken scenario must report violations"
    );
    assert!(
        run.result
            .violations
            .iter()
            .any(|v| v.starts_with("error_free:")),
        "violations must name the declared invariant: {:?}",
        run.result.violations
    );

    let history = temp_history("broken");
    let opts = SuiteOptions {
        history_path: history.clone(),
        ..SuiteOptions::default()
    };
    let scenarios = vec![suite::broken(5)];
    let live = run_suite(&scenarios, &opts);
    assert!(live.failed, "a violated invariant must fail the suite");
    let cached = run_suite(&scenarios, &opts);
    assert_eq!(cached.cache_hits, 1);
    assert!(
        cached.failed,
        "a cached failing row must still fail the suite"
    );
    let _ = std::fs::remove_file(&history);
}

/// The declared adversarial scenario: every tampered record rejected with
/// the session still usable, every replayed record rejected by the
/// sequence check, and every workload error a stable WS1xx code.
#[test]
fn adversarial_scenario_rejects_attacks_ws1xx_only() {
    let scenario = suite::smoke()
        .into_iter()
        .find(|s| s.name == "adversarial_replay_tamper")
        .expect("the smoke suite declares the adversarial scenario");
    let spec = scenario.adversarial.expect("adversarial spec");
    let run = run_scenario(&scenario, "adv-rev");
    assert!(
        run.result.violations.is_empty(),
        "adversarial violations: {:?}",
        run.result.violations
    );
    assert_eq!(run.result.tamper_rejected, spec.tampers as u64);
    assert_eq!(run.result.replay_rejected, spec.replays as u64);
    assert_eq!(
        run.result.adversarial_attempts,
        (spec.tampers + spec.replays) as u64
    );
    assert!(
        run.result.errors > 0,
        "the mix contains secret probes and missing docs, so errors must appear"
    );
    for (code, count) in &run.result.error_codes {
        assert!(
            code.len() == 5 && code.starts_with("WS1"),
            "non-WS1xx error code {code} ({count} occurrence(s))"
        );
    }
}

/// The `BENCH_scenarios.json` row shape: every consumer-facing key is
/// present, the row round-trips through the JSON parser, and the leading
/// key stays `name` (history diffs key on it).
#[test]
fn result_row_schema_is_stable() {
    let run = run_scenario(&suite::tiny(31), "schema-rev");
    let row = websec_scenarios::orchestrator::result_row(&run, "schema-rev");
    let parsed = Json::parse(&row.render()).expect("row renders as valid JSON");

    const KEYS: [&str; 24] = [
        "name",
        "seed",
        "fingerprint",
        "rev",
        "requests",
        "ok",
        "errors",
        "error_codes",
        "view_digest",
        "revocation_updates",
        "stale_after_revocation",
        "tamper_rejected",
        "replay_rejected",
        "adversarial_attempts",
        "uddi_digest",
        "uddi_ops",
        "mining_rules",
        "mining_digest",
        "gate_probes",
        "gate_rejections",
        "violations",
        "serial_qps",
        "headline_qps",
        "points",
    ];
    for key in KEYS {
        assert!(parsed.get(key).is_some(), "missing row key '{key}'");
    }
    let object = parsed.as_object().expect("row is an object");
    assert_eq!(object.len(), KEYS.len(), "undeclared extra keys in the row");
    assert_eq!(object[0].0, "name", "rows are keyed by name first");

    assert_eq!(parsed.get("name").and_then(Json::as_str), Some("tiny"));
    assert_eq!(parsed.get("rev").and_then(Json::as_str), Some("schema-rev"));
    assert_eq!(parsed.get("requests").and_then(Json::as_u64), Some(48));
    assert_eq!(
        parsed.get("fingerprint").and_then(Json::as_str).map(str::len),
        Some(16),
        "fingerprints are 16 hex chars"
    );
    assert!(
        parsed
            .get("violations")
            .and_then(Json::as_array)
            .is_some_and(<[Json]>::is_empty),
        "tiny passes, so the recorded violations are empty"
    );
    let points = parsed.get("points").and_then(Json::as_array).expect("points");
    assert_eq!(points.len(), 1, "tiny sweeps one worker width");
    assert_eq!(points[0].get("workers").and_then(Json::as_u64), Some(2));
    assert!(points[0].get("qps").and_then(Json::as_f64).is_some());
}

/// The history file itself keeps the `{"bench": "scenarios", "rows": []}`
/// envelope and survives a load/save round trip byte-for-byte.
#[test]
fn history_file_round_trips() {
    let history_path = temp_history("roundtrip");
    let mut scenario = suite::tiny(41);
    scenario.name = "roundtrip".to_string();
    let opts = SuiteOptions {
        history_path: history_path.clone(),
        ..SuiteOptions::default()
    };
    let _ = run_suite(&[scenario], &opts);

    let text = std::fs::read_to_string(&history_path).expect("history written");
    let parsed = Json::parse(&text).expect("history is valid JSON");
    assert_eq!(
        parsed.get("bench").and_then(Json::as_str),
        Some("scenarios"),
        "history envelope names the bench"
    );
    let rows = parsed.get("rows").and_then(Json::as_array).expect("rows");
    assert_eq!(rows.len(), 1);

    let reloaded = History::parse(&text).expect("history parses");
    assert_eq!(reloaded.render(), text, "render/parse round trip is exact");
    let _ = std::fs::remove_file(&history_path);
}
