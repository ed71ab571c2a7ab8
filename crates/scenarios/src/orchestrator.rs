//! The end-to-end suite driver: cache lookups, runs, history appends,
//! trend gating, and report rendering — the loop `check.sh` and the
//! `websec-scenarios` binary sit on.

use std::path::PathBuf;

use crate::cache::{History, TrendVerdict};
use crate::json::Json;
use crate::report::render_report;
use crate::runner::{run_scenario, ScenarioRun};
use crate::scenario::{CacheState, Scenario};

/// Options for one [`run_suite`] invocation.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// History file read for cache/trend state and appended with new rows.
    pub history_path: PathBuf,
    /// Where to render the HTML report (skipped when `None`).
    pub report_path: Option<PathBuf>,
    /// Case-sensitive substring filter over scenario names.
    pub filter: Option<String>,
    /// Whether trend regressions fail the suite.
    pub gate_trend: bool,
    /// Fraction of the history median the current run must clear.
    pub trend_floor: f64,
    /// Run everything even on a fingerprint match.
    pub force: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            history_path: PathBuf::from("BENCH_scenarios.json"),
            report_path: None,
            filter: None,
            gate_trend: false,
            trend_floor: 0.5,
            force: false,
        }
    }
}

/// One scenario's outcome within a suite run.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Scenario name.
    pub name: String,
    /// Whether the fingerprint cache answered it.
    pub cache: CacheState,
    /// The fingerprint the scenario resolved to.
    pub fingerprint: String,
    /// Headline throughput (recorded row on a hit, fresh run on a miss).
    pub headline_qps: f64,
    /// Invariant violations (from the recorded row on a hit).
    pub violations: Vec<String>,
    /// Trend verdict against the prior history.
    pub trend: TrendVerdict,
}

/// The outcome of a whole suite run.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Per-scenario outcomes, in suite order.
    pub entries: Vec<SuiteEntry>,
    /// Scenarios answered from the fingerprint cache.
    pub cache_hits: usize,
    /// Scenarios actually run.
    pub cache_misses: usize,
    /// Whether any scenario failed (violations, or a trend regression
    /// when gating is on).
    pub failed: bool,
}

/// Best-effort current workspace revision: walks up from the working
/// directory to a `.git`, resolves `HEAD` through one level of ref
/// indirection (including packed refs), and falls back to `"unknown"`.
/// Only used as a cache-busting fingerprint ingredient — correctness
/// never depends on it.
#[must_use]
pub fn workspace_rev() -> String {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
                let head = head.trim();
                if let Some(reference) = head.strip_prefix("ref: ") {
                    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
                        return short(sha.trim());
                    }
                    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                        for line in packed.lines() {
                            if let Some(sha) = line.strip_suffix(reference) {
                                return short(sha.trim());
                            }
                        }
                    }
                    return "unknown".to_string();
                }
                return short(head);
            }
            return "unknown".to_string();
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn short(sha: &str) -> String {
    sha.chars().take(12).collect()
}

fn round1(value: f64) -> f64 {
    (value * 10.0).round() / 10.0
}

/// Builds the history row for one completed run (also the shape the
/// JSON-schema test locks down).
#[must_use]
pub fn result_row(run: &ScenarioRun, rev: &str) -> Json {
    let result = &run.result;
    let error_codes = Json::Obj(
        result
            .error_codes
            .iter()
            .map(|(code, count)| (code.clone(), Json::int(*count)))
            .collect(),
    );
    let violations = Json::Arr(result.violations.iter().map(|v| Json::str(v)).collect());
    let points = Json::Arr(
        run.perf
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("workers", Json::int(p.workers as u64)),
                    ("qps", Json::Num(round1(p.qps))),
                    ("coalesced", Json::int(p.coalesced)),
                    ("shed", Json::int(p.shed)),
                    ("errors", Json::int(p.errors)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("name", Json::str(&result.name)),
        ("seed", Json::int(result.seed)),
        ("fingerprint", Json::str(&run.fingerprint)),
        ("rev", Json::str(rev)),
        ("requests", Json::int(result.requests as u64)),
        ("ok", Json::int(result.ok)),
        ("errors", Json::int(result.errors)),
        ("error_codes", error_codes),
        ("view_digest", Json::str(&result.view_digest)),
        ("revocation_updates", Json::int(result.revocation_updates)),
        ("stale_after_revocation", Json::int(result.stale_after_revocation)),
        ("tamper_rejected", Json::int(result.tamper_rejected)),
        ("replay_rejected", Json::int(result.replay_rejected)),
        ("adversarial_attempts", Json::int(result.adversarial_attempts)),
        ("uddi_digest", Json::str(&result.uddi_digest)),
        ("uddi_ops", Json::int(result.uddi_ops)),
        ("mining_rules", Json::int(result.mining_rules)),
        ("mining_digest", Json::str(&result.mining_digest)),
        ("gate_probes", Json::int(result.gate_probes)),
        ("gate_rejections", Json::int(result.gate_rejections)),
        ("violations", violations),
        ("serial_qps", Json::Num(round1(run.perf.serial_qps))),
        ("headline_qps", Json::Num(round1(run.perf.headline_qps))),
        ("points", points),
    ])
}

/// Runs a suite: for each (filtered) scenario, answers from the
/// fingerprint cache when the latest history row matches, runs and
/// appends a row otherwise; gates violations (always) and trend
/// regressions (when `gate_trend`); saves the history when it grew and
/// renders the report when a path is configured.
#[must_use]
pub fn run_suite(scenarios: &[Scenario], opts: &SuiteOptions) -> SuiteSummary {
    let rev = workspace_rev();
    let mut history = History::load(&opts.history_path);
    let mut entries = Vec::new();
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut failed = false;

    for scenario in scenarios {
        if let Some(filter) = &opts.filter {
            if !scenario.name.contains(filter.as_str()) {
                continue;
            }
        }
        let fingerprint = scenario.fingerprint(&rev);
        let entry = if !opts.force && history.cached(&scenario.name, &fingerprint) {
            cache_hits += 1;
            let latest = history.rows_for(&scenario.name).last().copied().cloned();
            let headline_qps = latest
                .as_ref()
                .and_then(|row| row.get("headline_qps"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let violations = latest
                .as_ref()
                .and_then(|row| row.get("violations"))
                .and_then(Json::as_array)
                .map(|rows| {
                    rows.iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            let trend = history.trend(&scenario.name, headline_qps, opts.trend_floor, true);
            SuiteEntry {
                name: scenario.name.clone(),
                cache: CacheState::Hit,
                fingerprint,
                headline_qps,
                violations,
                trend,
            }
        } else {
            cache_misses += 1;
            let run = run_scenario(scenario, &rev);
            history.append_row(result_row(&run, &rev));
            let trend =
                history.trend(&scenario.name, run.perf.headline_qps, opts.trend_floor, true);
            SuiteEntry {
                name: scenario.name.clone(),
                cache: CacheState::Miss,
                fingerprint: run.fingerprint,
                headline_qps: run.perf.headline_qps,
                violations: run.result.violations,
                trend,
            }
        };
        if !entry.violations.is_empty() {
            failed = true;
        }
        if opts.gate_trend && entry.trend.regressed() {
            failed = true;
        }
        entries.push(entry);
    }

    if cache_misses > 0 {
        history
            .save(&opts.history_path)
            .expect("write scenario history");
    }
    if let Some(report_path) = &opts.report_path {
        std::fs::write(report_path, render_report(&history)).expect("write scenario report");
    }

    SuiteSummary {
        entries,
        cache_hits,
        cache_misses,
        failed,
    }
}
