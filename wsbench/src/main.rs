//! The serving stack's benchmark: four seeded workloads over the read and
//! update paths, each checked against an oracle.
//!
//! ```text
//! websec-wsbench --workload <hot_reads|cold_reads|revocations|gated_updates|all>
//!                [--seed N] [--seconds N] [--trace 0|1]
//! websec-wsbench --spread <results file>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The process
//! exits non-zero when any outcome check fails. `NOTES.md` describes the
//! workloads, the metrics, and how to run them.

mod load;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use websec_scenarios::json::Json;

use run::{Metric, RunResult};
use workloads::Kind;

const USAGE: &str = "usage: websec-wsbench --workload <hot_reads|cold_reads|revocations|\
                     gated_updates|all> [--seed N] [--seconds N] [--trace 0|1]\n       \
                     websec-wsbench --spread <file of result lines>";

/// What the command line asked for.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        traced: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A finite JSON number (a metric of a failed run may be infinite).
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { f64::MAX })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_string(),
                    Json::obj(vec![("value", num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", metrics),
    ])
    .render()
}

/// Runs this executable on one workload in a process of its own, waits for
/// it, and returns what it printed before its result line, and the result.
fn child(args: &Args, workload: &str, traced: bool) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    let json = Json::parse(last).map_err(|e| format!("{workload} printed no result: {e}"))?;
    Ok((report.to_string(), json))
}

/// Runs the workload untraced and returns its end-to-end metrics (the
/// traced run's baseline).
fn untraced_baseline(args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let (_, json) = child(args, &args.workload, false)?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err("the untraced baseline failed its outcome checks".into());
    }
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default();
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Tracing overhead: the geometric mean, over update latency and the
/// inverse of capacity, of traced over untraced, as a percentage above 1.
fn trace_overhead(traced: &[Metric], untraced: &BTreeMap<String, f64>) -> (f64, Vec<String>) {
    let mut log_sum = 0.0;
    let mut n = 0;
    let mut parts = Vec::new();
    for (name, value, _) in traced {
        let Some(&base) = untraced.get(*name) else {
            continue;
        };
        let ratio = match *name {
            "read_capacity_rps" => base / value,
            "update_p50_ms" => value / base,
            _ => continue,
        };
        if ratio.is_finite() && ratio > 0.0 {
            log_sum += ratio.ln();
            n += 1;
            parts.push(format!("{name} {ratio:.4}"));
        }
    }
    let pct = if n > 0 {
        ((log_sum / n as f64).exp() - 1.0) * 100.0
    } else {
        0.0
    };
    (pct, parts)
}

fn print_table(rows: &[Metric], ungated: &[Metric]) {
    println!("{:<36} {:>18}  unit", "metric", "value");
    for (name, value, unit) in rows {
        println!("{name:<36} {value:>18.4}  {unit}");
    }
    for (name, value, unit) in ungated {
        println!("{name:<36} {value:>18.4}  {unit} (not gated)");
    }
}

fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let baseline = if args.traced {
        Some(untraced_baseline(args)?)
    } else {
        None
    };
    let workers = run::workers();
    let result: RunResult = run::run(kind, args.seed, args.seconds as f64, args.traced);
    println!(
        "websec-wsbench: workload {} seed {} seconds {} trace {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut metrics = if args.traced {
        result.layers.clone()
    } else {
        result.e2e.clone()
    };
    let mut record = vec![
        ("workload", Json::str(kind.name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::int(args.seconds)),
        ("nproc", Json::int(workers as u64)),
        ("batch_workers", Json::int(workers as u64)),
        (
            "git_revision",
            Json::str(&websec_scenarios::workspace_rev()),
        ),
    ];
    for (key, value) in &result.facts {
        record.push((key, Json::str(value)));
    }
    if let Some(baseline) = &baseline {
        let (pct, parts) = trace_overhead(&result.e2e, baseline);
        metrics.push(("trace.overhead_pct", pct, "%"));
        record.push(("trace_overhead_ratios", Json::str(&parts.join(", "))));
        for line in &result.breakdown {
            println!("{line}");
        }
        let path = PathBuf::from(format!(
            "wsbench/out/spans-{}-seed{}.json",
            kind.name(),
            args.seed
        ));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, result.spans.to_json()));
        match written {
            Ok(()) => record.push(("spans_file", Json::str(&path.display().to_string()))),
            Err(e) => eprintln!(
                "websec-wsbench: spans not written to {}: {e}",
                path.display()
            ),
        }
    }
    let ungated: &[Metric] = if args.traced { &[] } else { &result.ungated };
    print_table(&metrics, ungated);
    println!("{:<36} {:>18}", "ops", result.attempted);
    println!("{:<36} {:>18}", "ops_failed", result.failed);
    for failure in &result.failures {
        eprintln!("websec-wsbench: FAILED {failure}");
    }
    println!("record {}", Json::obj(record).render());
    let correct = result.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            result.attempted,
            result.failed,
            metrics_json(&metrics)
        )
    );
    Ok(correct)
}

/// Runs every workload, each in its own process, and prints one row per
/// workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut rows: Vec<(Kind, Json)> = Vec::new();
    for kind in Kind::ALL {
        let (report, json) = child(args, kind.name(), args.traced)?;
        println!("{report}");
        rows.push((kind, json));
    }
    let names: Vec<(String, String)> = rows
        .first()
        .and_then(|(_, j)| j.get("metrics")?.as_object())
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    print!("{:<14}", "workload");
    for (name, unit) in &names {
        print!(" {:>22}", format!("{name} [{unit}]"));
    }
    println!(" {:>10} {:>10}", "ops", "ops_failed");
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut all_metrics = Vec::new();
    for (kind, json) in &rows {
        print!("{:<14}", kind.name());
        for (name, unit) in &names {
            let value = json
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            print!(" {value:>22.4}");
            all_metrics.push((
                format!("{}.{name}", kind.name()),
                Json::obj(vec![("value", num(value)), ("unit", Json::str(unit))]),
            ));
        }
        let ops = json.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let bad = json.get("failed").and_then(Json::as_u64).unwrap_or(0);
        println!(" {ops:>10} {bad:>10}");
        attempted += ops;
        failed += bad;
        correct &= json.get("correct") == Some(&Json::Bool(true));
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, Json::Obj(all_metrics))
    );
    Ok(correct)
}

/// Median, quartiles and spread of every metric over a file of result
/// lines (one run per line; other lines are skipped).
fn spread(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        let Some(metrics) = json.get("metrics").and_then(Json::as_object) else {
            continue;
        };
        runs += 1;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    println!("{runs} runs");
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>9}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, v) in &values {
        let mid = stats::median(v).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let s = stats::spread(v).unwrap_or(f64::NAN);
        println!("{name:<36} {mid:>14.4} {q1:>14.4} {q3:>14.4} {s:>9.4}");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("--spread") {
        match argv.get(1) {
            Some(path) => spread(path),
            None => Err("--spread needs a file".into()),
        }
    } else {
        parse_args(&argv).and_then(|args| match args.workload.as_str() {
            "all" => run_all(&args),
            name => match Kind::parse(name) {
                Some(kind) => run_one(kind, &args),
                None => Err(format!("unknown workload {name}")),
            },
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("websec-wsbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
