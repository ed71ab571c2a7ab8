//! One workload, end to end: set-up, the rounds, the outcome check, and the
//! metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use websec_core::analyzer::{verify_policies, PolicyVerifyInput};
use websec_core::prelude::*;

use crate::load::{closed_loop, open_loop, Clock, Outcome, ReadLog};
use crate::stats::{interquartile_mean, median, Summary};
use crate::trace::{Recorder, SpanId};
use crate::workloads::{active_after, apply, plan, set_up, Kind, Oracle, Pacing, Plan, Read};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run reports.
pub struct RunResult {
    /// End-to-end metrics (always measured; reported by the untraced run).
    pub e2e: Vec<Metric>,
    /// End-to-end figures printed for reading but left out of the result
    /// line: they do not hold still enough across runs to gate on.
    pub ungated: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Operations attempted: reads, policy changes and probes.
    pub attempted: u64,
    /// Operations whose outcome differed from the oracle or the plan.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Run facts for the record line (sample counts, tails, offered load).
    pub facts: Vec<(&'static str, String)>,
    /// Self-time breakdown lines of the traced run.
    pub breakdown: Vec<String>,
    /// The spans (empty unless traced).
    pub spans: Recorder,
}

/// Reads a `Vm*` line of `/proc/self/status`, in MB.
pub fn vm_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Batch workers: one per core, read at run time.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What the policy-change client produced.
#[derive(Default)]
struct UpdateLog {
    /// Latency per step in ms (open loop: from its due time); failed
    /// steps are infinite.
    latency_ms: Vec<f64>,
    /// Steps run (a prefix of the plan).
    steps: usize,
    failures: Vec<String>,
}

/// Runs the next plan steps on `server`, adding them to `log`, while
/// `keep_going` (given the steps this call has run) says so — and, with
/// `finish`, until no change is left active. With `every`, step `k` of the
/// call is due `k` intervals after the call starts (open loop).
#[allow(clippy::too_many_arguments)]
fn drive_updates(
    server: &StackServer,
    plan: &Plan,
    every: Option<Duration>,
    finish: bool,
    keep_going: &dyn Fn(usize) -> bool,
    versions: &AtomicU64,
    log: &mut UpdateLog,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) {
    let clock = Clock::start();
    let first = log.steps;
    while log.steps < plan.ops.len()
        && (keep_going(log.steps - first)
            || (finish && active_after(&plan.ops, log.steps).is_some()))
    {
        let k = log.steps;
        let op = plan.ops[k];
        let due = match every {
            Some(every) => {
                let due = u64::try_from(every.as_nanos()).unwrap_or(u64::MAX) * (k - first) as u64;
                clock.wait_until(due);
                due
            }
            None => clock.now_ns(),
        };
        versions.fetch_add(1, Ordering::SeqCst);
        let span = rec.start("server.try_update", parent, k as u64);
        let result = server.try_update(|stack| apply(stack, &plan.changes, op));
        rec.end(span);
        let done = clock.now_ns();
        versions.fetch_add(1, Ordering::SeqCst);
        let ok = match (&result, op.must_be_rejected()) {
            (Ok(()), false) => true,
            (Err(e), true) => e.code() == "WS109" && e.to_string().contains("WS014"),
            _ => false,
        };
        if ok {
            log.latency_ms.push(done.saturating_sub(due) as f64 / 1e6);
        } else {
            log.latency_ms.push(f64::INFINITY);
            log.failures.push(format!(
                "step {k} ({op:?}): {}",
                result
                    .err()
                    .map_or("accepted, must be rejected".into(), |e| e.to_string())
            ));
        }
        log.steps += 1;
    }
}

/// Checks served reads against the oracle; failed reads become infinitely
/// slow. `steps` is how many plan steps the serving server ran. Returns the
/// number of failures.
fn check_reads(
    plan: &Plan,
    reads: &[Read],
    log: &mut ReadLog,
    steps: usize,
    oracle: &mut Oracle,
    phase: &str,
    failures: &mut Vec<String>,
) -> u64 {
    let batch_of = log.batch_of_each();
    let mut failed = 0;
    for (i, read) in reads.iter().enumerate().take(log.outcomes.len()) {
        let (before, after) = log.batches[batch_of[i]].versions;
        // Steps committed before the call, and possibly during it.
        let lo = (before / 2) as usize;
        let hi = (after.div_ceil(2) as usize).min(steps);
        let got = log.outcomes[i];
        let ok = (lo..=hi.max(lo)).any(|k| {
            let active = active_after(&plan.ops, k.min(steps));
            oracle.expect(plan, read, active) == got
        });
        if !ok {
            failed += 1;
            log.latency_us[i] = f64::INFINITY;
            if failures.len() < 8 {
                failures.push(format!(
                    "{phase} read {i} ({} {} {}): served {got:?}, oracle {:?}",
                    read.subject(),
                    read.request.doc_name(),
                    read.request.query_path().map_or("", |p| p.source()),
                    oracle.expect(plan, read, active_after(&plan.ops, lo.min(steps)))
                ));
            }
        }
    }
    failed
}

/// The run's timed set-ups: total, corpus and compile seconds of each.
#[derive(Default)]
struct SetUps {
    total_s: Vec<f64>,
    corpus_s: Vec<f64>,
    compile_s: Vec<f64>,
}

impl SetUps {
    fn time(&mut self, kind: Kind, rec: &mut Recorder, parent: Option<SpanId>) -> StackServer {
        let span = rec.start("setup", parent, self.total_s.len() as u64);
        let (server, corpus, compile) = set_up(kind);
        rec.end(span);
        self.corpus_s.push(corpus);
        self.compile_s.push(compile);
        self.total_s.push(corpus + compile);
        server
    }
}

/// The per-round values of a figure, joined for the record.
fn joined(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{x:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs one workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let shape = kind.shape();
    let workers = workers();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, traced);

    // Set-ups: the first server answers the oracle and serves nothing
    // else; the last one is the reading server, the one before it the
    // capacity server where there is one, and any others are only timed.
    let mut setups = SetUps::default();
    let oracle_server = setups.time(kind, &mut rec, None);
    let t = Instant::now();
    let plan = plan(kind, seed, seconds, &oracle_server.snapshot());
    let mut oracle = Oracle::new(&plan, &oracle_server);
    let oracle_s = t.elapsed().as_secs_f64();
    drop(oracle_server);
    for _ in 2..shape.setups.max(2) {
        drop(setups.time(kind, &mut rec, None));
    }
    let apart = shape
        .capacity_server_apart()
        .then(|| setups.time(kind, &mut rec, None));
    let server = setups.time(kind, &mut rec, None);
    let rss_after_setup = vm_mb("VmRSS");

    let requests: Vec<QueryRequest> = plan.reads.iter().map(|r| r.request.clone()).collect();
    let pool: Vec<QueryRequest> = plan.pool.iter().map(|r| r.request.clone()).collect();
    // Publications on the reading server move `versions`; a server that
    // never publishes while it reads keeps `still` at zero.
    let versions = AtomicU64::new(0);
    let still = AtomicU64::new(0);
    let (cap_server, cap_versions) = match &apart {
        Some(b) => (b, &still),
        None => (&server, &versions),
    };
    // A repeating pool is served once before the rounds, so the capacity
    // slices measure the reuse they are built for, not the first misses.
    let mut warm_up = if shape.capacity_cycles {
        let all = Duration::from_secs(3600);
        let batch = shape.capacity_batch;
        closed_loop(
            cap_server,
            &pool,
            0,
            batch,
            false,
            workers,
            all,
            cap_versions,
            &mut rec,
            None,
        )
    } else {
        ReadLog::default()
    };

    let rounds = shape.rounds(seconds);
    let capacity_window = Duration::from_secs_f64(shape.round_s * shape.capacity_share);
    let mut reads = ReadLog::default();
    let mut capacity = ReadLog::default();
    let mut updates = UpdateLog::default();
    let mut capacity_rounds: Vec<(usize, usize, f64)> = Vec::new();
    let mut update_rounds: Vec<(usize, usize)> = Vec::new();
    // Publication cost on the per-round set-up servers: compile ns, count.
    let mut side_publish = (0u64, 0u64);
    let m0 = server.metrics();
    let rounds_started = Instant::now();
    for r in 0..rounds {
        let round = rec.start("round", None, r as u64);
        let side = shape
            .setup_every_round
            .then(|| setups.time(kind, &mut rec, Some(round)));
        let (a, b) = (plan.slice_starts[r], plan.slice_starts[r + 1]);
        let u0 = updates.latency_ms.len();

        // The open-loop read slice, with policy changes alongside when the
        // workload makes them there.
        let slice = if let Pacing::AlongsideEvery(every) = shape.pacing {
            let done = AtomicBool::new(false);
            let mut log = std::mem::take(&mut updates);
            let (slice, urec) = std::thread::scope(|scope| {
                let updater = scope.spawn(|| {
                    let mut urec = Recorder::new(origin, traced);
                    drive_updates(
                        &server,
                        &plan,
                        Some(every),
                        true,
                        &|_| !done.load(Ordering::SeqCst),
                        &versions,
                        &mut log,
                        &mut urec,
                        None,
                    );
                    urec
                });
                let slice = open_loop(
                    &server,
                    &requests[a..b],
                    &plan.due_ns[a..b],
                    a,
                    workers,
                    &versions,
                    &mut rec,
                    Some(round),
                );
                done.store(true, Ordering::SeqCst);
                (
                    slice,
                    updater.join().expect("policy-change client panicked"),
                )
            });
            updates = log;
            rec.absorb(urec);
            slice
        } else {
            open_loop(
                &server,
                &requests[a..b],
                &plan.due_ns[a..b],
                a,
                workers,
                &versions,
                &mut rec,
                Some(round),
            )
        };
        reads.append(slice);

        // The closed-loop capacity slice.
        let slice = closed_loop(
            cap_server,
            &pool,
            capacity.outcomes.len(),
            shape.capacity_batch,
            shape.capacity_cycles,
            workers,
            capacity_window,
            cap_versions,
            &mut rec,
            Some(round),
        );
        let c0 = capacity.outcomes.len();
        capacity_rounds.push((c0, c0 + slice.outcomes.len(), slice.elapsed_s));
        capacity.append(slice);

        // Policy changes made after the slices.
        match shape.pacing {
            Pacing::OnSetupServer(share) => {
                let side = side.as_ref().expect("a set-up every round");
                let before = side.metrics();
                let until = Instant::now() + Duration::from_secs_f64(shape.round_s * share);
                drive_updates(
                    side,
                    &plan,
                    None,
                    true,
                    &|_| Instant::now() < until,
                    &AtomicU64::new(0),
                    &mut updates,
                    &mut rec,
                    Some(round),
                );
                let published = side.metrics().delta(&before);
                side_publish.0 += published.snapshot_compile_ns;
                side_publish.1 += published.snapshot_compiles;
            }
            Pacing::After(share) => {
                let until = Instant::now() + Duration::from_secs_f64(shape.round_s * share);
                drive_updates(
                    &server,
                    &plan,
                    None,
                    true,
                    &|_| Instant::now() < until,
                    &versions,
                    &mut updates,
                    &mut rec,
                    Some(round),
                );
            }
            Pacing::Between(count) => {
                let left = (count * (r + 1) / rounds).saturating_sub(updates.steps);
                drive_updates(
                    &server,
                    &plan,
                    None,
                    false,
                    &|k| k < left,
                    &versions,
                    &mut updates,
                    &mut rec,
                    Some(round),
                );
            }
            Pacing::AlongsideEvery(_) => {}
        }
        update_rounds.push((u0, updates.latency_ms.len()));
        rec.end(round);
    }
    let rounds_s = rounds_started.elapsed().as_secs_f64();
    let m1 = server.metrics();

    // Steps the reading server ran (none when they ran on set-up servers).
    let steps = match shape.pacing {
        Pacing::OnSetupServer(_) => 0,
        _ => updates.steps,
    };
    // Probes: served one by one once the last change is in place.
    let active = active_after(&plan.ops, steps);
    let mut failures = Vec::new();
    let mut probe_failed = 0;
    for (i, read) in plan.probes.iter().enumerate() {
        let got = Outcome::of(&server.serve(&read.request));
        let want = oracle.expect(&plan, read, active);
        if got != want {
            probe_failed += 1;
            failures.push(format!(
                "probe {i} ({}): served {got:?}, oracle {want:?}",
                read.subject()
            ));
        }
    }
    let peak_rss = vm_mb("VmHWM");

    let mut failed = probe_failed;
    failed += check_reads(
        &plan,
        &plan.reads,
        &mut reads,
        steps,
        &mut oracle,
        "open-loop",
        &mut failures,
    );
    let pool_order: Vec<Read> = (0..capacity.outcomes.len().max(warm_up.outcomes.len()))
        .map(|i| plan.pool[i % plan.pool.len()].clone())
        .collect();
    for (log, name) in [(&mut warm_up, "warm-up"), (&mut capacity, "capacity")] {
        failed += check_reads(
            &plan,
            &pool_order,
            log,
            steps,
            &mut oracle,
            name,
            &mut failures,
        );
    }
    failed += updates.failures.len() as u64;
    failures.extend(updates.failures.iter().take(8).cloned());

    // Per-round values, after failed operations were made infinitely slow.
    let read_p50s: Vec<f64> = plan
        .slice_starts
        .windows(2)
        .filter_map(|w| Summary::of(&reads.latency_us[w[0]..w[1]]).map(|s| s.p50))
        .collect();
    let capacity_rps: Vec<f64> = capacity_rounds
        .iter()
        .filter(|(a, b, secs)| b > a && *secs > 0.0)
        .map(|&(a, b, secs)| {
            let ok = capacity.latency_us[a..b]
                .iter()
                .filter(|l| l.is_finite())
                .count();
            ok as f64 / secs
        })
        .collect();
    let update_p50s: Vec<f64> = match shape.pacing {
        // Whole-store changes are few: each one is a value of its own.
        Pacing::Between(_) => updates.latency_ms.clone(),
        _ => update_rounds
            .iter()
            .filter_map(|&(a, b)| Summary::of(&updates.latency_ms[a..b]).map(|s| s.p50))
            .collect(),
    };
    // Timed figures: the interquartile mean of the per-round values, which
    // follows the mix of the host's two speeds by degrees. Set-up: the
    // median set-up.
    let e2e = vec![
        ("setup_s", median(&setups.total_s).unwrap_or(0.0), "s"),
        ("peak_rss_mb", peak_rss, "MB"),
        (
            "read_capacity_rps",
            interquartile_mean(&capacity_rps).unwrap_or(0.0),
            "req/s",
        ),
        (
            "update_p50_ms",
            interquartile_mean(&update_p50s).unwrap_or(f64::INFINITY),
            "ms",
        ),
    ];
    let read_p50_us = interquartile_mean(&read_p50s).unwrap_or(f64::INFINITY);
    let read_summary = Summary::of(&reads.latency_us);
    let update_summary = Summary::of(&updates.latency_ms);
    let p90 = |s: &Option<Summary>| s.as_ref().map_or(f64::INFINITY, |s| s.p90);
    let ungated = vec![
        ("read_p50_us", read_p50_us, "us"),
        ("read_p90_us", p90(&read_summary), "us"),
        ("update_p90_ms", p90(&update_summary), "ms"),
    ];
    let tail = |s: &Option<Summary>| match s {
        Some(Summary {
            count,
            tail: Some((p, v)),
            ..
        }) => format!("p{p} = {v:.3} of {count}"),
        Some(s) => format!("none ({} samples, fewer than 20)", s.count),
        None => "none (no samples)".into(),
    };
    let p50_p90 = |s: &Option<Summary>| {
        s.as_ref()
            .map_or("-".into(), |s| format!("{:.3} / {:.3}", s.p50, s.p90))
    };
    let facts = vec![
        ("rounds", rounds.to_string()),
        ("rounds_s", format!("{rounds_s:.3}")),
        ("offered_read_rate_per_s", format!("{}", shape.read_rate)),
        ("open_loop_reads", reads.outcomes.len().to_string()),
        ("read_us_p50_p90", p50_p90(&read_summary)),
        ("read_tail_us", tail(&read_summary)),
        ("capacity_batch", shape.capacity_batch.to_string()),
        ("capacity_reads", capacity.outcomes.len().to_string()),
        ("update_steps", updates.steps.to_string()),
        ("update_ms_p50_p90", p50_p90(&update_summary)),
        ("update_tail_ms", tail(&update_summary)),
        ("probes", plan.probes.len().to_string()),
        ("plan_and_oracle_s", format!("{oracle_s:.3}")),
        ("round_read_p50_us", joined(&read_p50s)),
        ("round_capacity_rps", joined(&capacity_rps)),
        ("round_update_p50_ms", joined(&update_p50s)),
        ("setup_s_each", joined(&setups.total_s)),
    ];
    let attempted = (reads.outcomes.len()
        + warm_up.outcomes.len()
        + capacity.outcomes.len()
        + updates.latency_ms.len()
        + plan.probes.len()) as u64;

    let mut result = RunResult {
        e2e,
        ungated,
        layers: Vec::new(),
        attempted,
        failed,
        failures,
        facts,
        breakdown: Vec::new(),
        spans: Recorder::new(origin, false),
    };
    if traced {
        let publish = match shape.pacing {
            Pacing::OnSetupServer(_) => side_publish,
            _ => {
                let d = m1.delta(&m0);
                (d.snapshot_compile_ns, d.snapshot_compiles)
            }
        };
        let ctx = LayerInputs {
            kind,
            server: &server,
            plan: &plan,
            reads: &reads,
            capacity: &capacity,
            served: m1.delta(&m0),
            cached_views: m1.cached_views,
            publish,
            read_p50_us,
            update_p90_ms: update_summary.map_or(0.0, |s| s.p90),
            corpus_s: median(&setups.corpus_s).unwrap_or(0.0),
            compile_s: median(&setups.compile_s).unwrap_or(0.0),
            rss_after_setup,
            peak_rss,
        };
        let (layers, breakdown) = layer_metrics(&ctx, &mut rec);
        result.layers = layers;
        result.breakdown = breakdown;
    }
    result.spans = rec;
    result
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    kind: Kind,
    server: &'a StackServer,
    plan: &'a Plan,
    reads: &'a ReadLog,
    capacity: &'a ReadLog,
    /// The reading server's counters over the rounds.
    served: MetricsSnapshot,
    /// Views the reading server held at the end of the rounds.
    cached_views: u64,
    /// Publication compile time (ns) and count, wherever changes ran.
    publish: (u64, u64),
    /// The ungated open-loop read figure (interquartile mean of per-round
    /// medians).
    read_p50_us: f64,
    /// Whole-run p90 of the policy-change latencies.
    update_p90_ms: f64,
    corpus_s: f64,
    compile_s: f64,
    rss_after_setup: f64,
    peak_rss: f64,
}

fn p50(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters at span boundaries plus traced direct calls into each layer's
/// public functions, on a sample of the workload's own inputs, outside the
/// timed windows.
fn layer_metrics(ctx: &LayerInputs<'_>, rec: &mut Recorder) -> (Vec<Metric>, Vec<String>) {
    let reads_delta = &ctx.served;
    let mut out: Vec<Metric> = Vec::new();

    // Batch entry.
    let batch_us: Vec<f64> = ctx
        .reads
        .batches
        .iter()
        .map(|b| (b.done_ns - b.dispatch_ns) as f64 / 1e3)
        .collect();
    let waits: Vec<f64> = ctx
        .reads
        .batches
        .iter()
        .flat_map(|b| {
            ctx.reads.due_ns[b.first..b.first + b.len]
                .iter()
                .map(move |due| b.dispatch_ns.saturating_sub(*due) as f64 / 1e3)
        })
        .collect();
    out.push(("server.batch_us", p50(&batch_us), "us"));
    out.push((
        "server.batch_size",
        ratio(
            ctx.reads.outcomes.len() as f64,
            ctx.reads.batches.len() as f64,
        ),
        "count",
    ));
    out.push((
        "client.wait_us",
        Summary::of(&waits).map_or(0.0, |s| s.p90),
        "us",
    ));
    out.push(("client.read_p50_us", ctx.read_p50_us, "us"));
    out.push((
        "client.read_p90_us",
        Summary::of(&ctx.reads.latency_us).map_or(0.0, |s| s.p90),
        "us",
    ));
    out.push(("client.update_p90_ms", ctx.update_p90_ms, "ms"));

    // Scheduler, on the capacity phase's full batches.
    let cap = &ctx.capacity.batches;
    let sum = |f: fn(&BatchStats) -> u64| cap.iter().map(|b| f(&b.stats)).sum::<u64>() as f64;
    let admitted = cap.iter().map(|b| b.stats.admitted).sum::<usize>() as f64;
    out.push((
        "scheduler.coalesced_ratio",
        ratio(sum(|s| s.coalesced), admitted),
        "ratio",
    ));
    out.push((
        "scheduler.steals_per_batch",
        ratio(sum(|s| s.steals), cap.len() as f64),
        "count",
    ));
    out.push((
        "scheduler.injector_pops_per_batch",
        ratio(sum(|s| s.injector_pops), cap.len() as f64),
        "count",
    ));

    // Session table and channel (counters over both read phases).
    let requests = reads_delta.requests as f64;
    let allowed = reads_delta.allowed as f64;
    out.push((
        "session.established_ratio",
        ratio(reads_delta.sessions_established as f64, requests),
        "ratio",
    ));
    out.push((
        "session.lock_waits",
        reads_delta.session_lock_waits as f64,
        "count",
    ));

    // Traced direct calls replaying served reads layer by layer.
    let stack = ctx.server.snapshot();
    let compiled = ctx.server.compiled_policies();
    let key = ctx.kind.master_key();
    let sample: Vec<&Read> = ctx
        .plan
        .reads
        .iter()
        .zip(&ctx.reads.outcomes)
        .filter(|(_, o)| matches!(o, Outcome::Bytes { .. }))
        .map(|(r, _)| r)
        .take(400)
        .collect();
    for (i, read) in sample.iter().enumerate() {
        let op = i as u64;
        let request = &read.request;
        let profile = request.subject_profile();
        let path = request.query_path().expect("generated reads carry a path");
        let (doc_name, Some(doc)) = (request.doc_name(), stack.documents.get(request.doc_name()))
        else {
            continue;
        };
        let parent = rec.start("request.replay", None, op);
        let mut session = rec.time("session.establish", Some(parent), op, || {
            ChannelSession::establish(&key, &profile.identity, true)
        });
        let inbound = rec.time("channel.to_server", Some(parent), op, || {
            session.transit_to_server(path.source().as_bytes())
        });
        std::hint::black_box(&inbound);
        let root = doc.root();
        let decision = rec.time("compiled.check", Some(parent), op, || {
            compiled.check(profile, doc_name, root, Privilege::Read)
        });
        std::hint::black_box(&decision);
        let view = rec.time("compiled.compute_view", Some(parent), op, || {
            compiled.compute_view(profile, doc_name, doc)
        });
        let Some(view) = view else {
            rec.end(parent);
            continue;
        };
        let matched = rec.time("xml.select", Some(parent), op, || path.select_nodes(&view));
        let xml = rec.time("xml.serialize", Some(parent), op, || {
            matched
                .iter()
                .map(|&n| view.subtree_xml(n))
                .collect::<Vec<_>>()
                .join("")
        });
        let outbound = rec.time("channel.to_client", Some(parent), op, || {
            session.transit_to_client(xml.as_bytes())
        });
        std::hint::black_box(&outbound);
        rec.end(parent);
    }
    // Batch entry without the miss path: spawning and joining one no-op
    // thread the way `serve_batch` runs a one-read batch, and a one-read
    // `serve_batch` whose subject has a session and whose view is cached.
    let cached = sample.first().map(|r| r.request.clone());
    if let Some(request) = &cached {
        std::hint::black_box(ctx.server.serve(request).ok());
    }
    for i in 0..400u64 {
        rec.time("batch.spawn_join", None, i, || {
            std::thread::scope(|scope| {
                scope.spawn(|| std::hint::black_box(i));
            });
        });
        if let Some(request) = &cached {
            let batch = BatchRequest::new(vec![request.clone()]).workers(workers());
            rec.time("batch.cached_read", None, i, || {
                std::hint::black_box(ctx.server.serve_batch(&batch))
            });
        }
    }
    // A one-read batch from a subject the server has never seen: the miss
    // path as the server runs it, outside the open loop.
    for (i, read) in ctx.plan.fresh.iter().enumerate() {
        let batch = BatchRequest::new(vec![read.request.clone()]).workers(workers());
        rec.time("batch.fresh_read", None, i as u64, || {
            std::hint::black_box(ctx.server.serve_batch(&batch))
        });
    }
    let self_us = rec.self_us_by_name();
    let self_p50 = |name: &str| self_us.get(name).map_or(0.0, |v| p50(v));
    let spawn_join_us = self_p50("batch.spawn_join");
    let cached_batch_us = self_p50("batch.cached_read");
    let miss_batch_us = self_p50("batch.fresh_read");
    out.push(("server.spawn_join_us", spawn_join_us, "us"));
    out.push(("server.cached_batch_us", cached_batch_us, "us"));
    out.push(("server.miss_batch_us", miss_batch_us, "us"));
    out.push(("session.establish_us", self_p50("session.establish"), "us"));
    out.push((
        "channel.ns_per_req",
        ratio(reads_delta.layer_totals.channel_ns as f64, allowed),
        "ns",
    ));
    out.push((
        "channel.transit_us",
        self_p50("channel.to_server") + self_p50("channel.to_client"),
        "us",
    ));

    // View cache.
    let hits = (reads_delta.l1_hits + reads_delta.l2_hits) as f64;
    out.push(("cache.l1_hits", reads_delta.l1_hits as f64, "count"));
    out.push(("cache.l2_hits", reads_delta.l2_hits as f64, "count"));
    out.push(("cache.misses", reads_delta.cache_misses as f64, "count"));
    out.push((
        "cache.hit_ratio",
        ratio(hits, hits + reads_delta.cache_misses as f64),
        "ratio",
    ));
    out.push((
        "cache.lock_waits",
        reads_delta.cache_lock_waits as f64,
        "count",
    ));
    out.push(("cache.views_resident", ctx.cached_views as f64, "count"));

    // Compiled decision tables (lookup side).
    out.push((
        "compiled.views_built",
        reads_delta.compiled_hits as f64,
        "count",
    ));
    out.push((
        "compiled.view_us",
        ratio(
            reads_delta.compile_ns as f64 / 1e3,
            reads_delta.compiled_hits as f64,
        ),
        "us",
    ));
    out.push(("compiled.check_us", self_p50("compiled.check"), "us"));
    out.push((
        "compiled.compute_view_us",
        self_p50("compiled.compute_view"),
        "us",
    ));

    // Path selection and serialisation.
    out.push((
        "xml.ns_per_req",
        ratio(reads_delta.layer_totals.xml_ns as f64, allowed),
        "ns",
    ));
    out.push(("xml.select_us", self_p50("xml.select"), "us"));
    out.push(("xml.serialize_us", self_p50("xml.serialize"), "us"));
    let served: Vec<usize> = ctx
        .reads
        .outcomes
        .iter()
        .chain(&ctx.capacity.outcomes)
        .filter(|o| matches!(o, Outcome::Bytes { .. }))
        .map(|o| o.bytes())
        .collect();
    out.push((
        "xml.bytes_out",
        ratio(served.iter().sum::<usize>() as f64, served.len() as f64),
        "bytes",
    ));

    // Publication: clone, compile, and the refill it forces.
    let shape = ctx.kind.shape();
    for i in 0..shape.clone_samples {
        let copy = rec.time("state.clone", None, i as u64, || {
            (*ctx.server.snapshot()).clone()
        });
        drop(copy);
    }
    let clone_ms: Vec<f64> = rec
        .durations_us("state.clone")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    out.push(("state.clone_ms", p50(&clone_ms), "ms"));
    out.push((
        "compiled.publish_ms",
        ratio(ctx.publish.0 as f64 / 1e6, ctx.publish.1 as f64),
        "ms",
    ));
    // Cache misses per publication, where the reading server publishes
    // between or during its reads of a repeating mix.
    let overlap_misses = if shape.capacity_server_apart() {
        ratio(
            reads_delta.cache_misses as f64,
            reads_delta.snapshot_compiles as f64,
        )
    } else {
        0.0
    };
    out.push(("update.misses_after_publish", overlap_misses, "count"));

    // Analysis, counted on the reading server (where the gate runs).
    let gate_delta = reads_delta;
    if shape.analysis_traced {
        for i in 0..5u64 {
            let stack = ctx.server.snapshot();
            rec.time("analysis.ast", None, i, || {
                std::hint::black_box(stack.analyze())
            });
            rec.time("analysis.policy", None, i, || {
                let mut input = PolicyVerifyInput::new(&compiled);
                for name in stack.documents.names() {
                    if let Some(doc) = stack.documents.get(name) {
                        input.documents.push((name, doc));
                    }
                }
                std::hint::black_box(verify_policies(&input))
            });
        }
        let _ = ctx.server.analyze();
        for i in 0..5u64 {
            ctx.server.invalidate_views();
            rec.time("analysis.fingerprint", None, i, || {
                std::hint::black_box(ctx.server.analyze())
            });
        }
    }
    let dur_ms = |name: &str| p50(&rec.durations_us(name)) / 1e3;
    out.push(("analysis.ast_ms", dur_ms("analysis.ast"), "ms"));
    out.push(("analysis.policy_ms", dur_ms("analysis.policy"), "ms"));
    out.push((
        "analysis.fingerprint_ms",
        dur_ms("analysis.fingerprint"),
        "ms",
    ));
    out.push((
        "analysis.passes_run",
        gate_delta.analysis_passes_run as f64,
        "count",
    ));
    out.push((
        "analysis.passes_reused",
        gate_delta.analysis_passes_reused as f64,
        "count",
    ));
    out.push((
        "analysis.policy_passes_run",
        gate_delta.policy_passes_run as f64,
        "count",
    ));
    out.push((
        "analysis.policy_passes_reused",
        gate_delta.policy_passes_reused as f64,
        "count",
    ));
    out.push((
        "analysis.gate_denials",
        gate_delta.gate_denials as f64,
        "count",
    ));

    // Set-up and memory.
    out.push(("setup.corpus_s", ctx.corpus_s, "s"));
    out.push(("setup.compile_s", ctx.compile_s, "s"));
    out.push(("setup.rss_mb", ctx.rss_after_setup, "MB"));
    out.push(("mem.growth_mb", ctx.peak_rss - ctx.rss_after_setup, "MB"));

    // The per-read account: the open-loop batch against a cached one-read
    // batch plus the replayed miss-path layers; what is left is reported
    // as unattributed.
    let mut breakdown = vec![format!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "self p50 us", "self sum ms"
    )];
    for (name, values) in &self_us {
        if *name == "round" || *name == "setup" {
            continue;
        }
        breakdown.push(format!(
            "{name:<24} {:>8} {:>12.2} {:>12.2}",
            values.len(),
            p50(values),
            values.iter().sum::<f64>() / 1e3
        ));
    }
    // The view build consults the decision tables itself, so the traced
    // root `check` is reported on its own and not added here.
    let miss_path: f64 = [
        "session.establish",
        "compiled.compute_view",
        "xml.select",
        "xml.serialize",
    ]
    .iter()
    .map(|name| self_p50(name))
    .sum();
    let read_p50 = p50(&ctx.reads.latency_us);
    let batch_p50 = p50(&batch_us);
    let wait_p50 = p50(&waits);
    breakdown.push(format!(
        "read latency p50 {read_p50:.1} us: dispatch wait p50 {wait_p50:.1} us, serve_batch p50 \
         {batch_p50:.1} us (batches of {:.2} reads on up to {} workers)",
        ratio(
            ctx.reads.outcomes.len() as f64,
            ctx.reads.batches.len() as f64
        ),
        workers(),
    ));
    // Only where every read misses does a batch pay the whole miss path.
    if ctx.kind == Kind::ColdReads {
        breakdown.push(format!(
            "serve_batch p50 {batch_p50:.1} us = one-read miss batch {miss_batch_us:.1} us + \
             open-loop remainder {:.1} us (unattributed)",
            batch_p50 - miss_batch_us
        ));
        breakdown.push(format!(
            "one-read miss batch {miss_batch_us:.1} us = cached one-read batch \
             {cached_batch_us:.1} us (spawn and join of one thread alone: {spawn_join_us:.1} us) \
             + replayed miss path {miss_path:.1} us (handshake, view build, select, serialize) \
             + unattributed {:.1} us",
            miss_batch_us - cached_batch_us - miss_path
        ));
    }
    breakdown.push(format!(
        "in-server counters per allowed read: view build {:.1} us (compile_ns / compiled_hits), \
         channel {:.1} us, xml {:.1} us; replayed: view build {:.1} us, channel both ways {:.1} us",
        ratio(
            reads_delta.compile_ns as f64 / 1e3,
            reads_delta.compiled_hits as f64
        ),
        ratio(reads_delta.layer_totals.channel_ns as f64 / 1e3, allowed),
        ratio(reads_delta.layer_totals.xml_ns as f64 / 1e3, allowed),
        self_p50("compiled.compute_view"),
        self_p50("channel.to_server") + self_p50("channel.to_client"),
    ));
    (out, breakdown)
}
