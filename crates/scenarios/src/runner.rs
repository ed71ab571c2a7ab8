//! Executes one [`Scenario`] against a live `StackServer`.
//!
//! A run has a fixed phase order:
//!
//! 1. **Workload generation** — the traffic recipe is lowered to concrete
//!    requests from the scenario seed (bit-reproducible).
//! 2. **Oracle pass** — a fault-free server serves the batch serially;
//!    its per-position outcomes are the equivalence reference.
//! 3. **Configured serial pass** — a server with the declared fault plan
//!    installed serves the same batch serially (serial fault replay is
//!    deterministic, so this pass supplies every counter and digest in
//!    [`ScenarioResult`]).
//! 4. **Batch rounds** — the declared worker sweep runs `serve_batch`
//!    rounds; each round's positions are verified against the oracle in
//!    parallel (violations funnel through the `scenarios.violations`
//!    tracked lock). Timings feed [`ScenarioPerf`] only.
//! 5. **Optional phases** — revocation storm, adversarial channel
//!    attacks, UDDI churn replay, mining pipeline replay, and the
//!    analysis-gate probe (a WS014-conflicting policy mutation that the
//!    `Deny` gate must reject without publishing).
//!
//! Determinism contract: [`ScenarioResult`] is byte-identical across runs
//! of the same `(scenario, seed)` for a passing scenario — it draws only
//! from serial passes and seeded sub-pipelines. Parallel batch rounds can
//! only *add violations* (and a failing parallel run is already a bug to
//! chase), while all wall-clock numbers live in [`ScenarioPerf`], which
//! is excluded from the determinism comparison.

use std::time::Instant;

use crate::corpus::hospital_stack;
use crate::scenario::{
    AdversarialSpec, Invariant, MiningSpec, RevocationStorm, Scenario, ScenarioResult,
    UddiChurn, Warmup,
};
use websec_core::prelude::*;
use websec_core::{fnv1a, FNV1A_START};

/// Threads used to verify a batch response against the oracle.
const VERIFY_THREADS: usize = 4;
/// Seed salt for the UDDI churn stream (distinct from workload drawing).
const UDDI_SALT: u64 = 0x7564_6469;
/// Seed salt for the mining pipeline stream.
const MINING_SALT: u64 = 0x6d69_6e65;
/// Seed salt for adversarial channel keys.
const ADVERSARIAL_SALT: u64 = 0x6164_7665;

/// One measured point of the worker sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// Worker count of this point.
    pub workers: usize,
    /// Best measured queries/sec at this point.
    pub qps: f64,
    /// Coalesced evaluations in the best round.
    pub coalesced: u64,
    /// Requests shed by admission control in the best round.
    pub shed: u64,
    /// Error positions in the best round.
    pub errors: u64,
}

/// Wall-clock numbers for one run. Perf is measured, not declared — two
/// runs of the same scenario legitimately differ here, which is why the
/// trend gate compares against a *median of history* rather than a single
/// prior run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioPerf {
    /// Queries/sec of the configured serial pass.
    pub serial_qps: f64,
    /// Queries/sec at the last (widest) worker point.
    pub headline_qps: f64,
    /// The full sweep.
    pub points: Vec<PerfPoint>,
}

/// The outcome of [`run_scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario's fingerprint at the revision the run was made for.
    pub fingerprint: String,
    /// The deterministic result (invariants, counters, digests).
    pub result: ScenarioResult,
    /// The measured perf numbers.
    pub perf: ScenarioPerf,
}

/// A serial outcome: served bytes or a stable error code.
type Outcome = Result<String, String>;

fn serve_serial(server: &StackServer, requests: &[QueryRequest]) -> Vec<Outcome> {
    requests
        .iter()
        .map(|request| match server.serve(request) {
            Ok(response) => Ok(response.xml),
            Err(error) => Err(error.code().to_string()),
        })
        .collect()
}

fn qps(n: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

fn is_ws1xx(code: &str) -> bool {
    code.len() == 5 && code.starts_with("WS1") && code[3..].bytes().all(|b| b.is_ascii_digit())
}

fn digest_outcomes(outcomes: &[Outcome]) -> String {
    let mut hash = FNV1A_START;
    for outcome in outcomes {
        match outcome {
            Ok(xml) => {
                hash = fnv1a(b"O", hash);
                hash = fnv1a(xml.as_bytes(), hash);
            }
            Err(code) => {
                hash = fnv1a(b"E", hash);
                hash = fnv1a(code.as_bytes(), hash);
            }
        }
    }
    format!("{hash:016x}")
}

/// Runs one scenario and returns its fingerprint, deterministic result,
/// and measured perf.
#[must_use]
pub fn run_scenario(scenario: &Scenario, workspace_rev: &str) -> ScenarioRun {
    let fingerprint = scenario.fingerprint(workspace_rev);
    let mut rng = SecureRng::seeded(scenario.seed);
    let requests = scenario
        .traffic
        .generate(&scenario.corpus, scenario.requests, &mut rng);

    let make_config = || match scenario.queue_limit {
        Some(depth) => ServerConfig::new().queue_limit(depth),
        None => ServerConfig::new(),
    };
    let build_server = |faulted: bool| {
        let server = StackServer::with_config(hospital_stack(&scenario.corpus), make_config());
        if faulted {
            if let Some(plan) = &scenario.fault_plan {
                let _ = server.install_faults(plan.clone());
            }
        }
        server
    };

    // Phase 2: the fault-free serial oracle.
    let oracle_server = build_server(false);
    let oracle = serve_serial(&oracle_server, &requests);

    // Phase 3: the configured serial pass (identical to the oracle pass
    // when no fault plan is declared, but re-timed on a fresh server so
    // serial_qps always measures the declared configuration).
    let configured_server = build_server(true);
    let t = Instant::now();
    let serial_outcomes = serve_serial(&configured_server, &requests);
    let serial_qps = qps(requests.len(), t.elapsed().as_secs_f64());

    let mut violations: Vec<String> = Vec::new();
    let has = |invariant: Invariant| scenario.invariants.contains(&invariant);

    // Serial-pass invariants.
    for (i, outcome) in serial_outcomes.iter().enumerate() {
        match outcome {
            Ok(bytes) => {
                if has(Invariant::SerialEquivalence) {
                    match &oracle[i] {
                        Ok(expected) if expected == bytes => {}
                        Ok(_) => violations.push(format!(
                            "serial_equivalence: request {i} bytes diverged from the oracle"
                        )),
                        Err(code) => violations.push(format!(
                            "serial_equivalence: request {i} succeeded where the oracle failed ({code})"
                        )),
                    }
                }
            }
            Err(code) => {
                if has(Invariant::ErrorFree) {
                    violations.push(format!("error_free: request {i} failed with {code}"));
                }
                if has(Invariant::ErrorsAreWs1xx) && !is_ws1xx(code) {
                    violations.push(format!(
                        "errors_are_ws1xx: request {i} failed with non-WS1xx code {code}"
                    ));
                }
                if has(Invariant::SerialEquivalence) {
                    let matches_oracle = matches!(&oracle[i], Err(expected) if expected == code);
                    let transient = scenario.fault_plan.is_some() && is_ws1xx(code);
                    if !matches_oracle && !transient {
                        violations.push(format!(
                            "serial_equivalence: request {i} failed with {code} where the oracle did not"
                        ));
                    }
                }
            }
        }
    }

    // Phase 4: batch rounds over the worker sweep.
    let mut points = Vec::new();
    for &workers in &scenario.workers {
        let batch = BatchRequest::new(requests.clone()).workers(workers);
        let mut best: Option<(f64, BatchStats, u64)> = None;
        match scenario.warmup {
            Warmup::Warm => {
                let server = build_server(true);
                let _ = server.serve_batch(&batch);
                for _ in 0..scenario.rounds {
                    let t = Instant::now();
                    let response = server.serve_batch(&batch);
                    let secs = t.elapsed().as_secs_f64();
                    let errors =
                        verify_batch(scenario, &oracle, &response.results, &mut violations, workers);
                    let round_qps = qps(requests.len(), secs);
                    if best.as_ref().is_none_or(|(q, _, _)| round_qps > *q) {
                        best = Some((round_qps, response.stats, errors));
                    }
                }
            }
            Warmup::Cold => {
                // Unmeasured ramp-up on a throwaway server.
                let _ = build_server(true).serve_batch(&batch);
                for _ in 0..scenario.rounds {
                    let server = build_server(true);
                    let t = Instant::now();
                    let response = server.serve_batch(&batch);
                    let secs = t.elapsed().as_secs_f64();
                    let errors =
                        verify_batch(scenario, &oracle, &response.results, &mut violations, workers);
                    let round_qps = qps(requests.len(), secs);
                    if best.as_ref().is_none_or(|(q, _, _)| round_qps > *q) {
                        best = Some((round_qps, response.stats, errors));
                    }
                }
            }
        }
        if let Some((point_qps, stats, errors)) = best {
            points.push(PerfPoint {
                workers,
                qps: point_qps,
                coalesced: stats.coalesced,
                shed: stats.shed as u64,
                errors,
            });
        }
    }
    let headline_qps = points.last().map_or(serial_qps, |p| p.qps);

    // Phase 5: optional phases.
    let mut result = ScenarioResult {
        name: scenario.name.clone(),
        seed: scenario.seed,
        requests: requests.len(),
        ..ScenarioResult::default()
    };
    result.ok = serial_outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    result.errors = serial_outcomes.len() as u64 - result.ok;
    let mut codes = std::collections::BTreeMap::new();
    for outcome in &serial_outcomes {
        if let Err(code) = outcome {
            *codes.entry(code.clone()).or_insert(0u64) += 1;
        }
    }
    result.error_codes = codes.into_iter().collect();
    result.view_digest = digest_outcomes(&serial_outcomes);

    if let Some(storm) = &scenario.revocation {
        run_revocation_storm(scenario, storm, &build_server, &mut result, &mut violations);
    }
    if let Some(adversarial) = &scenario.adversarial {
        run_adversarial(scenario, adversarial, &mut result, &mut violations);
    }
    if let Some(churn) = &scenario.uddi {
        run_uddi_churn(scenario, churn, &mut result, &mut violations);
    }
    if let Some(mining) = &scenario.mining {
        run_mining(scenario, mining, &mut result, &mut violations);
    }
    if scenario.gate_probe {
        run_gate_probe(scenario, &build_server, &mut result, &mut violations);
    }

    violations.sort();
    violations.dedup();
    result.violations = violations;

    ScenarioRun {
        fingerprint,
        result,
        perf: ScenarioPerf {
            serial_qps,
            headline_qps,
            points,
        },
    }
}

/// Verifies one batch response against the oracle, in parallel: positions
/// are split across [`VERIFY_THREADS`] checkers, each funnelling its
/// findings through the `scenarios.violations` tracked lock (and bumping
/// the `scenarios.verified` counter), so the harness's own sync state is
/// visible to the lockdep/race detector like any other engine state.
/// Returns the number of error positions in the response.
fn verify_batch(
    scenario: &Scenario,
    oracle: &[Outcome],
    results: &[Result<QueryResponse, Error>],
    violations: &mut Vec<String>,
    workers: usize,
) -> u64 {
    let shared = TrackedMutex::new("scenarios.violations", Vec::<String>::new());
    let verified = TrackedAtomicU64::counter("scenarios.verified", 0);
    let errors = TrackedAtomicU64::counter("scenarios.batch_errors", 0);
    let faulted = scenario.fault_plan.is_some();
    let check_equivalence = scenario.invariants.contains(&Invariant::SerialEquivalence);
    let check_ws1xx = scenario.invariants.contains(&Invariant::ErrorsAreWs1xx);
    let check_error_free = scenario.invariants.contains(&Invariant::ErrorFree);
    let chunk = results.len().div_ceil(VERIFY_THREADS).max(1);

    std::thread::scope(|scope| {
        for (t, slice) in results.chunks(chunk).enumerate() {
            let (shared, verified, errors) = (&shared, &verified, &errors);
            scope.spawn(move || {
                use std::sync::atomic::Ordering;
                let mut local = Vec::new();
                for (off, outcome) in slice.iter().enumerate() {
                    let i = t * chunk + off;
                    verified.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(response) => {
                            if check_equivalence {
                                match &oracle[i] {
                                    Ok(expected) if *expected == response.xml => {}
                                    Ok(_) => local.push(format!(
                                        "serial_equivalence: batch x{workers} request {i} bytes \
                                         diverged from the oracle"
                                    )),
                                    Err(code) => local.push(format!(
                                        "serial_equivalence: batch x{workers} request {i} \
                                         succeeded where the oracle failed ({code})"
                                    )),
                                }
                            }
                        }
                        Err(error) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            let code = error.code();
                            if check_error_free {
                                local.push(format!(
                                    "error_free: batch x{workers} request {i} failed with {code}"
                                ));
                            }
                            if check_ws1xx && !is_ws1xx(code) {
                                local.push(format!(
                                    "errors_are_ws1xx: batch x{workers} request {i} failed with \
                                     non-WS1xx code {code}"
                                ));
                            }
                            if check_equivalence {
                                let matches_oracle =
                                    matches!(&oracle[i], Err(expected) if expected == code);
                                let transient = faulted && is_ws1xx(code);
                                if !matches_oracle && !transient {
                                    local.push(format!(
                                        "serial_equivalence: batch x{workers} request {i} failed \
                                         with {code} where the oracle did not"
                                    ));
                                }
                            }
                        }
                    }
                }
                if !local.is_empty() {
                    shared.lock().expect("scenarios.violations poisoned").extend(local);
                }
            });
        }
    });

    use std::sync::atomic::Ordering;
    let mut found: Vec<String> =
        shared.lock().expect("scenarios.violations poisoned").drain(..).collect();
    // Chunk completion order is nondeterministic; sorting here keeps the
    // final violation list stable for a fixed set of findings.
    found.sort();
    violations.extend(found);
    errors.load(Ordering::Relaxed)
}

fn run_revocation_storm(
    scenario: &Scenario,
    storm: &RevocationStorm,
    build_server: &dyn Fn(bool) -> StackServer,
    result: &mut ScenarioResult,
    violations: &mut Vec<String>,
) {
    let spec = &scenario.corpus;
    let server = build_server(false);
    let subjects = storm.subjects.max(1);
    let probe = |s: usize| {
        let p = s % spec.patients.max(1);
        (
            QueryRequest::for_doc("records.xml")
                .path(Path::parse(&format!("//patient[@id='p{p}']")).expect("valid path"))
                .subject(&SubjectProfile::new(&spec.granted_subject(s)))
                .clearance(Clearance(Level::Unclassified)),
            format!(">N{p}<"),
        )
    };

    // Pre-storm: every targeted subject must actually hold the access the
    // storm is about to revoke (otherwise the scenario proves nothing).
    for s in 0..subjects {
        let (request, marker) = probe(s);
        match server.serve(&request) {
            Ok(response) if response.xml.contains(&marker) => {}
            _ => violations.push(format!(
                "revocation: subject {} had no access before the storm",
                spec.granted_subject(s)
            )),
        }
    }

    for u in 0..storm.updates {
        let subject = spec.granted_subject(u % subjects);
        server.update(|stack| {
            stack.policies.add(
                Authorization::for_subject(SubjectSpec::Identity(subject.clone()))
                    .on(ObjectSpec::Document("records.xml".into()))
                    .privilege(Privilege::Read)
                    .deny(),
            );
        });
    }
    result.revocation_updates = storm.updates as u64;

    // Post-storm: the first serve after the committed revocation must miss the
    // view cache and must not expose revoked content.
    let mut stale = 0u64;
    for s in 0..subjects.min(storm.updates) {
        let (request, marker) = probe(s);
        match server.serve(&request) {
            Ok(response) => {
                if response.cache == CacheStatus::Hit {
                    stale += 1;
                    violations.push(format!(
                        "no_stale_after_revocation: subject {} answered from a stale cache entry",
                        spec.granted_subject(s)
                    ));
                }
                if response.xml.contains(&marker) {
                    stale += 1;
                    violations.push(format!(
                        "no_stale_after_revocation: subject {} still sees revoked content",
                        spec.granted_subject(s)
                    ));
                }
            }
            Err(error) => {
                // A denial expressed as an error is fine; it is not stale.
                if !is_ws1xx(error.code()) {
                    violations.push(format!(
                        "no_stale_after_revocation: post-storm serve failed with non-WS1xx {}",
                        error.code()
                    ));
                }
            }
        }
    }
    result.stale_after_revocation = stale;
    if !scenario.invariants.contains(&Invariant::NoStaleAfterRevocation) {
        // The stale count is still recorded, but without the declared
        // invariant it does not fail the run.
        violations.retain(|v| !v.starts_with("no_stale_after_revocation:"));
    }
}

fn run_adversarial(
    scenario: &Scenario,
    adversarial: &AdversarialSpec,
    result: &mut ScenarioResult,
    violations: &mut Vec<String>,
) {
    let master_key = [scenario.corpus.master_seed; 32];
    let mut rng = SecureRng::seeded(scenario.seed ^ ADVERSARIAL_SALT);

    let mut tamper_rejected = 0u64;
    for k in 0..adversarial.tampers {
        let mut session = ChannelSession::establish(&master_key, &format!("adv-{k}"), true);
        let payload = format!("probe-{k}-{}", rng.next_u64());
        match session.transit_to_server_tampered(payload.as_bytes()) {
            Err(_) => {
                tamper_rejected += 1;
                // The session must stay usable: the authentic retransmit
                // delivers the original payload.
                match session.transit_to_server(payload.as_bytes()) {
                    Ok(delivered) if delivered == payload.as_bytes() => {}
                    _ => violations.push(format!(
                        "adversarial: session adv-{k} unusable after a rejected tamper"
                    )),
                }
            }
            Ok(_) => violations.push(format!(
                "adversarial: tampered record {k} was delivered instead of rejected"
            )),
        }
    }

    let mut replay_rejected = 0u64;
    for k in 0..adversarial.replays {
        let mut session_key = [0u8; 32];
        rng.fill(&mut session_key);
        let mut client = SecureChannel::new(&session_key, true);
        let mut server = SecureChannel::new(&session_key, true);
        let message = format!("order-{k}");
        let record = client.seal(message.as_bytes());
        if server.open(&record).is_err() {
            violations.push(format!(
                "adversarial: authentic record {k} rejected on first delivery"
            ));
            continue;
        }
        match server.open(&record) {
            Err(_) => replay_rejected += 1,
            Ok(_) => violations.push(format!(
                "adversarial: replayed record {k} was accepted a second time"
            )),
        }
    }

    result.tamper_rejected = tamper_rejected;
    result.replay_rejected = replay_rejected;
    result.adversarial_attempts = (adversarial.tampers + adversarial.replays) as u64;
}

/// Drives the analysis-gate rejection path end to end: under
/// `AnalysisGate::Deny`, a policy mutation that flips the stack to
/// explicit-priority resolution and adds an equal-priority grant/deny
/// pair on the same portion (a textbook WS014 conflict) must be
/// rejected with `WS109`, the rejection must name `WS014`, and the
/// published snapshot must keep serving the pre-mutation bytes.
fn run_gate_probe(
    scenario: &Scenario,
    build_server: &dyn Fn(bool) -> StackServer,
    result: &mut ScenarioResult,
    violations: &mut Vec<String>,
) {
    let spec = &scenario.corpus;
    let server = build_server(false);
    server.set_analysis_gate(AnalysisGate::Deny);
    result.gate_probes = 1;

    let probe = QueryRequest::for_doc("records.xml")
        .path(Path::parse("//patient[@id='p0']").expect("valid path"))
        .subject(&SubjectProfile::new(&spec.granted_subject(0)))
        .clearance(Clearance(Level::Unclassified));
    let before = match server.serve(&probe) {
        Ok(response) => response.xml,
        Err(error) => {
            violations.push(format!(
                "gate_probe: pre-mutation probe failed with {}",
                error.code()
            ));
            return;
        }
    };

    let outcome = server.try_update(|stack| {
        stack.engine.strategy = ConflictStrategy::ExplicitPriority;
        let conflicted = |sign: bool| {
            let auth = Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "records.xml".into(),
                    path: Path::parse("//patient").expect("valid path"),
                })
                .privilege(Privilege::Read)
                .priority(3);
            if sign {
                auth.grant()
            } else {
                auth.deny()
            }
        };
        stack.policies.add(conflicted(true));
        stack.policies.add(conflicted(false));
    });
    match outcome {
        Err(error) => {
            result.gate_rejections = 1;
            if error.code() != "WS109" {
                violations.push(format!(
                    "gate_probe: rejection carried {} instead of WS109",
                    error.code()
                ));
            }
            if !error.to_string().contains("WS014") {
                violations.push(
                    "gate_probe: rejection did not name the WS014 conflict".to_string(),
                );
            }
        }
        Ok(()) => violations.push(
            "gate_probe: the Deny gate accepted a WS014-conflicting mutation".to_string(),
        ),
    }

    // The rejected update must not have published anything: the same
    // probe answers with byte-identical content.
    match server.serve(&probe) {
        Ok(response) if response.xml == before => {}
        Ok(_) => violations.push(
            "gate_probe: served bytes changed after a rejected update".to_string(),
        ),
        Err(error) => violations.push(format!(
            "gate_probe: post-rejection probe failed with {}",
            error.code()
        )),
    }
    server.set_analysis_gate(AnalysisGate::Off);
}

fn uddi_churn_pass(seed: u64, churn: &UddiChurn) -> String {
    let mut rng = SecureRng::seeded(seed);
    let mut registry = UddiRegistry::new();
    let mut hash = FNV1A_START;
    for i in 0..churn.businesses {
        registry.save_business(BusinessEntity::new(
            &format!("biz-{i}"),
            &format!("Provider {}", rng.gen_range(1000)),
        ));
    }
    let key_space = (churn.businesses * 2).max(1) as u64;
    for _ in 0..churn.ops {
        match rng.gen_range(3) {
            0 => {
                let key = format!("biz-{}", rng.gen_range(key_space));
                registry.save_business(BusinessEntity::new(
                    &key,
                    &format!("Provider {}", rng.gen_range(1000)),
                ));
                hash = fnv1a(format!("save:{key}").as_bytes(), hash);
            }
            1 => {
                let key = format!("biz-{}", rng.gen_range(key_space));
                let outcome = registry.delete_business(&key).is_ok();
                hash = fnv1a(format!("delete:{key}:{outcome}").as_bytes(), hash);
            }
            _ => {
                let prefix = format!("Provider {}", rng.gen_range(10));
                let request = InquiryRequest::find_business().name_approx(&prefix);
                let rendered = match registry.inquire(&request) {
                    Ok(response) => format!("{response:?}"),
                    Err(error) => format!("{error:?}"),
                };
                hash = fnv1a(format!("inquire:{prefix}:{rendered}").as_bytes(), hash);
            }
        }
    }
    hash = fnv1a(format!("count:{}", registry.business_count()).as_bytes(), hash);
    format!("{hash:016x}")
}

fn run_uddi_churn(
    scenario: &Scenario,
    churn: &UddiChurn,
    result: &mut ScenarioResult,
    violations: &mut Vec<String>,
) {
    let seed = scenario.seed ^ UDDI_SALT;
    let first = uddi_churn_pass(seed, churn);
    let replay = uddi_churn_pass(seed, churn);
    if first != replay {
        violations.push(format!(
            "uddi: churn replay diverged ({first} vs {replay})"
        ));
    }
    result.uddi_digest = first;
    result.uddi_ops = (churn.businesses + churn.ops) as u64;
}

fn mining_pass(seed: u64, spec: &MiningSpec) -> (u64, String) {
    let data = zipf_baskets(
        seed,
        spec.baskets,
        spec.items,
        spec.avg_len,
        f64::from(spec.s_hundredths) / 100.0,
    );
    let miner = Apriori::new(
        f64::from(spec.min_support_ppm) / 1_000_000.0,
        f64::from(spec.min_confidence_ppm) / 1_000_000.0,
    );
    let mut rules = miner.rules(&data);
    // The miner iterates hash maps internally; sort so the digest is a
    // function of the rule *set*, not of iteration order.
    rules.sort_by(|a, b| {
        (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent))
    });
    let mut hash = FNV1A_START;
    for rule in &rules {
        hash = fnv1a(
            format!(
                "{:?}=>{:?}:{:016x}:{:016x}",
                rule.antecedent,
                rule.consequent,
                rule.support.to_bits(),
                rule.confidence.to_bits()
            )
            .as_bytes(),
            hash,
        );
    }
    (rules.len() as u64, format!("{hash:016x}"))
}

fn run_mining(
    scenario: &Scenario,
    spec: &MiningSpec,
    result: &mut ScenarioResult,
    violations: &mut Vec<String>,
) {
    let seed = scenario.seed ^ MINING_SALT;
    let (rules, digest) = mining_pass(seed, spec);
    let (replay_rules, replay_digest) = mining_pass(seed, spec);
    if digest != replay_digest || rules != replay_rules {
        violations.push(format!(
            "mining: pipeline replay diverged ({digest} vs {replay_digest})"
        ));
    }
    result.mining_rules = rules;
    result.mining_digest = digest;
}
