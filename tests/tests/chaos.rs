//! Chaos suite for the sharded serving engine: a seeded fault-schedule
//! sweep plus exact-counter assertions against deterministic schedules.
//!
//! The sweep's contract, per seed: under an armed [`FaultPlan`] every
//! batch position is either **byte-identical to the fault-free reference**
//! or a stable `WS1xx` error — never a wrong document, never a view of a
//! replaced snapshot — and once the plan is cleared the server serves
//! cleanly again (retries with backoff absorb the residual poisoned
//! sessions).
//!
//! **Replaying a failing seed**: every assertion message carries the seed.
//! Set `CHAOS_SEEDS` to sweep fewer/more seeds (default 200; `check.sh`
//! runs tier-1 with 25); to chase one failure, re-run with the plan for
//! that seed — the schedule is a pure function of it.

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

/// Seeds swept by default; override with the `CHAOS_SEEDS` env knob.
const DEFAULT_CHAOS_SEEDS: u64 = 200;

const CHAOS_SUBJECTS: usize = 4;
const CHAOS_PATIENTS: usize = 8;
const CHAOS_REQUESTS: usize = 32;

fn chaos_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEEDS)
        .max(1)
}

fn build_stack() -> SecureWebStack {
    let mut stack = SecureWebStack::new([9u8; 32]);
    let mut xml = String::from("<ward>");
    for i in 0..CHAOS_PATIENTS {
        xml.push_str(&format!("<patient id=\"p{i}\"><record>r{i}</record></patient>"));
    }
    xml.push_str("</ward>");
    stack.add_document(
        "ward.xml",
        Document::parse(&xml).unwrap(),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.add_document(
        "secret.xml",
        Document::parse("<ops><plan>atlantis</plan></ops>").unwrap(),
        ContextLabel::fixed(Level::Secret),
    );
    for d in 0..CHAOS_SUBJECTS {
        stack.policies.add(Authorization::for_subject(SubjectSpec::Identity(format!("subject-{d}"))).on(ObjectSpec::Portion {
                document: "ward.xml".into(),
                path: Path::parse("//patient").unwrap(),
            }).privilege(Privilege::Read).grant());
    }
    stack.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("secret.xml".into())).privilege(Privilege::Read).grant());
    stack
}

/// A fixed mixed workload: authorized ward queries, clearance-denied
/// probes (`WS102`), and unknown-document errors (`WS101`).
fn build_requests() -> Vec<QueryRequest> {
    (0..CHAOS_REQUESTS)
        .map(|i| {
            let subject = SubjectProfile::new(&format!("subject-{}", i % CHAOS_SUBJECTS));
            if i % 9 == 4 {
                QueryRequest::for_doc("secret.xml")
                    .path(Path::parse("//plan").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else if i % 11 == 7 {
                QueryRequest::for_doc("missing.xml")
                    .path(Path::parse("//x").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else {
                QueryRequest::for_doc("ward.xml")
                    .path(Path::parse(&format!("//patient[@id='p{}']", i % CHAOS_PATIENTS)).unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            }
        })
        .collect()
}

/// A per-seed plan with at least four rule kinds spanning all four
/// injection layers: always channel drops, cache evictions, and scoped
/// worker panics, plus one rotating extra (tamper / lock-poison /
/// slow-eval). Every parameter derives from the seed, so a failing seed
/// replays its exact plan.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = SecureRng::seeded(seed ^ 0xC0DE_FA17);
    let panicking_subject = format!("subject-{}", rng.gen_range(CHAOS_SUBJECTS as u64));
    let mut plan = FaultPlan::seeded(seed)
        .rule(
            FaultRule::new(FaultKind::ChannelDrop)
                .on(FaultSchedule::Random { permille: 150 }),
        )
        .rule(
            FaultRule::new(FaultKind::CacheEvict)
                .on(FaultSchedule::Random { permille: 250 }),
        )
        .rule(
            FaultRule::new(FaultKind::WorkerPanic)
                .for_subject(&panicking_subject)
                .on(FaultSchedule::Nth {
                    every: 4 + rng.gen_range(4),
                    offset: rng.next_u64(),
                }),
        );
    plan = match rng.gen_range(3) {
        0 => plan.rule(
            FaultRule::new(FaultKind::ChannelTamper)
                .on(FaultSchedule::Random { permille: 100 }),
        ),
        1 => plan.rule(FaultRule::new(FaultKind::LockPoison).on(FaultSchedule::Nth {
            every: 5 + rng.gen_range(3),
            offset: rng.next_u64(),
        })),
        _ => plan.rule(
            FaultRule::new(FaultKind::SlowEval {
                ticks: 1 + rng.gen_range(3),
            })
            .on(FaultSchedule::Random { permille: 200 }),
        ),
    };
    plan
}

/// Regression oracle for the concurrency-correctness layer: when the
/// suite runs with `WEBSEC_LOCKDEP=1`, every test must finish with zero
/// `WS110`/`WS111` findings (with detection off the list is empty by
/// construction, so the assertion is free).
fn assert_no_sync_findings() {
    let findings = websec_core::sync::lockdep_findings();
    assert!(
        findings.is_empty(),
        "lockdep/race detector reported findings:\n{}",
        findings
            .iter()
            .map(websec_core::sync::SyncFinding::machine_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn assert_ws1xx(code: &str, seed: u64, i: usize) {
    const STABLE: [&str; 8] = [
        "WS101", "WS102", "WS103", "WS104", "WS105", "WS106", "WS107", "WS108",
    ];
    assert!(
        STABLE.contains(&code),
        "seed {seed}, request {i}: unstable error code {code}"
    );
}

/// The tentpole sweep: for every seed, a faulted batch yields only correct
/// responses or `WS1xx` errors; the injected multiset is replayable; a
/// revocation under fire never leaks a stale view; and the server self-heals
/// once the plan is cleared.
#[test]
fn seeded_fault_sweep_yields_only_ws1xx_or_correct_answers() {
    let requests = build_requests();
    let reference_server = StackServer::new(build_stack());
    let reference: Vec<_> = requests.iter().map(|r| reference_server.serve(r)).collect();
    let doctor_requests: Vec<QueryRequest> = requests
        .iter()
        .filter(|r| r.doc_name() == "ward.xml")
        .cloned()
        .collect();

    let seeds = chaos_seeds();
    let mut total_injected = 0u64;
    let mut total_faulted_errors = 0u64;
    for seed in 0..seeds {
        let mut rng = SecureRng::seeded(seed ^ 0x5EED);
        let workers = 1 + rng.gen_range(4) as usize;
        let plan = plan_for(seed);
        assert!(plan.rules().len() >= 4, "seed {seed}: plan lost rules");

        let server = StackServer::new(build_stack());
        let injector = server.install_faults(plan.clone());
        let results = server
            .serve_batch(&BatchRequest::new(requests.clone()).workers(workers))
            .results;

        for (i, (faulted, expected)) in results.iter().zip(reference.iter()).enumerate() {
            match faulted {
                Ok(got) => {
                    // A fault may fail a request, never falsify one: an Ok
                    // under injection must match the fault-free reference.
                    let want = expected.as_ref().unwrap_or_else(|e| {
                        panic!(
                            "seed {seed}, request {i} ({workers} workers): injection turned \
                             error {e} into a success"
                        )
                    });
                    assert_eq!(
                        got.xml, want.xml,
                        "seed {seed}, request {i} ({workers} workers): wrong document served"
                    );
                    assert_eq!(
                        got.decision, want.decision,
                        "seed {seed}, request {i} ({workers} workers): decision diverged"
                    );
                }
                Err(e) => {
                    assert_ws1xx(e.code(), seed, i);
                    total_faulted_errors += 1;
                }
            }
        }
        total_injected += injector.fired_total();

        // Determinism spot-check: two serial runs of the same plan against
        // the same workload inject the same fault multiset AND produce the
        // same outcome vector, request for request. (Serial, because under
        // a multi-worker batch the *number* of cache/eval events depends on
        // which worker claims which request — only the fate per event is
        // fixed.)
        if seed % 4 == 0 {
            let serial = || {
                let replay_server = StackServer::new(build_stack());
                let replay = replay_server.install_faults(plan.clone());
                let outcomes: Vec<Result<(String, Decision), String>> = requests
                    .iter()
                    .map(|r| {
                        replay_server
                            .serve(r)
                            .map(|ok| (ok.xml, ok.decision))
                            .map_err(|e| e.code().to_string())
                    })
                    .collect();
                (replay.fired_counts(), outcomes)
            };
            let (first_fired, first_outcomes) = serial();
            let (second_fired, second_outcomes) = serial();
            assert_eq!(
                first_fired, second_fired,
                "seed {seed}: fault schedule did not replay across serial runs"
            );
            assert_eq!(
                first_outcomes, second_outcomes,
                "seed {seed}: serial outcome vector did not replay"
            );
        }

        // Self-heal: with the plan cleared, bounded retries absorb any
        // residual poisoned session and every answer matches the reference.
        server.clear_faults();
        let policy = RetryPolicy::new(4).backoff_range(1, 16).jitter_seed(seed);
        for (i, (request, expected)) in requests.iter().zip(reference.iter()).enumerate() {
            match (server.serve_with_retry(request, &policy), expected) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(
                        got.xml, want.xml,
                        "seed {seed}, request {i}: post-clear answer diverged"
                    );
                    assert_eq!(got.decision, want.decision, "seed {seed}, request {i}");
                }
                (Err(got), Err(want)) => assert_eq!(
                    got.code(),
                    want.code(),
                    "seed {seed}, request {i}: post-clear error code diverged"
                ),
                (got, want) => panic!(
                    "seed {seed}, request {i}: cleared server disagrees with reference \
                     (got {got:?}, want {want:?})"
                ),
            }
        }

        // Revocation under fire: re-arm the plan, revoke every ward grant,
        // and demand that no request served after the publication sees the
        // revoked portion — faults may fail requests, not resurrect views.
        server.install_faults(plan);
        server.update(|stack| {
            stack.policies.revoke_matching(|a| {
                matches!(&a.subject, SubjectSpec::Identity(id) if id.starts_with("subject-"))
            })
        });
        let post_revoke = server
            .serve_batch(&BatchRequest::new(doctor_requests.clone()).workers(workers));
        for (i, result) in post_revoke.results.iter().enumerate() {
            match result {
                Ok(response) => assert!(
                    response.xml.is_empty(),
                    "seed {seed}, request {i}: stale view served past the revocation: {}",
                    response.xml
                ),
                Err(e) => assert_ws1xx(e.code(), seed, i),
            }
        }
    }
    assert!(
        total_injected > 0,
        "the sweep never injected a fault across {seeds} seeds"
    );
    assert!(
        total_faulted_errors > 0,
        "the sweep never surfaced a faulted request across {seeds} seeds"
    );
    assert_no_sync_findings();
}

fn ward_request(subject: &str, patient: usize) -> QueryRequest {
    QueryRequest::for_doc("ward.xml")
        .path(Path::parse(&format!("//patient[@id='p{patient}']")).unwrap())
        .subject(&SubjectProfile::new(subject))
        .clearance(Clearance(Level::Unclassified))
}

/// `Until(n)` models a transient outage: exactly the first `n` requests of
/// the scoped stream fail, and every counter agrees with the schedule.
#[test]
fn until_schedule_injects_exactly_the_scheduled_drops() {
    let server = StackServer::new(build_stack());
    let injector = server.install_faults(FaultPlan::seeded(11).rule(
        FaultRule::new(FaultKind::ChannelDrop)
            .for_subject("subject-0")
            .on(FaultSchedule::Until(3)),
    ));
    for i in 0..6 {
        let result = server.serve(&ward_request("subject-0", 1));
        if i < 3 {
            assert_eq!(result.unwrap_err().code(), "WS103", "request {i}");
        } else {
            assert!(result.unwrap().xml.contains("p1"), "request {i}");
        }
    }
    // An unscoped subject never matches the rule.
    assert!(server.serve(&ward_request("subject-1", 1)).is_ok());
    assert_eq!(injector.fired(0), 3);
    assert_eq!(injector.fired_total(), 3);
    let m = server.metrics();
    assert_eq!(m.faults_injected, 3);
    assert_eq!(m.errors, 3);
    assert_eq!(m.allowed, 4);
    assert_no_sync_findings();
}

/// An injected slowdown exhausts a tick budget (`WS107`) exactly once; the
/// same slowdown leaves unbudgeted and generously budgeted requests alone.
#[test]
fn slow_eval_exhausts_the_deadline_budget_exactly() {
    let server = StackServer::new(build_stack());
    server.install_faults(
        FaultPlan::seeded(12)
            .rule(FaultRule::new(FaultKind::SlowEval { ticks: 10 }).on(FaultSchedule::Always)),
    );
    let err = server
        .serve(&ward_request("subject-0", 1).deadline_ticks(5))
        .unwrap_err();
    assert_eq!(err.code(), "WS107");
    assert_eq!(server.logical_now(), 10, "clock advances only by the injected ticks");

    // No budget: the slowdown costs ticks but the request succeeds.
    assert!(server.serve(&ward_request("subject-0", 1)).is_ok());
    // A budget wider than the slowdown also succeeds.
    assert!(server
        .serve(&ward_request("subject-0", 1).deadline_ticks(100))
        .is_ok());
    let m = server.metrics();
    assert_eq!(m.deadline_exceeded, 1);
    assert_eq!(m.faults_injected, 3);
    assert_eq!(server.logical_now(), 30);
    assert_no_sync_findings();
}

/// Admission control sheds exactly the positional tail past
/// `depth × workers` with `WS108`, before any evaluation starts.
#[test]
fn admission_control_sheds_the_exact_tail() {
    let server = StackServer::new(build_stack());
    server.set_queue_limit(4);
    assert_eq!(server.queue_limit(), 4);
    let requests: Vec<QueryRequest> = (0..64)
        .map(|i| ward_request(&format!("subject-{}", i % CHAOS_SUBJECTS), i % CHAOS_PATIENTS))
        .collect();
    let response = server.serve_batch(&BatchRequest::new(requests.clone()).workers(2));
    assert_eq!(response.stats.admitted, 8);
    assert_eq!(response.stats.shed, 56);
    for (i, result) in response.results.iter().enumerate() {
        if i < 8 {
            assert!(result.is_ok(), "admitted request {i} failed: {result:?}");
        } else {
            let err = result.as_ref().unwrap_err();
            assert_eq!(err.code(), "WS108", "request {i} was not shed");
            assert!(err.is_transient(), "shed requests must be retryable");
        }
    }
    let m = server.metrics();
    assert_eq!(m.shed, 56);
    assert_eq!(m.errors, 56);
    assert_eq!(m.allowed, 8);

    // Lifting the limit re-admits the full batch; the shed counter is
    // cumulative and must not move.
    server.set_queue_limit(0);
    let readmitted = server.serve_batch(&BatchRequest::new(requests).workers(2));
    assert!(readmitted.results.iter().all(Result::is_ok));
    assert_eq!(server.metrics().shed, 56);
    assert_no_sync_findings();
}

/// Bounded retries with decorrelated backoff ride out a transient outage:
/// the first attempts fail, the fault clears mid-sequence, and the final
/// attempt succeeds — with a bit-reproducible backoff trace.
#[test]
fn retries_with_backoff_succeed_once_the_fault_clears() {
    let run = || {
        let server = StackServer::new(build_stack());
        server.install_faults(FaultPlan::seeded(13).rule(
            FaultRule::new(FaultKind::ChannelDrop).on(FaultSchedule::Until(2)),
        ));
        let policy = RetryPolicy::new(4).backoff_range(2, 32).jitter_seed(7);
        let response = server
            .serve_with_retry(&ward_request("subject-0", 2), &policy)
            .expect("the third attempt runs after the outage clears");
        assert!(response.xml.contains("p2"));
        let m = server.metrics();
        assert_eq!(m.retries, 2, "two backoffs before the succeeding attempt");
        assert_eq!(m.errors, 2);
        assert_eq!(m.allowed, 1);
        assert_eq!(m.faults_injected, 2);
        server.logical_now()
    };
    let first_clock = run();
    assert!(first_clock > 0, "backoffs must advance the logical clock");
    assert_eq!(run(), first_clock, "the backoff trace must replay exactly");
    assert_no_sync_findings();
}

/// A zero-budget deadline stops the retry loop with `WS107` instead of
/// burning attempts: the backoff pushes the clock past the deadline.
#[test]
fn retry_loop_respects_the_deadline_budget() {
    let server = StackServer::new(build_stack());
    server.install_faults(FaultPlan::seeded(14).rule(
        FaultRule::new(FaultKind::ChannelDrop).on(FaultSchedule::Always),
    ));
    let policy = RetryPolicy::new(10).backoff_range(4, 8).jitter_seed(1);
    let err = server
        .serve_with_retry(&ward_request("subject-0", 3).deadline_ticks(2), &policy)
        .unwrap_err();
    assert_eq!(err.code(), "WS107");
    let m = server.metrics();
    assert_eq!(m.deadline_exceeded, 1);
    assert!(
        m.retries < 10,
        "the deadline must cut the sequence short, not exhaust attempts (retries={})",
        m.retries
    );
    assert_no_sync_findings();
}

/// The WS106 self-heal regression under injection: an injected worker
/// panic poisons the session, the next request degrades and evicts, the
/// one after re-establishes — and a cleared plan restores clean service.
#[test]
fn injected_worker_panic_degrades_to_ws106_and_self_heals() {
    let server = StackServer::new(build_stack());
    server.install_faults(FaultPlan::seeded(15).rule(
        FaultRule::new(FaultKind::WorkerPanic)
            .for_subject("subject-0")
            .on(FaultSchedule::At(0)),
    ));
    // The panic unwinds into the batch boundary and poisons the session.
    assert_eq!(
        server.serve(&ward_request("subject-0", 4)).unwrap_err().code(),
        "WS106"
    );
    // The poisoned session degrades once more and is evicted.
    assert_eq!(
        server.serve(&ward_request("subject-0", 4)).unwrap_err().code(),
        "WS106"
    );
    // Re-established cleanly; the At(0) schedule never fires again.
    let healed = server.serve(&ward_request("subject-0", 4)).unwrap();
    assert!(healed.xml.contains("p4"));
    let m = server.metrics();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.faults_injected, 1);
    assert!(m.sessions_established >= 2, "eviction must force a re-handshake");

    server.clear_faults();
    let policy = RetryPolicy::new(3);
    let clean = server
        .serve_with_retry(&ward_request("subject-0", 4), &policy)
        .unwrap();
    assert!(clean.xml.contains("p4"));
    assert_no_sync_findings();
}

/// Channel tampering runs the channel's real MAC rejection and the session
/// survives (sequence numbers rewind, modelling retransmission).
#[test]
fn injected_tamper_is_rejected_and_the_session_stays_usable() {
    let server = StackServer::new(build_stack());
    server.install_faults(FaultPlan::seeded(16).rule(
        FaultRule::new(FaultKind::ChannelTamper)
            .for_subject("subject-1")
            .on(FaultSchedule::At(1)),
    ));
    assert!(server.serve(&ward_request("subject-1", 5)).is_ok());
    let err = server.serve(&ward_request("subject-1", 5)).unwrap_err();
    assert_eq!(err.code(), "WS103");
    assert!(err.is_transient());
    // The session is not poisoned by a tampered record: the next request
    // reuses it and succeeds.
    let after = server.serve(&ward_request("subject-1", 5)).unwrap();
    assert!(after.xml.contains("p5"));
    let m = server.metrics();
    assert_eq!(m.faults_injected, 1);
    assert_eq!(m.sessions_established, 1, "tampering must not cost the session");
    assert_no_sync_findings();
}
