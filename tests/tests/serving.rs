//! The concurrent serving layer end to end: parallel batches agree with a
//! serial run byte-for-byte, every publication starts with an empty
//! policy-view cache, sessions are reused across requests, and the unified
//! error codes are stable at the API boundary.

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

const SUBJECTS: usize = 16;
/// Master-key seed byte for the stack under test (`[MASTER_KEY_SEED; 32]`).
const MASTER_KEY_SEED: u8 = 3;
/// Concurrency shape of the revocation race tests, named so a failure log
/// states the exact configuration to reproduce under.
const RACE_READERS: usize = SUBJECTS / 2;
const RACE_ITERATIONS: usize = 300;
const RACE_BATCH: usize = 2048;
const RACE_WORKERS: usize = 4;

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

fn build_stack() -> SecureWebStack {
    let mut stack = SecureWebStack::new([MASTER_KEY_SEED; 32]);
    let mut xml = String::from("<hospital>");
    for i in 0..40 {
        xml.push_str(&format!(
            "<patient id=\"p{i}\"><name>N{i}</name><record>r{i}</record></patient>"
        ));
    }
    xml.push_str("</hospital>");
    stack.add_document(
        "records.xml",
        Document::parse(&xml).unwrap(),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.add_document(
        "secret.xml",
        Document::parse("<ops><plan>atlantis</plan></ops>").unwrap(),
        ContextLabel::fixed(Level::Secret),
    );
    // Half the subjects are doctors with a portion grant; the rest have no
    // authorization and receive empty views.
    for d in 0..SUBJECTS / 2 {
        stack.policies.add(Authorization::for_subject(SubjectSpec::Identity(format!("subject-{d}"))).on(ObjectSpec::Portion {
                document: "records.xml".into(),
                path: Path::parse("//patient").unwrap(),
            }).privilege(Privilege::Read).grant());
    }
    stack.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("secret.xml".into())).privilege(Privilege::Read).grant());
    stack
}

/// ≥1k mixed allow/deny/error requests across many subjects.
fn build_requests(n: usize) -> Vec<QueryRequest> {
    (0..n)
        .map(|i| {
            let subject = SubjectProfile::new(&format!("subject-{}", i % SUBJECTS));
            if i % 9 == 4 {
                // Clearance-denied probe of the classified document.
                QueryRequest::for_doc("secret.xml")
                    .path(Path::parse("//plan").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else if i % 11 == 7 {
                // Unknown document: a WS101 error.
                QueryRequest::for_doc("missing.xml")
                    .path(Path::parse("//x").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else {
                QueryRequest::for_doc("records.xml")
                    .path(Path::parse(&format!("//patient[@id='p{}']", i % 40)).unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            }
        })
        .collect()
}

/// The tentpole's correctness bar: a parallel batch over ≥8 threads returns,
/// position for position, exactly what a serial run returns.
#[test]
fn parallel_batch_matches_serial_run() {
    let requests = build_requests(1024);

    let serial_server = StackServer::new(build_stack());
    let serial: Vec<_> = requests.iter().map(|r| serial_server.serve(r)).collect();

    let parallel_server = StackServer::new(build_stack());
    let response = parallel_server.serve_batch(&BatchRequest::new(requests.clone()).workers(8));
    assert_eq!(response.stats.workers, 8);
    assert_eq!(response.stats.admitted, requests.len());
    assert_eq!(response.stats.shed, 0);
    let parallel = response.results;

    assert_eq!(serial.len(), parallel.len());
    let mut allowed = 0;
    let mut denied = 0;
    let mut errored = 0;
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        match (s, p) {
            (Ok(sr), Ok(pr)) => {
                assert_eq!(sr.xml, pr.xml, "request {i}: payload diverged");
                assert_eq!(sr.decision, pr.decision, "request {i}: decision diverged");
                allowed += 1;
            }
            // Cache status and timings legitimately differ between runs;
            // errors must agree on the stable code.
            (Err(se), Err(pe)) => {
                assert_eq!(se.code(), pe.code(), "request {i}: error code diverged");
                if se.code() == "WS102" {
                    denied += 1;
                } else {
                    errored += 1;
                }
            }
            _ => panic!("request {i}: serial and parallel disagree on success"),
        }
    }
    // The workload really is mixed.
    assert!(allowed > 700, "allowed={allowed}");
    assert!(denied > 80, "denied={denied}");
    assert!(errored > 60, "errored={errored}");

    let metrics = parallel_server.metrics();
    assert_eq!(metrics.requests, 1024);
    assert_eq!(metrics.allowed, allowed);
    assert_eq!(metrics.denied, denied);
    assert_eq!(metrics.errors, errored);
    assert_no_sync_findings();
}

/// A policy mutation through `update` publishes a snapshot with an empty
/// view cache; the next request recomputes under the new policy.
#[test]
fn policy_mutation_invalidates_cached_views() {
    let server = StackServer::new(build_stack());
    let request = QueryRequest::for_doc("records.xml")
        .path(Path::parse("//patient[@id='p1']").unwrap())
        .subject(&SubjectProfile::new("subject-0"))
        .clearance(Clearance(Level::Unclassified));

    let first = server.serve(&request).unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert!(first.xml.contains("p1"));
    let second = server.serve(&request).unwrap();
    assert_eq!(second.cache, CacheStatus::Hit);
    assert!(server.metrics().cached_views > 0);

    server.update(|stack| {
        stack.policies.add(Authorization::for_subject(SubjectSpec::Identity("subject-0".into())).on(ObjectSpec::Portion {
                document: "records.xml".into(),
                path: Path::parse("//patient").unwrap(),
            }).privilege(Privilege::Read).id(1).deny());
    });
    assert_eq!(
        server.metrics().cached_views,
        0,
        "stale views survived the update"
    );

    let third = server.serve(&request).unwrap();
    assert_eq!(third.cache, CacheStatus::Miss, "served from a stale view");
    assert!(
        !third.xml.contains("p1"),
        "revoked subject still sees the portion: {}",
        third.xml
    );
    assert_no_sync_findings();
}

/// One handshake per subject: a burst from few subjects establishes few
/// sessions and reuses them for every later request.
#[test]
fn sessions_are_established_once_per_subject() {
    let server = StackServer::new(build_stack());
    let requests = build_requests(300);
    for request in &requests {
        let _ = server.serve(request);
    }
    let metrics = server.metrics();
    assert_eq!(metrics.sessions_open, SUBJECTS as u64);
    assert_eq!(metrics.sessions_established, SUBJECTS as u64);
    assert_eq!(
        metrics.session_reuses,
        300 - SUBJECTS as u64,
        "every request after the first per subject must reuse its session"
    );
    assert!(metrics.cache_hits > 0);
    assert!(metrics.latency.count >= metrics.allowed);
    assert_no_sync_findings();
}

fn doctor_request(d: usize, patient: usize) -> QueryRequest {
    QueryRequest::for_doc("records.xml")
        .path(Path::parse(&format!("//patient[@id='p{patient}']")).unwrap())
        .subject(&SubjectProfile::new(&format!("subject-{d}")))
        .clearance(Clearance(Level::Unclassified))
}

/// Revokes every doctor grant in one publication.
fn revoke_doctors(server: &StackServer) -> usize {
    server.update(|stack| {
        stack.policies.revoke_matching(|a| {
            matches!(&a.subject, SubjectSpec::Identity(id) if id.starts_with("subject-"))
        })
    })
}

/// The revocation race the per-snapshot cache answers: policy views
/// are cached per shard (L2), a revocation lands mid-traffic via
/// `update(&self)`, and **no request that starts after `update` returns
/// may be served a stale view** — on any shard. Readers observe a flag
/// the writer sets only after `update` returns, so "started after the
/// bump" is well-defined.
#[test]
fn concurrent_revocation_never_serves_stale_views_past_the_epoch_bump() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = StackServer::new(build_stack());
    // Warm every doctor's cached view so revocation has state to invalidate
    // (the doctors hash across the server's shards).
    for d in 0..RACE_READERS {
        let warm = server.serve(&doctor_request(d, 1)).unwrap();
        assert!(warm.xml.contains("p1"), "{}", warm.xml);
    }
    assert!(server.metrics().cached_views > 0);

    let revoked = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let revoked = &revoked;
        let readers: Vec<_> = (0..RACE_READERS)
            .map(|d| {
                scope.spawn(move || {
                    let request = doctor_request(d, 1);
                    let mut stale_after_bump = 0u32;
                    let mut saw_revoked = false;
                    for _ in 0..RACE_ITERATIONS {
                        let bumped_before_start = revoked.load(Ordering::SeqCst);
                        let response = server.serve(&request).unwrap();
                        if response.xml.is_empty() {
                            saw_revoked = true;
                        } else if bumped_before_start {
                            stale_after_bump += 1;
                        }
                        std::thread::yield_now();
                    }
                    (stale_after_bump, saw_revoked)
                })
            })
            .collect();
        scope.spawn(move || {
            // Let readers populate their worker-local caches first.
            std::thread::yield_now();
            assert_eq!(revoke_doctors(server), RACE_READERS);
            revoked.store(true, Ordering::SeqCst);
        });
        for (d, reader) in readers.into_iter().enumerate() {
            let (stale_after_bump, saw_revoked) = reader.join().unwrap();
            assert_eq!(
                stale_after_bump, 0,
                "subject-{d} was served a stale cached view after the revocation \
                 (readers={RACE_READERS}, iterations={RACE_ITERATIONS}, \
                  master_key_seed={MASTER_KEY_SEED})"
            );
            assert!(
                saw_revoked,
                "subject-{d} never observed the revocation \
                 (readers={RACE_READERS}, iterations={RACE_ITERATIONS}, \
                  master_key_seed={MASTER_KEY_SEED})"
            );
        }
    });

    // The batch path agrees, across all shards and both cache levels.
    let requests: Vec<QueryRequest> = (0..RACE_READERS).map(|d| doctor_request(d, 1)).collect();
    let batch = BatchRequest::new(requests).workers(RACE_WORKERS);
    for result in server.serve_batch(&batch).results {
        let response = result.unwrap();
        assert!(response.xml.is_empty(), "stale view: {}", response.xml);
    }
    assert_no_sync_findings();
}

/// A revocation landing in the middle of `serve_batch` must partition the
/// batch into valid answers only: every response is either the full
/// pre-revocation view or the empty post-revocation view — never a torn or
/// cache-incoherent mixture — and everything served after the batch sees
/// the revoked state.
#[test]
fn revocation_mid_batch_yields_only_valid_answers() {
    let server = StackServer::new(build_stack());
    let batch = BatchRequest::new(
        (0..RACE_BATCH)
            .map(|i| doctor_request(i % RACE_READERS, i % 40))
            .collect(),
    )
    .workers(RACE_WORKERS);

    let results = std::thread::scope(|scope| {
        let server = &server;
        let writer = scope.spawn(move || {
            std::thread::yield_now();
            revoke_doctors(server)
        });
        let results = server.serve_batch(&batch).results;
        assert_eq!(writer.join().unwrap(), RACE_READERS);
        results
    });

    for (i, result) in results.into_iter().enumerate() {
        let response = result.unwrap();
        let expected = format!("p{}", i % 40);
        assert!(
            response.xml.is_empty() || response.xml.contains(&expected),
            "request {i}: torn answer (batch={RACE_BATCH}, workers={RACE_WORKERS}, \
             master_key_seed={MASTER_KEY_SEED}): {}",
            response.xml
        );
    }
    // Post-batch, the revocation is fully visible on every shard.
    for d in 0..RACE_READERS {
        assert!(server.serve(&doctor_request(d, 1)).unwrap().xml.is_empty());
    }
    assert_no_sync_findings();
}

/// The unified error type reports stable WS1xx codes at the API boundary.
#[test]
fn error_codes_are_stable_at_the_boundary() {
    let server = StackServer::new(build_stack());
    let subject = SubjectProfile::new("subject-0");

    let unknown = QueryRequest::for_doc("missing.xml")
        .path(Path::parse("//x").unwrap())
        .subject(&subject)
        .clearance(Clearance(Level::Unclassified));
    let err = server.serve(&unknown).unwrap_err();
    assert_eq!(err.code(), "WS101");
    assert!(err.to_string().starts_with("[WS101]"));

    let overreach = QueryRequest::for_doc("secret.xml")
        .path(Path::parse("//plan").unwrap())
        .subject(&subject)
        .clearance(Clearance(Level::Unclassified));
    assert_eq!(server.serve(&overreach).unwrap_err().code(), "WS102");

    let pathless = QueryRequest::for_doc("records.xml")
        .subject(&subject)
        .clearance(Clearance(Level::Unclassified));
    assert_eq!(server.serve(&pathless).unwrap_err().code(), "WS105");
    assert_no_sync_findings();
}

/// The denied ancestors a view keeps as structure carry their name only:
/// a subject granted `//name` alone is served neither the patient's `ssn`
/// nor the root's `budget`, on the direct path (interpreted view) and from
/// the server (compiled view, then its cached copy).
#[test]
fn served_shells_carry_no_attributes() {
    let mut stack = SecureWebStack::new([MASTER_KEY_SEED; 32]);
    stack.add_document(
        "h.xml",
        Document::parse(
            "<hospital budget=\"9\"><patient id=\"p1\" ssn=\"123\"><name>Alice</name><record>flu</record></patient></hospital>",
        )
        .unwrap(),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.policies.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Portion {
                document: "h.xml".into(),
                path: Path::parse("//name").unwrap(),
            })
            .privilege(Privilege::Read)
            .grant(),
    );
    let request = QueryRequest::for_doc("h.xml")
        .path(Path::parse("//name").unwrap())
        .subject(&SubjectProfile::new("clerk"))
        .clearance(Clearance(Level::Unclassified));
    let expected = "<hospital><patient><name>Alice</name></patient></hospital>";
    assert_eq!(stack.execute(&request).unwrap().xml, expected);
    let server = StackServer::new(stack);
    let first = server.serve(&request).unwrap();
    let second = server.serve(&request).unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert_eq!(second.cache, CacheStatus::Hit);
    for response in [first, second] {
        assert_eq!(response.xml, expected);
        assert!(!response.xml.contains("ssn") && !response.xml.contains("budget"));
    }
    assert_no_sync_findings();
}
