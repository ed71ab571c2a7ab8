//! Claim-storm suite for the batch scheduler: every worker claims from
//! one shared `fetch_add` cursor over the batch's schedule, so a claiming
//! mistake would surface as a lost or doubled request — or, under
//! `WEBSEC_LOCKDEP=1`, as a `WS110`/`WS111` finding from the tracked
//! `websec_core::sync` wrapper the cursor is built on.
//!
//! Run under the detector (as check.sh does) with:
//! `WEBSEC_LOCKDEP=1 cargo test --test scheduler`

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

const SEEDS: u64 = 100;
const STORM_WORKERS: usize = 8;

/// With `WEBSEC_LOCKDEP=1` every test must finish with zero `WS110`/`WS111`
/// findings; with detection off the list is empty by construction.
fn assert_no_sync_findings() {
    let findings = websec_core::sync::lockdep_findings();
    assert!(
        findings.is_empty(),
        "scheduler produced sync findings:\n{}",
        findings
            .iter()
            .map(websec_core::sync::SyncFinding::machine_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn build_stack() -> SecureWebStack {
    let mut stack = SecureWebStack::new([9u8; 32]);
    let mut xml = String::from("<ward>");
    for i in 0..8 {
        xml.push_str(&format!("<patient id=\"p{i}\"><name>N{i}</name></patient>"));
    }
    xml.push_str("</ward>");
    stack.add_document(
        "ward.xml",
        Document::parse(&xml).unwrap(),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Portion {
            document: "ward.xml".into(),
            path: Path::parse("//patient").unwrap(),
        }).privilege(Privilege::Read).grant());
    stack
}

fn request(subject: &str, patient: usize) -> QueryRequest {
    QueryRequest::for_doc("ward.xml")
        .path(Path::parse(&format!("//patient[@id='p{patient}']")).unwrap())
        .subject(&SubjectProfile::new(subject))
        .clearance(Clearance(Level::Unclassified))
}

/// 1-element batches at an 8-worker request. The scheduler must clamp to
/// one real worker (seven more would only race the cursor for nothing),
/// answer the single request, and leave the detector silent — 100 times
/// over, with the subject (and so the shard placement) varying per seed.
#[test]
fn hundred_seed_steal_storm_on_single_element_batches() {
    let server = StackServer::new(build_stack());
    for seed in 0..SEEDS {
        let batch = BatchRequest::new(vec![request(
            &format!("storm-{seed}"),
            (seed % 8) as usize,
        )])
        .workers(STORM_WORKERS);
        let response = server.serve_batch(&batch);
        assert_eq!(response.results.len(), 1, "seed {seed}");
        let ok = response.results[0].as_ref().unwrap_or_else(|e| {
            panic!("seed {seed}: single-element batch failed: {e}");
        });
        assert!(ok.xml.contains(&format!("p{}", seed % 8)), "seed {seed}");
        assert_eq!(
            response.stats.workers, 1,
            "seed {seed}: a 1-element batch must clamp to one worker"
        );
        assert_eq!(response.stats.admitted, 1, "seed {seed}");
    }
    assert_no_sync_findings();
}

/// Maximal claim contention: one item per worker across all eight
/// workers, so every claim races the others for the cursor. Every index
/// must be claimed exactly once (the positional contract makes loss or
/// doubling visible), 100 seeds in a row.
#[test]
fn hundred_seed_storm_with_one_item_per_deque() {
    for seed in 0..SEEDS {
        let server = StackServer::new(build_stack());
        let batch = BatchRequest::new(
            (0..STORM_WORKERS)
                .map(|i| request(&format!("storm-{seed}-{i}"), i))
                .collect(),
        )
        .workers(STORM_WORKERS);
        let response = server.serve_batch(&batch);
        assert_eq!(response.results.len(), STORM_WORKERS, "seed {seed}");
        for (i, result) in response.results.iter().enumerate() {
            let ok = result.as_ref().unwrap_or_else(|e| {
                panic!("seed {seed}, position {i}: lost to the storm: {e}");
            });
            assert!(
                ok.xml.contains(&format!("p{i}")),
                "seed {seed}, position {i}: answered with someone else's view: {}",
                ok.xml
            );
        }
        assert_eq!(response.stats.workers, STORM_WORKERS, "seed {seed}");
        assert_eq!(response.stats.coalesced, 0, "seed {seed}: distinct keys");
        let m = server.metrics();
        assert_eq!(m.requests, STORM_WORKERS as u64, "seed {seed}");
        assert_eq!(m.allowed, STORM_WORKERS as u64, "seed {seed}");
    }
    assert_no_sync_findings();
}

/// A long one-worker batch: the lone worker claims all 300 positions
/// from the cursor and answers each with its own request's view.
#[test]
fn one_worker_batch_answers_every_position() {
    let server = StackServer::new(build_stack());
    let batch = BatchRequest::new(
        (0..300).map(|i| request(&format!("solo-{i}"), i % 8)).collect(),
    )
    .workers(1);
    let response = server.serve_batch(&batch);
    assert_eq!(response.results.len(), 300);
    assert_eq!(response.stats.workers, 1);
    for (i, result) in response.results.iter().enumerate() {
        let ok = result
            .as_ref()
            .unwrap_or_else(|e| panic!("position {i}: {e}"));
        assert!(
            ok.xml.contains(&format!("p{}", i % 8)),
            "position {i}: answered with someone else's view: {}",
            ok.xml
        );
    }
    assert_eq!(server.metrics().requests, 300);
    assert_no_sync_findings();
}

/// The storm under fire: small batches racing a fault plan that drops
/// channels and slows evaluations. Faults may fail requests (stable WS1xx
/// codes only) but the scheduler must still claim every index exactly once
/// and the detector must stay silent.
#[test]
fn steal_storm_under_fault_injection_stays_exactly_once() {
    let server = StackServer::new(build_stack());
    server.install_faults(
        FaultPlan::seeded(77)
            .rule(FaultRule::new(FaultKind::ChannelDrop).on(FaultSchedule::Random {
                permille: 120,
            }))
            .rule(FaultRule::new(FaultKind::SlowEval { ticks: 1 }).on(FaultSchedule::Random {
                permille: 80,
            })),
    );
    for seed in 0..SEEDS {
        let batch = BatchRequest::new(
            (0..STORM_WORKERS)
                .map(|i| request(&format!("fire-{seed}-{i}"), i))
                .collect(),
        )
        .workers(STORM_WORKERS);
        let response = server.serve_batch(&batch);
        assert_eq!(response.results.len(), STORM_WORKERS, "seed {seed}");
        for (i, result) in response.results.iter().enumerate() {
            match result {
                Ok(ok) => assert!(
                    ok.xml.contains(&format!("p{i}")),
                    "seed {seed}, position {i}: wrong view under faults"
                ),
                Err(e) => assert!(
                    e.code().starts_with("WS1"),
                    "seed {seed}, position {i}: unstable code {}",
                    e.code()
                ),
            }
        }
    }
    assert_no_sync_findings();
}
