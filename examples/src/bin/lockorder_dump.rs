//! `lockorder_dump`: renders the committed `LOCKORDER.json` baseline.
//!
//! Enables the `websec_core::sync` detector, drives a **fixed, serial**
//! workload through every synchronized subsystem of the serving engine
//! (sessions, the view cache, the snapshot lock, the fault injector, the
//! batch claim cursor, the analysis memo and the `Deny` update gate), and
//! prints the resulting lock-order graph as deterministic JSON.
//!
//! The workload is deliberately single-threaded with a fixed shard count
//! and a one-worker batch: acquisition counts then depend only on the
//! code, never on scheduling, so CI can byte-diff the output against the
//! committed baseline (`./check.sh` runs this twice and compares).
//!
//! Usage: `lockorder_dump [OUT_FILE]` — writes to `OUT_FILE` when given,
//! stdout otherwise.

use websec_core::policy::mls::{Clearance, ContextLabel, Level};
use websec_core::prelude::*;
use websec_core::sync::{lockdep_reset, lockorder_json};
use websec_core::xml::{Document, Path};

fn build_stack() -> SecureWebStack {
    let mut stack = SecureWebStack::new([3u8; 32]);
    stack.add_document(
        "ward.xml",
        Document::parse(
            "<ward><patient id=\"p0\"><name>Ada</name></patient>\
             <patient id=\"p1\"><name>Bo</name></patient>\
             <patient id=\"p2\"><name>Cy</name></patient></ward>",
        )
        .expect("well-formed document"),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.policies.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).grant());
    stack
}

fn request(subject: &str, patient: usize) -> QueryRequest {
    QueryRequest::for_doc("ward.xml")
        .path(Path::parse(&format!("//patient[@id='p{patient}']")).expect("fixed path"))
        .subject(&SubjectProfile::new(subject))
        .clearance(Clearance(Level::Unclassified))
}

fn main() {
    set_lockdep_enabled(true);
    lockdep_reset();

    // Fixed shard count: the default would work too, but pinning it keeps
    // the acquisition counts independent of any future default change.
    let server = StackServer::with_shards(build_stack(), 8);

    // Phase 1 — plain serves: session establishment, L2 misses, L2 hits.
    for round in 0..3 {
        for patient in 0..3 {
            let _ = server.serve(&request("doctor", patient));
            let _ = round;
        }
    }

    // Phase 2 — armed faults: the injector's counters and fired tallies
    // join the graph on a deterministic schedule (no panics: a poisoned
    // session would be evicted, which is correct but noisy for a baseline).
    let plan = FaultPlan::seeded(17)
        .rule(FaultRule::new(FaultKind::ChannelDrop).on(FaultSchedule::Nth {
            every: 3,
            offset: 0,
        }));
    let _injector = server.install_faults(plan);
    for patient in 0..3 {
        let _ = server.serve(&request("doctor", patient));
    }
    server.clear_faults();

    // Phase 3 — snapshot mutation: the write lock and the generation bump
    // (the new snapshot starts with an empty view cache).
    server.update(|stack| {
        stack.policies.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Write).grant());
    });

    // Phase 4 — incremental analysis: the analysis memo after the
    // snapshot read path, for both analyses (cold run, cached reuse).
    let _ = server.analyze();
    let _ = server.analyze();
    let _ = server.verify_policies();
    let _ = server.verify_policies();

    // Phase 5 — gated updates: under the update lock the Deny gate reads
    // the current snapshot and the memo, then publishes an accepted
    // candidate and commits its analysis; a planted grant/deny tie is
    // refused without publishing.
    server.set_analysis_gate(AnalysisGate::Deny);
    server
        .try_update(|stack| {
            stack.policies.add(Authorization::for_subject(SubjectSpec::Identity("nurse".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).grant());
        })
        .expect("benign gated update admitted");
    let tie = server.try_update(|stack| {
        stack.engine.strategy = ConflictStrategy::ExplicitPriority;
        for sign in [Sign::Plus, Sign::Minus] {
            stack.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).priority(3).sign(sign));
        }
    });
    assert!(tie.is_err(), "planted tie must be rejected");

    // Phase 6 — a one-worker batch: the coalescing plan and its claim
    // cursor, with sessions and views from the shared tables, serially so
    // the acquisition counts cannot vary.
    let batch =
        BatchRequest::new((0..6).map(|i| request("doctor", i % 3)).collect()).workers(1);
    let results = server.serve_batch(&batch).results;
    assert!(results.iter().all(Result::is_ok), "baseline workload failed");

    let json = lockorder_json();
    match std::env::args().nth(1) {
        Some(path) => std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}")),
        None => print!("{json}"),
    }
}
