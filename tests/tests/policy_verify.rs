//! End-to-end exercise of the static policy verifier (WS013–WS018)
//! through the serving layer: the [`AnalysisGate`] extension over the
//! compiled decision plane, generation-keyed incremental re-verification
//! accounting, determinism of the emitted report, and the policy
//! error/warning gauges in [`MetricsSnapshot`].
//!
//! The per-pass positive/negative fixture matrix lives in the analyzer's
//! unit tests and in `examples/src/bin/verify_policies.rs` (the
//! `ANALYSIS_policy.json` baseline); these tests cover the serving-layer
//! integration the baseline cannot see.

use websec_core::prelude::*;
use websec_scenarios::{hospital_stack, HospitalSpec};

fn spec() -> HospitalSpec {
    HospitalSpec::small()
}

fn server() -> StackServer {
    StackServer::new(hospital_stack(&spec()))
}

/// A read probe a granted subject can answer — used to pin the served
/// bytes across a rejected publication.
fn probe() -> QueryRequest {
    QueryRequest::for_doc("records.xml")
        .path(Path::parse("//patient[@id='p0']").expect("valid path"))
        .subject(&SubjectProfile::new(&spec().granted_subject(0)))
        .clearance(Clearance(Level::Unclassified))
}

/// An equal-priority grant/deny pair on the same portion: under
/// [`ConflictStrategy::ExplicitPriority`] this is the WS014 unresolvable
/// tie (error severity), which the Deny gate must refuse to publish.
fn plant_ws014_conflict(stack: &mut SecureWebStack) {
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
}

#[test]
fn deny_gate_rejects_ws014_conflict_without_publishing() {
    let server = server();
    server.set_analysis_gate(AnalysisGate::Deny);
    let before = server.serve(&probe()).expect("granted probe serves").xml;

    let result = server.try_update(plant_ws014_conflict);
    match result {
        Err(e) => {
            assert_eq!(e.code(), "WS109");
            let rendered = e.to_string();
            assert!(rendered.contains("WS014"), "{rendered}");
        }
        Ok(()) => panic!("WS014-conflicting update was admitted"),
    }

    // The rejected candidate never became the snapshot: the same probe
    // serves byte-identically and the denial is accounted.
    let after = server.serve(&probe()).expect("probe still serves").xml;
    assert_eq!(before, after, "served bytes changed across a rejected update");
    let m = server.metrics();
    assert_eq!(m.gate_denials, 1);
    assert_eq!(m.policy_errors, 0, "no error published to the live snapshot");

    // A benign policy update passes the same gate.
    server
        .try_update(|s| {
            s.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("auditor".into()))
                    .on(ObjectSpec::Document("records.xml".into()))
                    .privilege(Privilege::Read)
                    .grant(),
            );
        })
        .expect("benign policy update admitted");
}

#[test]
fn warn_gate_admits_conflict_and_surfaces_policy_gauges() {
    // Findings surface without blocking when the update is followed by
    // both analyses.
    let server = server();
    server.update(plant_ws014_conflict);
    let _ = server.analyze();
    let _ = server.verify_policies();
    let m = server.metrics();
    assert_eq!(m.gate_denials, 0);
    assert!(m.policy_errors >= 1, "WS014 tie must show as a policy error gauge");
    let report = server.verify_policies();
    assert!(
        report.diagnostics.iter().any(|d| d.code == "WS014"),
        "{}",
        report.human()
    );
}

#[test]
fn policy_verifier_reuses_across_republication_and_reruns_on_policy_change() {
    let server = server();

    // Cold run: all six passes execute.
    let baseline = server.verify_policies();
    let m = server.metrics();
    assert_eq!(m.policy_passes_run, 6);
    assert_eq!(m.policy_passes_reused, 0);

    // Same generation: the cached report is reused wholesale.
    let again = server.verify_policies();
    assert_eq!(baseline.to_json(), again.to_json());
    let m = server.metrics();
    assert_eq!(m.policy_passes_run, 6);
    assert_eq!(m.policy_passes_reused, 6);

    // A republication moves the generation but not the policy base: the
    // fingerprint check reuses the run (this is the incremental path a
    // view flush takes).
    server.invalidate_views();
    let _ = server.verify_policies();
    let m = server.metrics();
    assert_eq!(m.policy_passes_run, 6);
    assert_eq!(m.policy_passes_reused, 12);

    // A policy mutation changes the base fingerprint: the passes re-run
    // and the new report sees the planted dead rule (WS015: ghost.xml is
    // served by no document store).
    server.update(|s| {
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("ghost.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
    });
    let report = server.verify_policies();
    let m = server.metrics();
    assert_eq!(m.policy_passes_run, 12);
    assert_eq!(m.policy_passes_reused, 12);
    assert!(
        report.diagnostics.iter().any(|d| d.code == "WS015"),
        "{}",
        report.human()
    );

    // Under the Deny gate the verifier runs inside the gate, once, over
    // the candidate's freshly compiled plane: an accepted policy update
    // costs exactly six passes, and the verify right after it is a
    // wholesale reuse of the report the gate published.
    server.set_analysis_gate(AnalysisGate::Deny);
    let before = server.metrics();
    server
        .try_update(|s| {
            s.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("auditor".into()))
                    .on(ObjectSpec::Document("records.xml".into()))
                    .privilege(Privilege::Read)
                    .grant(),
            );
        })
        .expect("benign policy update admitted");
    assert_eq!(server.metrics().delta(&before).policy_passes_run, 6);
    let before = server.metrics();
    let report = server.verify_policies();
    let d = server.metrics().delta(&before);
    assert_eq!((d.policy_passes_run, d.policy_passes_reused), (0, 6));
    assert_eq!(report.to_json(), cold_verify(&server).to_json());

    // A privacy-only update moves neither the policy base nor the
    // documents: the gate runs no verifier pass.
    let before = server.metrics();
    server
        .try_update(|s| {
            s.privacy_constraints
                .push(PrivacyConstraint::new(&["name", "record"], PrivacyLevel::Private));
        })
        .expect("privacy update admitted");
    assert_eq!(server.metrics().delta(&before).policy_passes_run, 0);

    // A rejected update publishes nothing: the next verify is a reuse at
    // the old generation.
    let rejected = server.try_update(plant_ws014_conflict);
    assert_eq!(rejected.expect_err("tie must be rejected").code(), "WS109");
    let before = server.metrics();
    let _ = server.verify_policies();
    let d = server.metrics().delta(&before);
    assert_eq!((d.policy_passes_run, d.policy_passes_reused), (0, 6));
}

/// The verifier's report over `server`'s current snapshot, computed cold:
/// a fresh server compiles the snapshot and verifies it.
fn cold_verify(server: &StackServer) -> Report {
    StackServer::new((*server.snapshot()).clone()).verify_policies()
}

#[test]
fn strategy_switch_reaches_both_analyses() {
    // An equal-priority grant/deny pair is a warning under the default
    // strategy and an error tie under ExplicitPriority. The conflict
    // strategy is part of the policy section's fingerprint, so switching
    // it re-runs the passes that read that section (WS005, WS008, WS009,
    // WS012 and the verifier, whose WS014 depends on the strategy) instead
    // of reusing their default-strategy findings.
    let mut stack = hospital_stack(&spec());
    for sign in [Sign::Plus, Sign::Minus] {
        stack.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "records.xml".into(),
                    path: Path::parse("//patient").expect("valid path"),
                })
                .privilege(Privilege::Read)
                .priority(3)
                .sign(sign),
        );
    }
    let server = StackServer::new(stack);
    let is_error = |report: &Report, code: &str| {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.severity == Severity::Error)
    };
    let _ = server.analyze();
    assert!(!is_error(&server.verify_policies(), "WS014"));

    server.update(|s| s.engine.strategy = ConflictStrategy::ExplicitPriority);
    server.invalidate_views();
    let report = server.analyze();
    assert_eq!(
        server.last_passes_run(),
        vec!["WS005", "WS008", "WS009", "WS012"]
    );
    assert_eq!(report.to_json(), server.snapshot().analyze().to_json());
    let report = server.verify_policies();
    assert!(is_error(&report, "WS014"), "{}", report.human());
    assert_eq!(report.to_json(), cold_verify(&server).to_json());
}

/// The Deny gate refuses only error lines a change introduces. From a
/// stack that already carries the planted tie under ExplicitPriority, a
/// switch to MostSpecificSubject keeps the tie's WS014 line byte for byte
/// and introduces none, so it is admitted; a switch to MostSpecificObject
/// also ties the planted denial with the hospital's grants on the same
/// portion, so it is rejected.
#[test]
fn deny_gate_judges_a_strategy_switch_by_the_lines_it_introduces() {
    let tied = || {
        let mut stack = hospital_stack(&spec());
        plant_ws014_conflict(&mut stack);
        let server = StackServer::new(stack);
        server.set_analysis_gate(AnalysisGate::Deny);
        server
    };
    let errors = |report: &Report| -> Vec<String> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(Diagnostic::machine_line)
            .collect()
    };

    let server = tied();
    let grandfathered = errors(&server.verify_policies());
    assert!(!grandfathered.is_empty(), "the planted tie is an error");
    server
        .try_update(|s| s.engine.strategy = ConflictStrategy::MostSpecificSubject)
        .expect("a switch that introduces no error line is admitted");
    assert_eq!(
        server.snapshot().engine.strategy,
        ConflictStrategy::MostSpecificSubject
    );
    assert_eq!(errors(&server.verify_policies()), grandfathered);
    assert!(!server.analyze().has_errors());

    let server = tied();
    match server.try_update(|s| s.engine.strategy = ConflictStrategy::MostSpecificObject) {
        Err(e) => {
            assert_eq!(e.code(), "WS109");
            let rendered = e.to_string();
            assert!(rendered.contains("WS014|error|"), "{rendered}");
        }
        Ok(()) => panic!("a switch that ties the hospital's grants was admitted"),
    }
    assert_eq!(
        server.snapshot().engine.strategy,
        ConflictStrategy::ExplicitPriority
    );
    assert_eq!(server.metrics().gate_denials, 1);
}

#[test]
fn policy_reports_are_deterministic_across_servers() {
    let first = server().verify_policies();
    let second = server().verify_policies();
    assert_eq!(first.to_json(), second.to_json());
    // Normalization is idempotent: re-normalizing changes nothing.
    let mut renorm = first.clone();
    renorm.normalize();
    assert_eq!(renorm.to_json(), first.to_json());
}
