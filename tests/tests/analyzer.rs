//! End-to-end exercise of the static analyzer (WS003–WS005) and of the
//! strict boot gate through the public stack API: every diagnostic class
//! fires on a purpose-built misconfiguration, and a well-formed stack
//! analyzes clean.

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

fn hospital() -> Document {
    Document::parse(
        "<hospital><patient id=\"p1\" ssn=\"1\"><name>Alice</name></patient>\
         <admin><budget>9</budget></admin></hospital>",
    )
    .unwrap()
}

fn portion(path: &str) -> ObjectSpec {
    ObjectSpec::Portion {
        document: "h.xml".into(),
        path: Path::parse(path).unwrap(),
    }
}

fn base_stack() -> SecureWebStack {
    let mut s = SecureWebStack::new([7u8; 32]);
    s.add_document("h.xml", hospital(), ContextLabel::fixed(Level::Unclassified));
    s.policies.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(portion("//patient")).privilege(Privilege::Read).grant());
    s
}

#[test]
fn default_stack_analyzes_clean() {
    let s = base_stack();
    let report = s.analyze();
    assert!(report.is_clean(), "{}", report.human());
    assert!(s.analyze_strict().is_ok());
}

/// A strategy-dependent conflict is WS014's warning, so strict boot
/// proceeds and returns it.
#[test]
fn ws014_conflict_surfaces_through_stack() {
    let mut s = base_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).grant());
    s.policies.add(Authorization::for_subject(SubjectSpec::Identity("eve".into())).on(portion("/hospital/admin")).privilege(Privilege::Read).deny());
    let report = s.analyze_strict().expect("a warning does not block strict boot");
    let hits = report.with_code("WS014");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].span, "authorizations #1 and #2");
    assert_eq!(hits[0].severity, Severity::Warning);
}

/// A priority tie is WS014's error: the analyzer alone finds no error,
/// and strict boot refuses on the verifier's.
#[test]
fn ws014_priority_tie_refuses_strict_boot() {
    let mut s = base_stack();
    s.engine = PolicyEngine::new(ConflictStrategy::ExplicitPriority);
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).grant());
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).deny());
    let report = s.analyze();
    assert!(!report.has_errors(), "{}", report.human());
    match s.analyze_strict() {
        Err(Error::Misconfigured(m)) => {
            assert!(m.contains("WS014|error|authorizations #1 and #2|"), "{m}");
        }
        other => panic!("expected Misconfigured, got {other:?}"),
    }
}

/// A rule matching no node is WS015's dead policy.
#[test]
fn ws015_unreachable_rule_is_flagged() {
    let mut s = base_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(portion("//cafeteria")).privilege(Privilege::Read).grant());
    // Warnings do not block a strict boot.
    let report = s.analyze_strict().expect("a warning does not block strict boot");
    let hits = report.with_code("WS015");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].span, "authorization #1");
}

#[test]
fn ws003_context_label_flow_is_flagged() {
    let mut s = SecureWebStack::new([7u8; 32]);
    s.add_document(
        "war.xml",
        Document::parse("<ops><plan>x</plan></ops>").unwrap(),
        ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified),
    );
    s.policies.add(Authorization::for_subject(SubjectSpec::Identity("analyst".into())).on(ObjectSpec::Document("war.xml".into())).privilege(Privilege::Read).grant());
    let report = s.analyze();
    let hits = report.with_code("WS003");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Warning);
}

#[test]
fn ws004_inference_channel_via_direct_input() {
    // Privacy constraints live outside the stack facade, so WS004 is fed
    // through the analyzer's own input type.
    let store = PolicyStore::new();
    let constraints = vec![PrivacyConstraint::new(
        &["name", "diagnosis"],
        PrivacyLevel::Private,
    )];
    let columns: Vec<String> = ["id", "name", "diagnosis"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut input = AnalyzerInput::new(&store).with_schema("patients", &columns);
    input.constraints = &constraints;
    let report = Analyzer::analyze(&input);
    let hits = report.with_code("WS004");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert!(hits[0].message.contains("separate query"));
}

#[test]
fn ws005_dangling_reference_refuses_strict_boot() {
    let mut s = base_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("ghost.xml".into())).privilege(Privilege::Read).grant());
    let report = s.analyze();
    assert!(
        report
            .with_code("WS005")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("ghost.xml")),
        "{}",
        report.human()
    );
    assert!(matches!(
        s.analyze_strict(),
        Err(Error::Misconfigured(_))
    ));
}

#[test]
fn machine_output_is_line_oriented() {
    let mut s = base_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("ghost.xml".into())).privilege(Privilege::Read).grant());
    let machine = s.analyze().machine();
    for line in machine.lines() {
        let fields: Vec<&str> = line.split('|').collect();
        assert!(fields.len() >= 4, "malformed line: {line}");
        assert!(fields[0].starts_with("WS"), "bad code in: {line}");
        assert!(
            matches!(fields[1], "info" | "warning" | "error"),
            "bad severity in: {line}"
        );
    }
}
