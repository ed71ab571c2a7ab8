//! CI gate: runs the whole-stack information-flow analyzer (WS003–WS012)
//! over every example stack configuration and prints one stable JSON line
//! per stack.
//!
//! The output is deterministic — reports are normalized before printing, so
//! two runs over the same tree are byte-identical and check.sh diffs them
//! directly. The process exits non-zero when any stack carries an
//! error-severity finding (warnings and info are reported but do not fail
//! the build).
//!
//! Run with: `cargo run -p websec-examples --bin analyze_examples`

use std::collections::BTreeSet;

use websec_core::dissem::KeyAuthority;
use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;
use websec_core::uddi::{BindingTemplate, BusinessEntity, BusinessService, TModel};

/// The minimal quickstart configuration: one document, one grant.
fn quickstart_stack() -> SecureWebStack {
    let mut s = SecureWebStack::new([7u8; 32]);
    s.add_document(
        "h.xml",
        Document::parse(
            "<hospital><patient id=\"p1\"><name>Alice</name></patient>\
             <admin><budget>9</budget></admin></hospital>",
        )
        .expect("well-formed"),
        ContextLabel::fixed(Level::Unclassified),
    );
    s.policies.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//patient").expect("valid path"),
        }).privilege(Privilege::Read).grant());
    s
}

/// A hospital configuration exercising every analyzer input section:
/// policies, labels, privacy constraints and schemas, a semantic store,
/// a dissemination audit, a signed UDDI registry, and enrolled subjects.
fn hospital_stack() -> SecureWebStack {
    let mut s = quickstart_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::WithCredentials(CredentialExpr::OfType("auditor".into()))).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//admin").expect("valid path"),
        }).privilege(Privilege::Read).grant());
    s.policies
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));

    let mut store = SecureStore::new();
    store.store.insert(&Triple::new(
        Term::iri("urn:staff:1"),
        Term::iri("urn:rel:memberOf"),
        Term::iri("urn:ward:oncology"),
    ));
    s.semantic_stores.push(("wards".into(), store));

    s.privacy_constraints
        .push(PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private));
    s.table_schemas
        .push(("admissions".into(), vec!["patient_id".into(), "name".into()]));
    s.table_schemas
        .push(("treatments".into(), vec!["visit_id".into(), "diagnosis".into()]));

    let doc = s
        .documents
        .get("h.xml")
        .cloned()
        .expect("document registered above");
    let map = RegionMap::build(&s.policies, "h.xml", &doc);
    let doctor = SubjectProfile::new("doctor");
    let keyring = KeyAuthority::new("h.xml", [9u8; 32]).keys_for(&s.policies, &map, &doctor);
    s.dissemination_audits.push((map, vec![(doctor, keyring)]));

    let mut registry = UddiRegistry::new();
    registry.save_tmodel(TModel::new("tm:records", "records interface"));
    let mut service = BusinessService::new("s1", "records");
    service.binding_templates.push(BindingTemplate {
        binding_key: "bind1".into(),
        access_point: "https://hospital.example/records".into(),
        description: String::new(),
        tmodel_keys: vec!["tm:records".into()],
    });
    let mut business = BusinessEntity::new("b1", "Hospital");
    business.services.push(service);
    registry.save_business(business);
    let signed: BTreeSet<String> = std::iter::once("tm:records".to_string()).collect();
    s.uddi = Some((registry, signed));

    let mut auditor = SubjectProfile::new("auditor-1");
    auditor
        .credentials
        .push(Credential::new("auditor", "auditor-1"));
    s.registered_profiles.push(auditor);
    s.registered_profiles.push(SubjectProfile::new("doctor"));
    s
}

/// An intelligence configuration whose context-dependent label declassifies
/// through a registered sanitizer (WS010's discipline, satisfied).
fn intel_stack() -> SecureWebStack {
    let mut s = SecureWebStack::new([13u8; 32]);
    s.add_document(
        "intel.xml",
        Document::parse("<ops><mission code=\"neptune\"><grid>42N</grid></mission></ops>")
            .expect("well-formed"),
        ContextLabel::fixed(Level::Secret).unless_condition("peacetime", Level::Confidential),
    );
    s.policies.add(Authorization::for_subject(SubjectSpec::InRole(Role::new("analyst"))).on(ObjectSpec::Document("intel.xml".into())).privilege(Privilege::Read).grant());
    s.sanitized_documents.insert("intel.xml".into());
    s
}

fn main() {
    let stacks: Vec<(&str, SecureWebStack)> = vec![
        ("quickstart", quickstart_stack()),
        ("hospital", hospital_stack()),
        ("intel", intel_stack()),
    ];

    let mut errors = 0usize;
    for (name, stack) in &stacks {
        let mut report = stack.analyze();
        report.normalize();
        errors += report.count_at_least(Severity::Error);
        println!("{{\"stack\":\"{name}\",\"analysis\":{}}}", report.to_json());
    }
    if errors > 0 {
        eprintln!("analyze_examples: {errors} error-severity finding(s)");
        std::process::exit(1);
    }
}
