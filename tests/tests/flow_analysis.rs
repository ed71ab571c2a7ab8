//! End-to-end exercise of the whole-stack information-flow passes
//! (WS006–WS012) through the public stack API, the seeded determinism /
//! idempotence property suite, and the serving layer's incremental
//! re-analysis and [`AnalysisGate`] behavior.
//!
//! Each pass gets a purpose-built firing configuration plus a minimal
//! change that silences it; a fully configured well-formed stack analyzes
//! clean end to end.

use std::collections::BTreeSet;

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;
use websec_core::rdf::schema::rdfs;
use websec_core::rdf::store::rdf as rdf_vocab;
use websec_core::uddi::{BindingTemplate, TModel};

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

fn iri_triple(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// A store whose schema closure declassifies: the premise
/// `(alice type CovertOperative)` is Secret, yet the entailed
/// `(alice type SecretAgent)` carries no label (Unclassified).
fn leaky_store() -> SecureStore {
    let mut ss = SecureStore::new();
    ss.store
        .insert(&iri_triple("alice", rdf_vocab::TYPE, "CovertOperative"));
    ss.store
        .insert(&iri_triple("CovertOperative", rdfs::SUB_CLASS_OF, "SecretAgent"));
    ss.add_label(
        TriplePattern::new(
            PatternTerm::v("s"),
            PatternTerm::c(Term::iri(rdf_vocab::TYPE)),
            PatternTerm::c(Term::iri("CovertOperative")),
        ),
        ContextLabel::fixed(Level::Secret),
    );
    ss
}

/// [`leaky_store`] with the entailed pattern labeled as high as its
/// premise, so the entailment no longer declassifies.
fn sealed_store() -> SecureStore {
    let mut ss = leaky_store();
    ss.add_label(
        TriplePattern::new(
            PatternTerm::v("s"),
            PatternTerm::c(Term::iri(rdf_vocab::TYPE)),
            PatternTerm::c(Term::iri("SecretAgent")),
        ),
        ContextLabel::fixed(Level::Secret),
    );
    ss
}

/// A registry exposing one binding that implements the (registered)
/// `tm:pay` tModel.
fn registry_with_binding() -> UddiRegistry {
    let mut reg = UddiRegistry::new();
    reg.save_tmodel(TModel::new("tm:pay", "payment interface"));
    let mut svc = BusinessService::new("s1", "payments");
    svc.binding_templates.push(BindingTemplate {
        binding_key: "bind1".into(),
        access_point: "https://acme.example/pay".into(),
        description: String::new(),
        tmodel_keys: vec!["tm:pay".into()],
    });
    let mut biz = BusinessEntity::new("b1", "Acme");
    biz.services.push(svc);
    reg.save_business(biz);
    reg
}

fn notary_profile() -> SubjectProfile {
    let mut p = SubjectProfile::new("alice");
    p.credentials.push(Credential::new("notary", "alice"));
    p
}

/// A stack with every analyzer input section populated and well-formed:
/// the default-configuration regression for WS003–WS012.
fn configured_stack() -> SecureWebStack {
    let mut s = base_stack();
    s.policies.add(Authorization::for_subject(SubjectSpec::WithCredentials(CredentialExpr::OfType("notary".into()))).on(portion("//admin")).privilege(Privilege::Read).id(5).grant());
    s.policies
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));

    let mut store = sealed_store();
    store
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));
    s.semantic_stores.push(("agents".into(), store));

    s.privacy_constraints
        .push(PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private));
    s.table_schemas.push((
        "admissions".into(),
        vec!["patient_id".into(), "name".into()],
    ));
    s.table_schemas.push((
        "treatments".into(),
        vec!["visit_id".into(), "diagnosis".into()],
    ));

    let map = RegionMap::build(&s.policies, "h.xml", &hospital());
    let doctor = SubjectProfile::new("doctor");
    let keyring = KeyAuthority::new("h.xml", [9u8; 32]).keys_for(&s.policies, &map, &doctor);
    s.dissemination_audits.push((map, vec![(doctor, keyring)]));

    let signed: BTreeSet<String> = std::iter::once("tm:pay".to_string()).collect();
    s.uddi = Some((registry_with_binding(), signed));

    s.registered_profiles.push(notary_profile());
    s.registered_profiles.push(SubjectProfile::new("doctor"));
    s
}

#[test]
fn configured_stack_analyzes_clean() {
    let s = configured_stack();
    let report = s.analyze();
    assert!(report.is_clean(), "{}", report.human());
    assert!(s.analyze_strict().is_ok());
}

#[test]
fn ws006_entailment_leak_fires_and_labeled_entailment_silences() {
    let mut s = base_stack();
    s.semantic_stores.push(("agents".into(), leaky_store()));
    let report = s.analyze();
    let hits = report.with_code("WS006");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].span.contains("rdf store 'agents'"), "{}", hits[0].span);
    // The leak is error severity: strict boot refuses.
    match s.analyze_strict() {
        Err(Error::Misconfigured(m)) => assert!(m.contains("WS006"), "{m}"),
        other => panic!("expected Misconfigured, got {other:?}"),
    }

    s.semantic_stores[0].1 = sealed_store();
    let report = s.analyze();
    assert!(report.with_code("WS006").is_empty(), "{}", report.human());
}

#[test]
fn ws007_cross_table_join_fires_and_guarding_join_column_silences() {
    let mut s = base_stack();
    s.privacy_constraints
        .push(PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private));
    s.table_schemas
        .push(("admissions".into(), vec!["patient_id".into(), "name".into()]));
    s.table_schemas.push((
        "treatments".into(),
        vec!["patient_id".into(), "diagnosis".into()],
    ));
    let report = s.analyze();
    let hits = report.with_code("WS007");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(
        hits[0].span.contains("admissions") && hits[0].span.contains("treatments"),
        "{}",
        hits[0].span
    );
    assert!(hits[0].message.contains("patient_id"), "{}", hits[0].message);

    // Covering the join column with its own constraint severs the linkage.
    s.privacy_constraints.push(PrivacyConstraint::new(
        &["patient_id", "diagnosis"],
        PrivacyLevel::Private,
    ));
    let report = s.analyze();
    assert!(report.with_code("WS007").is_empty(), "{}", report.human());
}

#[test]
fn ws008_revoked_keyring_fires_and_current_entitlement_silences() {
    // Keys are cut while the doctor's grant is live: the audit is clean.
    let mut s = base_stack();
    let map = RegionMap::build(&s.policies, "h.xml", &hospital());
    assert!(!map.regions.is_empty());
    let doctor = SubjectProfile::new("doctor");
    let keyring = KeyAuthority::new("h.xml", [9u8; 32]).keys_for(&s.policies, &map, &doctor);
    assert!(!keyring.is_empty());
    s.dissemination_audits.push((map, vec![(doctor, keyring)]));
    let report = s.analyze();
    assert!(report.with_code("WS008").is_empty(), "{}", report.human());

    // Revoking the grant without re-keying leaves the key over-covering.
    let granted = s.policies.shared_authorizations()[0].id;
    assert!(s.policies.revoke(granted));
    let report = s.analyze();
    let hits = report.with_code("WS008");
    assert!(!hits.is_empty(), "{}", report.human());
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    assert!(hits[0].span.contains("subject 'doctor'"), "{}", hits[0].span);
    assert!(hits[0].message.contains("revocation"), "{}", hits[0].message);
}

#[test]
fn ws009_opposed_hierarchies_fire_and_aligned_hierarchies_silence() {
    let mut s = base_stack();
    s.policies
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));
    let mut store = SecureStore::new();
    store
        .hierarchy
        .add_seniority(Role::new("intern"), Role::new("chief"));
    s.semantic_stores.push(("agents".into(), store));
    let report = s.analyze();
    let hits = report.with_code("WS009");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(
        hits[0].span.contains("chief") && hits[0].span.contains("intern"),
        "{}",
        hits[0].span
    );

    let mut aligned = SecureStore::new();
    aligned
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));
    s.semantic_stores[0].1 = aligned;
    let report = s.analyze();
    assert!(report.with_code("WS009").is_empty(), "{}", report.human());
}

#[test]
fn ws010_unsanitized_declassification_fires_and_sanitizer_silences() {
    let mut s = base_stack();
    s.add_document(
        "war.xml",
        Document::parse("<ops><plan>x</plan></ops>").unwrap(),
        ContextLabel::fixed(Level::Secret).unless_condition("peacetime", Level::Unclassified),
    );
    let report = s.analyze();
    let hits = report.with_code("WS010");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(hits[0].span.contains("war.xml"), "{}", hits[0].span);

    s.sanitized_documents.insert("war.xml".into());
    let report = s.analyze();
    assert!(report.with_code("WS010").is_empty(), "{}", report.human());
}

#[test]
fn ws011_unsigned_binding_fires_and_signed_tmodel_silences() {
    let mut s = base_stack();
    s.uddi = Some((registry_with_binding(), BTreeSet::new()));
    let report = s.analyze();
    let hits = report.with_code("WS011");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(
        hits[0].span.contains("binding 'bind1'") && hits[0].span.contains("service 's1'"),
        "{}",
        hits[0].span
    );

    let signed: BTreeSet<String> = std::iter::once("tm:pay".to_string()).collect();
    s.uddi = Some((registry_with_binding(), signed));
    let report = s.analyze();
    assert!(report.with_code("WS011").is_empty(), "{}", report.human());
}

#[test]
fn ws012_dead_credential_fires_and_enrolled_holder_silences() {
    let mut s = base_stack();
    let needs_notary = s.policies.add(Authorization::for_subject(SubjectSpec::WithCredentials(CredentialExpr::OfType("notary".into()))).on(portion("//admin")).privilege(Privilege::Read).id(5).grant());
    // No registered profiles: the pass has no census to check against.
    assert!(s.analyze().with_code("WS012").is_empty());

    s.registered_profiles.push(SubjectProfile::new("alice"));
    let report = s.analyze();
    let hits = report.with_code("WS012");
    assert_eq!(hits.len(), 1, "{}", report.human());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert_eq!(hits[0].span, format!("authorization #{}", needs_notary.0));
    assert!(hits[0].message.contains("'notary'"), "{}", hits[0].message);

    s.registered_profiles[0] = notary_profile();
    let report = s.analyze();
    assert!(report.with_code("WS012").is_empty(), "{}", report.human());
}

/// Deterministic pseudo-random source for the property suite (no
/// `rand` dependency; constants from Knuth's MMIX).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Builds a stack whose configuration (which sections are populated, and
/// whether they are well-formed or firing) is drawn from `seed`.
fn random_stack(seed: u64) -> SecureWebStack {
    let mut rng = Lcg(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let mut s = base_stack();
    if rng.flip() {
        let store = if rng.flip() { leaky_store() } else { sealed_store() };
        s.semantic_stores.push(("agents".into(), store));
    }
    if rng.flip() {
        s.privacy_constraints
            .push(PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private));
        s.table_schemas
            .push(("admissions".into(), vec!["patient_id".into(), "name".into()]));
        s.table_schemas.push((
            "treatments".into(),
            vec!["patient_id".into(), "diagnosis".into()],
        ));
    }
    if rng.flip() {
        let signed = if rng.flip() {
            std::iter::once("tm:pay".to_string()).collect()
        } else {
            BTreeSet::new()
        };
        s.uddi = Some((registry_with_binding(), signed));
    }
    if rng.flip() {
        s.policies.add(Authorization::for_subject(SubjectSpec::WithCredentials(CredentialExpr::OfType("notary".into()))).on(portion("//admin")).privilege(Privilege::Read).id(5).grant());
        let profile = if rng.flip() {
            notary_profile()
        } else {
            SubjectProfile::new("alice")
        };
        s.registered_profiles.push(profile);
    }
    if rng.flip() {
        s.add_document(
            "war.xml",
            Document::parse("<ops><plan>x</plan></ops>").unwrap(),
            ContextLabel::fixed(Level::Secret).unless_condition("peacetime", Level::Unclassified),
        );
        if rng.flip() {
            s.sanitized_documents.insert("war.xml".into());
        }
    }
    s
}

#[test]
fn analysis_is_deterministic_and_idempotent_across_100_seeds() {
    for seed in 0..100u64 {
        let a = random_stack(seed);
        let b = random_stack(seed);
        let first = a.analyze();
        let again = a.analyze();
        let rebuilt = b.analyze();
        assert_eq!(
            first.to_json(),
            again.to_json(),
            "re-analysis differed at seed {seed}"
        );
        assert_eq!(
            first.to_json(),
            rebuilt.to_json(),
            "rebuilt stack differed at seed {seed}"
        );
        assert_eq!(first.machine(), rebuilt.machine(), "machine rendering at seed {seed}");
        // normalize is idempotent: a second pass changes nothing.
        let mut normalized = first.clone();
        normalized.normalize();
        let once = normalized.to_json();
        normalized.normalize();
        assert_eq!(once, normalized.to_json(), "normalize not idempotent at seed {seed}");
    }
}

#[test]
fn normalized_report_is_invariant_under_safe_reordering() {
    // Configuration order of stores / constraints / profiles is not part of
    // any diagnostic's identity, so after `normalize` the JSON must be
    // byte-identical whatever order the sections were populated in.
    // (Schema order *is* semantic — spans join table names in schema order —
    // so it stays fixed.)
    type Op = Box<dyn Fn(&mut SecureWebStack)>;
    let ops: Vec<Op> = vec![
        Box::new(|s| s.semantic_stores.push(("agents".into(), leaky_store()))),
        Box::new(|s| s.semantic_stores.push(("ops".into(), leaky_store()))),
        Box::new(|s| {
            s.privacy_constraints
                .push(PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private))
        }),
        Box::new(|s| {
            s.registered_profiles.push(SubjectProfile::new("alice"));
            s.registered_profiles.push(notary_profile());
        }),
        Box::new(|s| s.uddi = Some((registry_with_binding(), BTreeSet::new()))),
    ];

    let baseline: String = {
        let mut s = base_stack();
        for op in &ops {
            op(&mut s);
        }
        let mut r = s.analyze();
        r.normalize();
        r.to_json()
    };
    assert!(baseline.contains("WS006"), "fixture should fire: {baseline}");

    for seed in 1..20u64 {
        let mut rng = Lcg(seed);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut s = base_stack();
        for &i in &order {
            ops[i](&mut s);
        }
        let mut r = s.analyze();
        r.normalize();
        assert_eq!(baseline, r.to_json(), "order {order:?} changed the report");
    }
}

#[test]
fn incremental_reanalysis_runs_only_affected_passes() {
    let server = StackServer::new(configured_stack());

    // Cold start: every pass runs.
    let report = server.analyze();
    assert!(report.is_clean(), "{}", report.human());
    assert_eq!(server.last_passes_run().len(), 10);
    let m = server.metrics();
    assert_eq!(m.analysis_passes_run, 10);
    assert_eq!(m.analysis_passes_reused, 0);

    // Same generation: the cached report is reused wholesale.
    let _ = server.analyze();
    assert!(server.last_passes_run().is_empty());
    let m = server.metrics();
    assert_eq!(m.analysis_passes_run, 10);
    assert_eq!(m.analysis_passes_reused, 10);

    // A privacy-section mutation re-runs exactly the passes that read it.
    server.update(|s| {
        s.privacy_constraints
            .push(PrivacyConstraint::new(&["ssn", "name"], PrivacyLevel::Private));
    });
    let _ = server.analyze();
    assert_eq!(server.last_passes_run(), vec!["WS004", "WS007", "WS010"]);
    let m = server.metrics();
    assert_eq!(m.analysis_passes_run, 13);
    assert_eq!(m.analysis_passes_reused, 17);

    // An RDF-section mutation re-runs exactly the semantic passes.
    server.update(|s| s.semantic_stores.push(("extra".into(), sealed_store())));
    let _ = server.analyze();
    assert_eq!(server.last_passes_run(), vec!["WS006", "WS009"]);
    let m = server.metrics();
    assert_eq!(m.analysis_passes_run, 15);
    assert_eq!(m.analysis_passes_reused, 25);

    // Under the Deny gate the gate's analysis of the candidate is the
    // update's only analysis: an accepted policy-only update runs exactly
    // the four passes that read the policy section, and publishes their
    // report, so the analyze() right after it is a wholesale reuse.
    server.set_analysis_gate(AnalysisGate::Deny);
    let _ = server.verify_policies();
    let before = server.metrics();
    server
        .try_update(|s| {
            s.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("nurse".into()))
                    .on(portion("//patient"))
                    .privilege(Privilege::Read)
                    .grant(),
            );
        })
        .expect("policy update admitted");
    let d = server.metrics().delta(&before);
    assert_eq!(d.analysis_passes_run, 4);
    assert_eq!(
        server.last_passes_run(),
        vec!["WS005", "WS008", "WS009", "WS012"]
    );
    let before = server.metrics();
    let report = server.analyze();
    let d = server.metrics().delta(&before);
    assert!(server.last_passes_run().is_empty());
    assert_eq!((d.analysis_passes_run, d.analysis_passes_reused), (0, 10));
    assert_eq!(report.to_json(), server.snapshot().analyze().to_json());

    // A privacy-only gated update runs exactly the privacy passes.
    let before = server.metrics();
    server
        .try_update(|s| {
            s.privacy_constraints
                .push(PrivacyConstraint::new(&["ssn", "diagnosis"], PrivacyLevel::Private));
        })
        .expect("privacy update admitted");
    assert_eq!(server.last_passes_run(), vec!["WS004", "WS007", "WS010"]);
    assert_eq!(server.metrics().delta(&before).analysis_passes_run, 3);

    // A gated update that edits one document in place moves the Documents
    // section: the candidate shares the snapshot's documents, and the
    // write copies the edited one, so its fingerprint is taken again. It
    // re-runs exactly WS005, the only analyzer pass reading Documents,
    // and the verifier.
    let before = server.metrics();
    server
        .try_update(|s| {
            let doc = s.documents.get_mut("h.xml").expect("h.xml is registered");
            let root = doc.root();
            doc.set_attribute(root, "wing", "east");
        })
        .expect("document edit admitted");
    assert_eq!(server.last_passes_run(), vec!["WS005"]);
    let d = server.metrics().delta(&before);
    assert_eq!((d.analysis_passes_run, d.policy_passes_run), (1, 6));

    // A rejected update leaves the memo at the old generation: the next
    // analyze() is a wholesale reuse.
    let rejected = server.try_update(|s| s.semantic_stores.push(("planted".into(), leaky_store())));
    assert_eq!(rejected.expect_err("leak must be rejected").code(), "WS109");
    let before = server.metrics();
    let _ = server.analyze();
    let d = server.metrics().delta(&before);
    assert_eq!((d.analysis_passes_run, d.analysis_passes_reused), (0, 10));
}

/// Collection membership is part of the policy base the analyses read:
/// a member added by an update re-runs WS005 and the verifier, so
/// neither reports the rule that covered nothing before.
#[test]
fn collection_membership_reruns_ws005_and_the_verifier() {
    let mut stack = SecureWebStack::new([7u8; 32]);
    stack.add_document("h.xml", hospital(), ContextLabel::fixed(Level::Unclassified));
    stack.policies.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Collection("wards".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    let server = StackServer::new(stack);
    let codes = |report: &Report| -> Vec<String> {
        report.diagnostics.iter().map(|d| d.code.to_string()).collect()
    };
    let analyzed = server.analyze();
    assert!(codes(&analyzed).contains(&"WS005".into()), "{}", analyzed.human());
    let verified = server.verify_policies();
    assert!(codes(&verified).contains(&"WS015".into()), "{}", verified.human());

    server.update(|s| s.policies.add_collection_member("wards", "h.xml"));
    let analyzed = server.analyze();
    assert!(
        !codes(&analyzed).contains(&"WS005".into()),
        "stale analyzer report {:?}",
        codes(&analyzed)
    );
    let verified = server.verify_policies();
    assert!(
        !codes(&verified).contains(&"WS015".into()),
        "stale verifier report {:?}",
        codes(&verified)
    );
}

#[test]
fn analysis_gate_deny_rejects_leak_introducing_update() {
    let server = StackServer::new(configured_stack());
    assert_eq!(server.analysis_gate(), AnalysisGate::Off);
    server.set_analysis_gate(AnalysisGate::Deny);
    assert_eq!(server.analysis_gate(), AnalysisGate::Deny);

    let before = server.snapshot().semantic_stores.len();
    let result = server.try_update(|s| s.semantic_stores.push(("planted".into(), leaky_store())));
    match result {
        Err(e) => {
            assert_eq!(e.code(), "WS109");
            let rendered = e.to_string();
            assert!(rendered.contains("WS006"), "{rendered}");
            assert!(rendered.contains("planted"), "{rendered}");
        }
        Ok(()) => panic!("leak-introducing update was admitted"),
    }
    // The snapshot is untouched and the stack still serves clean.
    assert_eq!(server.snapshot().semantic_stores.len(), before);
    assert!(server.analyze().is_clean());
    let m = server.metrics();
    assert_eq!(m.gate_denials, 1);
    assert_eq!(m.analysis_errors, 0);

    // A well-formed update passes the same gate.
    let result = server.try_update(|s| {
        s.semantic_stores.push(("benign".into(), sealed_store()));
    });
    assert!(result.is_ok());
    assert_eq!(server.snapshot().semantic_stores.len(), before + 1);
}

#[test]
fn analysis_gate_warn_admits_and_surfaces_findings_in_metrics() {
    // Findings surface without blocking when the update is followed by
    // both analyses.
    let server = StackServer::new(configured_stack());
    server.update(|s| s.semantic_stores.push(("planted".into(), leaky_store())));
    let _ = server.analyze();
    let _ = server.verify_policies();
    assert_eq!(server.snapshot().semantic_stores.len(), 2);
    let m = server.metrics();
    assert_eq!(m.gate_denials, 0);
    assert!(m.analysis_errors >= 1, "errors: {}", m.analysis_errors);
}

#[test]
fn analysis_gate_grandfathers_baseline_errors() {
    // The stack already carries a WS006 error when the gate is enabled:
    // unrelated updates must still be admitted (the gate blocks
    // *regressions*, not pre-existing findings)…
    let mut stack = configured_stack();
    stack.semantic_stores.push(("legacy".into(), leaky_store()));
    let server = StackServer::new(stack);
    server.set_analysis_gate(AnalysisGate::Deny);

    let result = server.try_update(|s| {
        s.table_schemas.push(("audit_log".into(), vec!["event".into()]));
    });
    assert!(result.is_ok(), "{result:?}");

    // …while a *new* error-severity finding is still rejected.
    let result = server.try_update(|s| s.semantic_stores.push(("planted".into(), leaky_store())));
    match result {
        Err(e) => {
            assert_eq!(e.code(), "WS109");
            let rendered = e.to_string();
            assert!(rendered.contains("planted"), "{rendered}");
            assert!(!rendered.contains("legacy"), "{rendered}");
        }
        Ok(()) => panic!("regression was admitted past a grandfathered baseline"),
    }
}

#[test]
fn analysis_gate_off_behaves_like_update() {
    let server = StackServer::new(configured_stack());
    let result = server.try_update(|s| s.semantic_stores.push(("planted".into(), leaky_store())));
    assert!(result.is_ok());
    assert_eq!(server.snapshot().semantic_stores.len(), 2);
    // Nothing analyzed, nothing denied.
    let m = server.metrics();
    assert_eq!(m.gate_denials, 0);
    assert_eq!(m.analysis_passes_run, 0);
}
