//! Shared workload generators for the experiment suite (E1–E12).
//!
//! Every experiment in EXPERIMENTS.md draws its workload from here, and
//! the `run_experiments` report binary measures it. All generators are
//! deterministic under fixed seeds.

#![forbid(unsafe_code)]

use websec_core::prelude::*;

/// Builds a hospital-style document with `n_patients` patient subtrees
/// (≈ 7 nodes per patient plus the shared skeleton).
#[must_use]
pub fn hospital_doc(n_patients: usize) -> Document {
    let mut d = Document::new("hospital");
    let root = d.root();
    let patients = d.add_element(root, "patients");
    for i in 0..n_patients {
        let p = d.add_element(patients, "patient");
        d.set_attribute(p, "id", &format!("p{i}"));
        d.set_attribute(p, "ssn", &format!("{i:09}"));
        let name = d.add_element(p, "name");
        d.add_text(name, &format!("Patient {i}"));
        let record = d.add_element(p, "record");
        d.set_attribute(record, "severity", if i % 5 == 0 { "high" } else { "low" });
        d.add_text(record, &format!("diagnosis-{}", i % 17));
    }
    let admin = d.add_element(root, "admin");
    let budget = d.add_element(admin, "budget");
    d.add_text(budget, "1000000");
    d
}

/// How subjects are qualified in an E1 policy base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubjectMode {
    /// One identity per policy (the legacy mechanism).
    Identity,
    /// Role-based with a 3-level hierarchy.
    Role,
    /// Credential-expression based.
    Credential,
}

/// Builds a policy base of `n` read grants over `doc_name`, with subjects
/// qualified per `mode`. Policies target rotating patient portions so they
/// exercise path evaluation.
#[must_use]
pub fn policy_base(n: usize, mode: SubjectMode, doc_name: &str) -> PolicyStore {
    let mut store = PolicyStore::new();
    if mode == SubjectMode::Role {
        store
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("doctor"));
        store
            .hierarchy
            .add_seniority(Role::new("doctor"), Role::new("intern"));
    }
    for i in 0..n {
        let subject = match mode {
            SubjectMode::Identity => SubjectSpec::Identity(format!("user-{i}")),
            SubjectMode::Role => SubjectSpec::InRole(Role::new(match i % 3 {
                0 => "chief",
                1 => "doctor",
                _ => "intern",
            })),
            SubjectMode::Credential => SubjectSpec::WithCredentials(
                CredentialExpr::OfType("physician".into())
                    .and(CredentialExpr::AttrGe("years".into(), (i % 20) as i64)),
            ),
        };
        let path = match i % 4 {
            0 => format!("//patient[@id='p{}']", i % 97),
            1 => "//record[@severity='high']".to_string(),
            2 => "//patient/name".to_string(),
            _ => "/hospital/patients".to_string(),
        };
        store.add(Authorization::for_subject(subject).on(ObjectSpec::Portion {
                document: doc_name.to_string(),
                path: Path::parse(&path).expect("valid path"),
            }).privilege(Privilege::Read).grant());
    }
    store
}

/// A matching subject profile for each [`SubjectMode`].
#[must_use]
pub fn matching_profile(mode: SubjectMode) -> SubjectProfile {
    match mode {
        SubjectMode::Identity => SubjectProfile::new("user-0"),
        SubjectMode::Role => SubjectProfile::new("dr-x").with_role(Role::new("chief")),
        SubjectMode::Credential => SubjectProfile::new("carol")
            .with_credential(Credential::new("physician", "carol").with_attr("years", 30i64)),
    }
}

/// Builds a UDDI registry with `n` business entries (each with one service
/// and binding).
#[must_use]
pub fn uddi_registry(n: usize) -> UddiRegistry {
    let mut registry = UddiRegistry::new();
    for i in 0..n {
        let mut be = BusinessEntity::new(&format!("biz-{i}"), &format!("Business {i}"));
        be.description = format!("services of business {i}");
        let mut svc = BusinessService::new(&format!("svc-{i}"), &format!("Service {i}"));
        svc.binding_templates.push(websec_core::uddi::BindingTemplate {
            binding_key: format!("bind-{i}"),
            access_point: format!("https://b{i}.example/soap"),
            description: String::new(),
            tmodel_keys: vec![format!("uddi:tm-{}", i % 10)],
        });
        be.services.push(svc);
        registry.save_business(be);
    }
    registry
}

/// Entries for the third-party agency: returns the agency plus the
/// provider (whose key verifies all entries).
#[must_use]
pub fn uddi_agency(n: usize) -> (UntrustedAgency, ServiceProvider) {
    let mut rng = SecureRng::seeded(100);
    // Height chosen to cover `n` signatures.
    let height = (usize::BITS - n.next_power_of_two().leading_zeros()).max(3);
    let mut provider = ServiceProvider::new("prov", &mut rng, height);
    let mut agency = UntrustedAgency::new();
    for i in 0..n {
        let mut be = BusinessEntity::new(&format!("biz-{i}"), &format!("Business {i}"));
        let mut svc = BusinessService::new(&format!("svc-{i}"), &format!("Service {i}"));
        svc.binding_templates.push(websec_core::uddi::BindingTemplate {
            binding_key: format!("bind-{i}"),
            access_point: format!("https://b{i}.example/soap"),
            description: String::new(),
            tmodel_keys: vec![],
        });
        be.services.push(svc);
        provider.publish_to(&mut agency, &be).expect("enough keys");
    }
    (agency, provider)
}

/// An RDFS taxonomy of the given depth with `width` classes per level and
/// one typed instance per leaf class; returns the secure store with an
/// anyone-denial on the root class and the probe pattern.
#[must_use]
pub fn rdf_taxonomy(depth: usize, width: usize) -> (SecureStore, TriplePattern) {
    use websec_core::rdf::schema::rdfs;
    use websec_core::rdf::store::rdf;
    let mut ss = SecureStore::new();
    // Chain: Leaf_i ⊑ ... ⊑ Root.
    for w in 0..width {
        let mut upper = "RootSecret".to_string();
        for d in 0..depth {
            let cls = format!("C-{w}-{d}");
            ss.store.insert(&Triple::new(
                Term::iri(&cls),
                Term::iri(rdfs::SUB_CLASS_OF),
                Term::iri(&upper),
            ));
            upper = cls;
        }
        ss.store.insert(&Triple::new(
            Term::iri(&format!("instance-{w}")),
            Term::iri(rdf::TYPE),
            Term::iri(&upper),
        ));
    }
    let probe = TriplePattern::new(
        PatternTerm::Any,
        PatternTerm::Const(Term::iri(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        )),
        PatternTerm::Const(Term::iri("RootSecret")),
    );
    ss.add_authorization(RdfAuthorization {
        subject: SubjectSpec::Anyone,
        pattern: probe.clone(),
        sign: Sign::Minus,
    });
    (ss, probe)
}

/// A patient table with `rows` rows for the inference-controller study.
#[must_use]
pub fn patient_table(rows: usize) -> Table {
    let mut t = Table::new(
        "patients",
        &["id", "name", "zip", "ward", "diagnosis", "insurer"],
    );
    for i in 0..rows {
        t.insert(vec![
            (i as i64).into(),
            format!("Patient {i}").as_str().into(),
            format!("2{:04}", i % 100).as_str().into(),
            format!("w{}", i % 8).as_str().into(),
            format!("dx-{}", i % 23).as_str().into(),
            format!("ins-{}", i % 5).as_str().into(),
        ]);
    }
    t
}

/// Privacy constraints of increasing count for E7 (each over a distinct
/// attribute pair, plus the canonical name+diagnosis one).
#[must_use]
pub fn constraint_base(n: usize) -> Vec<PrivacyConstraint> {
    let columns = ["name", "zip", "ward", "diagnosis", "insurer"];
    let mut out = vec![PrivacyConstraint::new(
        &["name", "diagnosis"],
        PrivacyLevel::Private,
    )];
    let mut i = 0usize;
    while out.len() < n {
        let a = columns[i % columns.len()];
        let b = columns[(i / columns.len() + 1 + i) % columns.len()];
        if a != b {
            out.push(PrivacyConstraint::new(&[a, b], PrivacyLevel::SemiPrivate));
        }
        i += 1;
    }
    out.truncate(n.max(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_doc_scales() {
        assert!(hospital_doc(10).node_count() > 50);
        assert!(hospital_doc(100).node_count() > 500);
    }

    #[test]
    fn policy_base_modes() {
        let d = hospital_doc(10);
        for mode in [SubjectMode::Identity, SubjectMode::Role, SubjectMode::Credential] {
            let store = policy_base(8, mode, "h.xml");
            assert_eq!(store.len(), 8);
            let engine = PolicyEngine::default();
            let profile = matching_profile(mode);
            let decision =
                engine.evaluate_document(&store, &profile, "h.xml", &d, Privilege::Read);
            assert!(decision.allowed_count() > 0, "{mode:?}");
        }
    }

    #[test]
    fn registry_and_agency_sizes() {
        assert_eq!(uddi_registry(20).business_count(), 20);
        let (agency, _) = uddi_agency(8);
        assert_eq!(agency.len(), 8);
    }

    #[test]
    fn taxonomy_has_leakage_under_syntactic_mode() {
        let (ss, probe) = rdf_taxonomy(3, 2);
        let profile = SubjectProfile::new("u");
        let ctx = SecurityContext::new();
        let leak = ss.leakage(
            &profile,
            Clearance(Level::TopSecret),
            &ctx,
            &probe,
            EnforcementMode::Syntactic,
        );
        assert_eq!(leak, 2, "one leaked instance per chain");
    }

    #[test]
    fn tables_and_constraints() {
        let t = patient_table(100);
        assert_eq!(t.len(), 100);
        assert_eq!(constraint_base(5).len(), 5);
        assert_eq!(constraint_base(1).len(), 1);
    }
}
