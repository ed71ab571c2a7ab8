//! The `Deny` gate's incremental path against its full-recomputation definition.
//!
//! `StackServer::try_update` under [`AnalysisGate::Deny`] takes its
//! grandfathered baseline from the analysis memo and re-runs only the
//! passes whose input sections a mutation moved. The definition it must
//! match analyses the current configuration and the mutated copy in full,
//! compiles the copy afresh, verifies both decision planes, and admits the
//! copy only when it adds no error-severity finding. Seeded walks of gated
//! steps reach every input section — revocations and re-grants,
//! subject-specific denials, the planted WS014 tie, strategy switches,
//! collection members, privacy, RDF and label pushes, dissemination
//! audits (some holding keys past entitlement), UDDI registries,
//! registered profiles, catalog-only entries, context-condition toggles
//! and in-place document writes — and check after every step that the two
//! agree on the verdict and on the `WS109` lines, and that the memo the
//! gate leaves behind answers `analyze()` and `verify_policies()` exactly
//! as a full run over the snapshot does.

use std::collections::{BTreeSet, HashSet};

use websec_core::analyzer::policy_verify::{verify_policies, PolicyVerifyInput};
use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;
use websec_core::rdf::schema::rdfs;
use websec_core::rdf::store::rdf as rdf_vocab;
use websec_core::stack::vocab;
use websec_core::uddi::{BindingTemplate, TModel};
use websec_scenarios::{hospital_stack, HospitalSpec};

/// Seeds of the walks, and gated steps per walk.
const SEEDS: [u64; 3] = [1, 2, 3];
const STEPS: usize = 60;
/// Kinds of [`Step`]; the walks draw every one.
const KINDS: usize = 14;

/// With `WEBSEC_LOCKDEP=1` the walk must finish with zero `WS110`/`WS111`
/// findings (with detection off the list is empty by construction).
fn assert_no_sync_findings() {
    let findings = lockdep_findings();
    assert!(
        findings.is_empty(),
        "lockdep/race detector reported findings:\n{}",
        findings
            .iter()
            .map(SyncFinding::machine_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

const STRATEGIES: [ConflictStrategy; 5] = [
    ConflictStrategy::DenialsTakePrecedence,
    ConflictStrategy::PermissionsTakePrecedence,
    ConflictStrategy::MostSpecificSubject,
    ConflictStrategy::MostSpecificObject,
    ConflictStrategy::ExplicitPriority,
];

/// One gated configuration change.
#[derive(Debug, Clone)]
enum Step {
    /// Revoke this subject's identity grants, or re-grant them.
    ToggleGrant(String),
    /// Add this subject's denial on one patient, or remove it.
    ToggleDeny(String, usize),
    /// The planted equal-priority grant/deny tie under ExplicitPriority.
    Tie,
    /// Switch the engine's conflict strategy.
    Strategy(ConflictStrategy),
    /// Push a privacy constraint over two record columns.
    Privacy(&'static str, &'static str),
    /// Push a semantic store, leaky (a WS006 error) or sealed.
    Rdf(String, bool),
    /// Push a document under a condition-dependent label.
    Label(String),
    /// Audit a key holder on records.xml: the holder (first) holds the
    /// keys the second subject is entitled to now, so a holder other than
    /// that subject keeps keys past its entitlement (a WS008 error).
    Audit(String, String),
    /// Install a UDDI registry with one binding, its tModel signed or not.
    Uddi(bool),
    /// Register a subject profile.
    Profile(String),
    /// Add a catalog-only entry naming this document, which the store may
    /// not hold (a WS005 error).
    Catalog(String),
    /// Raise the context condition `drill`, or lower it.
    Condition,
    /// Rename this patient of records.xml in place (`p{i}` ↔ `q{i}`).
    Write(usize),
    /// Add this document to the `wards` collection.
    Member(&'static str),
}

fn records(path: &str) -> ObjectSpec {
    ObjectSpec::Portion {
        document: "records.xml".into(),
        path: Path::parse(path).expect("valid path"),
    }
}

fn is_identity(auth: &Authorization, subject: &str, sign: Sign) -> bool {
    auth.sign == sign && matches!(&auth.subject, SubjectSpec::Identity(id) if id == subject)
}

fn iri_triple(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// A registry exposing one binding that implements the `tm:pay` tModel.
fn registry_with_binding() -> UddiRegistry {
    let mut registry = UddiRegistry::new();
    registry.save_tmodel(TModel::new("tm:pay", "payment interface"));
    let mut service = BusinessService::new("s1", "payments");
    service.binding_templates.push(BindingTemplate {
        binding_key: "bind1".into(),
        access_point: "https://acme.example/pay".into(),
        description: String::new(),
        tmodel_keys: vec!["tm:pay".into()],
    });
    let mut business = BusinessEntity::new("b1", "Acme");
    business.services.push(service);
    registry.save_business(business);
    registry
}

/// A store whose schema closure derives a Secret premise's consequence
/// with no label (WS006); `sealed` labels the consequence too.
fn semantic_store(sealed: bool) -> SecureStore {
    let mut ss = SecureStore::new();
    ss.store
        .insert(&iri_triple("alice", rdf_vocab::TYPE, "CovertOperative"));
    ss.store.insert(&iri_triple(
        "CovertOperative",
        rdfs::SUB_CLASS_OF,
        "SecretAgent",
    ));
    let mut classes = vec!["CovertOperative"];
    if sealed {
        classes.push("SecretAgent");
    }
    for class in classes {
        ss.add_label(
            TriplePattern::new(
                PatternTerm::v("s"),
                PatternTerm::c(Term::iri(rdf_vocab::TYPE)),
                PatternTerm::c(Term::iri(class)),
            ),
            ContextLabel::fixed(Level::Secret),
        );
    }
    ss
}

impl Step {
    fn draw(rng: &mut Lcg, spec: &HospitalSpec, k: usize) -> Step {
        match rng.below(KINDS) {
            0 => Step::ToggleGrant(spec.granted_subject(rng.below(spec.granted))),
            1 => Step::ToggleDeny(
                spec.granted_subject(rng.below(spec.granted)),
                rng.below(spec.patients),
            ),
            2 => Step::Tie,
            3 => Step::Strategy(STRATEGIES[rng.below(STRATEGIES.len())]),
            4 => {
                let columns = ["name", "record", "ssn", "diagnosis"];
                Step::Privacy(
                    columns[rng.below(columns.len())],
                    columns[rng.below(columns.len())],
                )
            }
            5 => Step::Rdf(format!("store-{k}"), rng.below(3) == 0),
            6 => Step::Label(format!("note-{k}.xml")),
            7 => {
                let entitled = spec.granted_subject(rng.below(spec.granted));
                let holder = if rng.below(2) == 0 {
                    entitled.clone()
                } else {
                    spec.clerk_subject(rng.below(spec.clerks))
                };
                Step::Audit(holder, entitled)
            }
            8 => Step::Uddi(rng.below(2) == 0),
            9 => Step::Profile(spec.clerk_subject(rng.below(spec.clerks))),
            10 => Step::Catalog(if rng.below(3) == 0 {
                "secret.xml".into()
            } else {
                format!("ghost-{k}.xml")
            }),
            11 => Step::Condition,
            12 => Step::Write(rng.below(spec.patients)),
            _ => Step::Member(["records.xml", "secret.xml", "missing.xml"][rng.below(3)]),
        }
    }

    fn apply(&self, s: &mut SecureWebStack) {
        match self {
            Step::ToggleGrant(subject) => {
                let held = s
                    .policies
                    .authorizations()
                    .any(|a| is_identity(a, subject, Sign::Plus));
                if held {
                    s.policies
                        .revoke_matching(|a| is_identity(a, subject, Sign::Plus));
                } else {
                    s.policies.add(
                        Authorization::for_subject(SubjectSpec::Identity(subject.clone()))
                            .on(records("//patient"))
                            .privilege(Privilege::Read)
                            .grant(),
                    );
                }
            }
            Step::ToggleDeny(subject, patient) => {
                let held = s
                    .policies
                    .authorizations()
                    .any(|a| is_identity(a, subject, Sign::Minus));
                if held {
                    s.policies
                        .revoke_matching(|a| is_identity(a, subject, Sign::Minus));
                } else {
                    s.policies.add(
                        Authorization::for_subject(SubjectSpec::Identity(subject.clone()))
                            .on(records(&format!("//patient[@id='p{patient}']")))
                            .privilege(Privilege::Read)
                            .deny(),
                    );
                }
            }
            Step::Tie => {
                s.engine.strategy = ConflictStrategy::ExplicitPriority;
                for sign in [Sign::Plus, Sign::Minus] {
                    s.policies.add(
                        Authorization::for_subject(SubjectSpec::Anyone)
                            .on(records("//patient"))
                            .privilege(Privilege::Read)
                            .priority(3)
                            .sign(sign),
                    );
                }
            }
            Step::Strategy(strategy) => s.engine.strategy = *strategy,
            Step::Privacy(a, b) => s
                .privacy_constraints
                .push(PrivacyConstraint::new(&[a, b], PrivacyLevel::Private)),
            Step::Rdf(name, sealed) => s
                .semantic_stores
                .push((name.clone(), semantic_store(*sealed))),
            Step::Label(name) => s.add_document(
                name,
                Document::parse("<note><body>memo</body></note>").expect("well-formed"),
                ContextLabel::fixed(Level::Secret).unless_condition("drill", Level::Unclassified),
            ),
            Step::Audit(holder, entitled) => {
                let doc = s.documents.get("records.xml").expect("registered");
                let map = RegionMap::build(&s.policies, "records.xml", doc);
                let keys = KeyAuthority::new("records.xml", [5u8; 32]).keys_for(
                    &s.policies,
                    &map,
                    &SubjectProfile::new(entitled),
                );
                s.dissemination_audits
                    .push((map, vec![(SubjectProfile::new(holder), keys)]));
            }
            Step::Uddi(signed) => {
                let signed = if *signed {
                    std::iter::once("tm:pay".to_string()).collect()
                } else {
                    BTreeSet::new()
                };
                s.uddi = Some((registry_with_binding(), signed));
            }
            Step::Profile(identity) => s.registered_profiles.push(SubjectProfile::new(identity)),
            Step::Catalog(name) => {
                let entry = s.catalog.fresh_blank();
                s.catalog.insert(&Triple::new(
                    entry,
                    Term::iri(vocab::DOC_NAME),
                    Term::lit(name),
                ));
            }
            Step::Condition => {
                if !s.context.conditions.remove("drill") {
                    s.context.conditions.insert("drill".into());
                }
            }
            Step::Write(patient) => {
                let doc = s.documents.get_mut("records.xml").expect("registered");
                let node = doc.children(doc.root()).nth(*patient).expect("a patient");
                let original = format!("p{patient}");
                let id = if doc.attribute(node, "id") == Some(original.as_str()) {
                    format!("q{patient}")
                } else {
                    original
                };
                doc.set_attribute(node, "id", &id);
            }
            Step::Member(document) => s.policies.add_collection_member("wards", document),
        }
    }
}

/// The walk's starting configuration. It already carries errors (a leaky
/// store, and a grant on the `wards` collection before it has a member,
/// both grandfathered by the gate) and an equal-priority pair on one
/// patient that a switch to ExplicitPriority turns into an error tie.
fn initial_stack(spec: &HospitalSpec) -> SecureWebStack {
    let mut stack = hospital_stack(spec);
    stack
        .semantic_stores
        .push(("legacy".into(), semantic_store(false)));
    stack.table_schemas.push((
        "records".into(),
        vec![
            "name".into(),
            "record".into(),
            "ssn".into(),
            "diagnosis".into(),
        ],
    ));
    for sign in [Sign::Plus, Sign::Minus] {
        stack.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(records("//patient[@id='p0']"))
                .privilege(Privilege::Read)
                .priority(5)
                .sign(sign),
        );
    }
    stack.policies.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("ward-nurse")))
            .on(ObjectSpec::Collection("wards".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    stack
}

/// WS013–WS018 over a fresh compilation of `stack`.
fn fresh_policy_report(stack: &SecureWebStack) -> Report {
    let compiled =
        PolicySnapshot::new(&stack.policies, stack.engine.strategy, &stack.documents).compile();
    let mut input = PolicyVerifyInput::new(&compiled);
    for name in stack.documents.names() {
        if let Some(doc) = stack.documents.get(name) {
            input.documents.push((name, doc));
        }
    }
    verify_policies(&input)
}

fn error_lines(report: &Report) -> BTreeSet<String> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(Diagnostic::machine_line)
        .collect()
}

/// The gate's definition, recomputed in full: `Ok` when `step` adds no
/// error-severity finding to `current`, else the introduced lines.
fn reference_gate(current: &SecureWebStack, step: &Step) -> Result<(), BTreeSet<String>> {
    let baseline = error_lines(&current.analyze());
    let baseline_policy = error_lines(&fresh_policy_report(current));
    let mut candidate = current.clone();
    step.apply(&mut candidate);
    let introduced: BTreeSet<String> = error_lines(&candidate.analyze())
        .difference(&baseline)
        .chain(error_lines(&fresh_policy_report(&candidate)).difference(&baseline_policy))
        .cloned()
        .collect();
    if introduced.is_empty() {
        Ok(())
    } else {
        Err(introduced)
    }
}

#[test]
fn deny_gate_matches_its_full_recomputation() {
    let spec = HospitalSpec::small();
    let mut kinds = HashSet::new();
    for seed in SEEDS {
        let server = StackServer::new(initial_stack(&spec));
        server.set_analysis_gate(AnalysisGate::Deny);
        let mut rng = Lcg(seed);
        let (mut accepted, mut rejected) = (0, 0);
        for k in 0..STEPS {
            let step = Step::draw(&mut rng, &spec, k);
            kinds.insert(std::mem::discriminant(&step));
            // Now and then the generation moves first — a republication, or an
            // ungated update — so the gate finds the memo a snapshot behind
            // and brings its baseline up to date.
            match rng.below(10) {
                0 | 1 => server.invalidate_views(),
                2 => server.update(|s| {
                    s.table_schemas
                        .push((format!("audit-{k}"), vec!["event".into(), "ssn".into()]));
                }),
                _ => {}
            }
            let expected = reference_gate(&server.snapshot(), &step);
            let got = match server.try_update(|s| step.apply(s)) {
                Ok(()) => Ok(()),
                Err(Error::AnalysisRejected(lines)) => {
                    Err(lines.lines().map(str::to_string).collect::<BTreeSet<_>>())
                }
                Err(other) => panic!("seed {seed} step {k} ({step:?}): {other}"),
            };
            assert_eq!(got, expected, "seed {seed} step {k} ({step:?})");
            if got.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
            let snapshot = server.snapshot();
            assert_eq!(
                server.analyze().to_json(),
                snapshot.analyze().to_json(),
                "seed {seed} step {k} ({step:?}): analyze()"
            );
            assert_eq!(
                server.verify_policies().to_json(),
                fresh_policy_report(&snapshot).to_json(),
                "seed {seed} step {k} ({step:?}): verify_policies()"
            );
        }
        assert!(
            accepted > 0 && rejected > 0,
            "seed {seed}: {accepted} accepted, {rejected} rejected"
        );
    }
    assert_eq!(kinds.len(), KINDS, "every kind of step is drawn");
    assert_no_sync_findings();
}
