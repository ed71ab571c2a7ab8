//! Equivalence of the compiled decision path with the interpreting engine.
//!
//! The snapshot-compiled [`CompiledPolicies`] artifact (interned subjects,
//! per-equivalence-class decision tables, path automata) must be an exact
//! drop-in for [`PolicyEngine`]: same views byte-for-byte, same per-node
//! decisions, same equivalence-class partition, under every conflict
//! strategy, and the same coverage for every rule — the fact the
//! verifier reads from the tables instead of the interpreter. The
//! verifier's shadowing and dead-rule findings are checked against the
//! interpreter too: revoking flagged rules, one at a time or all of a
//! store's at once, changes no decision.
//! This suite drives that claim with seeded random policy bases, then
//! checks the server-level wiring: the server, which answers every cache
//! miss from the compiled tables, serves the interpreter's bytes,
//! revocation storms recompile exactly once per published mutation, and
//! the class-partition cross-check ([`StackServer::verify_compiled`])
//! accepts the live artifact.

use std::collections::{HashMap, HashSet};
use websec_core::analyzer::policy_verify::{run_policy_pass, PolicyPassId, PolicyVerifyInput};
use websec_core::policy::mls::ContextLabel;
use websec_core::policy::AuthzId;
use websec_core::prelude::*;
use websec_core::xml::NodeId;
use websec_scenarios::{hospital_stack, large_store, HospitalSpec, LargeStoreSpec};

const SUBJECTS: usize = 16;
/// Master-key seed byte for the server stacks under test.
const MASTER_KEY_SEED: u8 = 5;
/// Updates in the revocation-storm test, named so a failure log states the
/// exact configuration.
const STORM_UPDATES: u64 = 12;
/// Seeded stores in the rule-by-rule coverage comparison.
const COVERAGE_SEEDS: u64 = 400;

const STRATEGIES: [ConflictStrategy; 5] = [
    ConflictStrategy::DenialsTakePrecedence,
    ConflictStrategy::PermissionsTakePrecedence,
    ConflictStrategy::MostSpecificSubject,
    ConflictStrategy::MostSpecificObject,
    ConflictStrategy::ExplicitPriority,
];

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

/// A random document over a small name alphabet, with occasional text and
/// attributes so views exercise attribute serialization too.
fn random_document(rng: &mut SecureRng) -> Document {
    let mut doc = Document::new("root");
    let mut parents = vec![doc.root()];
    let nodes = 1 + rng.gen_range(19) as usize;
    for i in 0..nodes {
        let name = rng.gen_range(4);
        let parent = parents[rng.gen_range(parents.len() as u64) as usize];
        let e = doc.add_element(parent, &format!("n{name}"));
        if rng.gen_range(2) == 0 {
            doc.add_text(e, "content");
        }
        if rng.gen_range(3) == 0 {
            doc.set_attribute(e, "id", &format!("k{i}"));
        }
        parents.push(e);
    }
    doc
}

/// One random authorization: grant/deny, optional portion path (`None` =
/// whole document), subject selector, propagation, priority, privilege.
struct RuleSpec {
    grant: bool,
    path: Option<String>,
    subj: u8,
    prop: u8,
    priority: i32,
    browse: bool,
}

fn random_policies(rng: &mut SecureRng) -> Vec<RuleSpec> {
    let n = rng.gen_range(7) as usize;
    (0..n)
        .map(|_| {
            let name = rng.gen_range(4);
            let path = match rng.gen_range(3) {
                0 => None,
                1 => Some(format!("//n{name}")),
                _ => Some(format!("/root/n{name}")),
            };
            RuleSpec {
                grant: rng.gen_range(2) == 0,
                path,
                subj: rng.gen_range(5) as u8,
                prop: rng.gen_range(3) as u8,
                priority: rng.gen_range(7) as i32 - 3,
                browse: rng.gen_range(4) == 0,
            }
        })
        .collect()
}

fn build_store(rules: &[RuleSpec]) -> PolicyStore {
    let mut store = PolicyStore::new();
    for rule in rules {
        let subject = match rule.subj {
            0 => SubjectSpec::Anyone,
            1 => SubjectSpec::Identity("alice".into()),
            2 => SubjectSpec::InRole(Role::new("staff")),
            3 => SubjectSpec::WithCredentials(CredentialExpr::OfType("physician".into())),
            _ => SubjectSpec::Identity("bob".into()),
        };
        let object = match &rule.path {
            None => ObjectSpec::Document("d.xml".into()),
            Some(p) => ObjectSpec::Portion {
                document: "d.xml".into(),
                path: Path::parse(p).unwrap(),
            },
        };
        let propagation = match rule.prop {
            0 => Propagation::None,
            1 => Propagation::FirstLevel,
            _ => Propagation::Cascade,
        };
        let privilege = if rule.browse { Privilege::Browse } else { Privilege::Read };
        let builder = Authorization::for_subject(subject)
            .on(object)
            .privilege(privilege)
            .propagation(propagation)
            .priority(rule.priority);
        store.add(if rule.grant { builder.grant() } else { builder.deny() });
    }
    store
}

/// Profiles chosen so every subject selector in [`build_store`] matches at
/// least one of them and none matches all of them.
fn profiles() -> Vec<SubjectProfile> {
    vec![
        SubjectProfile::new("alice").with_role(Role::new("staff")),
        SubjectProfile::new("bob").with_credential(Credential::new("physician", "bob")),
        SubjectProfile::new("carol"),
    ]
}

fn compile_one(
    store: &PolicyStore,
    strategy: ConflictStrategy,
    doc: &Document,
) -> std::sync::Arc<CompiledPolicies> {
    let mut docs = DocumentStore::new();
    docs.insert("d.xml", doc.clone());
    PolicySnapshot::new(store, strategy, &docs).compile()
}

/// The tentpole's correctness bar: across 100 seeded random policy bases
/// (cycling all five conflict strategies), the compiled tables return the
/// same view byte-for-byte and the same per-node decision as the
/// interpreting engine, for every profile and privilege.
#[test]
fn compiled_matches_interpreter_across_100_seeds() {
    for seed in 0..100u64 {
        let mut rng = SecureRng::seeded(0xc0de_0000 + seed);
        let doc = random_document(&mut rng);
        let rules = random_policies(&mut rng);
        let store = build_store(&rules);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let compiled = compile_one(&store, strategy, &doc);
        let engine = PolicyEngine::new(strategy);
        for profile in profiles() {
            let interpreted = engine.compute_view(&store, &profile, "d.xml", &doc);
            let fast = compiled
                .compute_view(&profile, "d.xml", &doc)
                .expect("document was part of the compiled snapshot");
            assert_eq!(
                interpreted.to_xml_string(),
                fast.to_xml_string(),
                "seed {seed} ({strategy:?}): view diverged for {:?}",
                profile.identity
            );
            for node in doc.all_nodes() {
                for privilege in [Privilege::Browse, Privilege::Read, Privilege::Write] {
                    assert_eq!(
                        compiled.check(&profile, "d.xml", node, privilege),
                        Some(engine.check(&store, &profile, "d.xml", &doc, node, privilege)),
                        "seed {seed} ({strategy:?}): {privilege:?} decision diverged at {node:?}"
                    );
                }
            }
        }
    }
    assert_no_sync_findings();
}

/// The two documents of [`rich_stack`], so document-scoped rules and the
/// one-member collection each meet a document they do not cover.
const RICH_DOCS: [&str; 2] = ["d.xml", "e.xml"];

/// Paths of [`rich_stack`]: element and attribute targets, attribute and
/// positional predicates (positional ones fall back to the interpreter's
/// selection inside the compiler).
const RICH_PATHS: [&str; 9] = [
    "//n0",
    "/root/n1",
    "//n1/@id",
    "//@ssn",
    "//n2[@id='k3']",
    "/root/n0[1]",
    "//n3[2]",
    "/root/*/@ssn",
    "//n1[@ssn='s1']/@id",
];

/// A [`random_document`] with an `ssn` attribute on some elements, so
/// `//@ssn` has something to select.
fn rich_document(rng: &mut SecureRng) -> Document {
    let mut doc = random_document(rng);
    for node in doc.all_nodes() {
        if doc.name(node).is_some() && rng.gen_range(4) == 0 {
            doc.set_attribute(node, "ssn", &format!("s{}", rng.gen_range(3)));
        }
    }
    doc
}

/// A seeded policy base over [`RICH_DOCS`] with every coverage shape the
/// analyzer reads from the tables: attribute-targeting paths, attribute
/// and positional predicates, `PortionAll`, `Collection` and
/// `AllDocuments` objects, rules on an unregistered document, revoked
/// rules, a seniority edge and all four privileges.
fn rich_stack(rng: &mut SecureRng) -> (PolicyStore, DocumentStore) {
    let mut docs = DocumentStore::new();
    for name in RICH_DOCS {
        docs.insert(name, rich_document(rng));
    }
    let mut store = PolicyStore::new();
    store
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("staff"));
    store.add_collection_member("ward", RICH_DOCS[rng.gen_range(2) as usize]);
    for _ in 0..1 + rng.gen_range(8) {
        let document = match rng.gen_range(5) {
            0 => "ghost.xml",
            1 | 2 => RICH_DOCS[0],
            _ => RICH_DOCS[1],
        };
        let path =
            Path::parse(RICH_PATHS[rng.gen_range(RICH_PATHS.len() as u64) as usize]).unwrap();
        let object = match rng.gen_range(6) {
            0 => ObjectSpec::AllDocuments,
            1 => ObjectSpec::Collection("ward".into()),
            2 => ObjectSpec::Document(document.into()),
            3 => ObjectSpec::PortionAll(path),
            _ => ObjectSpec::Portion {
                document: document.into(),
                path,
            },
        };
        let subject = match rng.gen_range(6) {
            0 => SubjectSpec::Anyone,
            1 => SubjectSpec::Identity("alice".into()),
            2 => SubjectSpec::InRole(Role::new("staff")),
            3 => SubjectSpec::InRole(Role::new("chief")),
            4 => SubjectSpec::WithCredentials(CredentialExpr::OfType("physician".into())),
            _ => SubjectSpec::Identity("bob".into()),
        };
        let privilege = [
            Privilege::Browse,
            Privilege::Read,
            Privilege::Write,
            Privilege::Admin,
        ][rng.gen_range(4) as usize];
        let propagation = match rng.gen_range(3) {
            0 => Propagation::None,
            1 => Propagation::FirstLevel,
            _ => Propagation::Cascade,
        };
        let builder = Authorization::for_subject(subject)
            .on(object)
            .privilege(privilege)
            .propagation(propagation)
            .priority(rng.gen_range(5) as i32 - 2);
        let rule = if rng.gen_range(2) == 0 {
            builder.grant()
        } else {
            builder.deny()
        };
        let id = store.add(rule);
        if rng.gen_range(6) == 0 {
            store.revoke(id);
        }
    }
    (store, docs)
}

/// Each rule's coverage read from the compiled tables — the nodes of the
/// classes it covers plus the `(node, attribute)` pairs it selects — is
/// exactly [`PolicyEngine::covered_nodes`], for every rule and document of
/// seeded [`rich_stack`] stores, denials and attribute rules included.
/// The verifier reads coverage only from the tables, so this is the fact
/// its WS013–WS015 findings rest on.
#[test]
fn compiled_coverage_matches_interpreter_rule_by_rule() {
    let mut compared = 0usize;
    let mut attribute_rules = 0usize;
    for seed in 0..COVERAGE_SEEDS {
        let mut rng = SecureRng::seeded(0xc07e_0000 + seed);
        let (store, docs) = rich_stack(&mut rng);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let compiled = PolicySnapshot::new(&store, strategy, &docs).compile();
        for name in docs.names() {
            let doc = docs.get(name).unwrap();
            let classes = compiled.classes_of(name).expect("document was compiled");
            let attrs = compiled.attrs_of(name).expect("document was compiled");
            for auth in store.authorizations() {
                let mut nodes: Vec<NodeId> = classes
                    .iter()
                    .filter(|class| class.auths.iter().any(|a| a.id == auth.id))
                    .flat_map(|class| class.nodes.iter().copied())
                    .collect();
                nodes.sort_unstable();
                let mut pairs: Vec<(NodeId, String)> = attrs
                    .iter()
                    .filter(|entry| entry.auths.iter().any(|a| a.id == auth.id))
                    .map(|entry| (entry.node, entry.attribute.to_string()))
                    .collect();
                pairs.sort();
                let (mut want_nodes, mut want_pairs) =
                    PolicyEngine::covered_nodes(&store, auth, name, doc).unwrap_or_default();
                want_nodes.sort_unstable();
                want_pairs.sort();
                assert_eq!(
                    (nodes, &pairs),
                    (want_nodes, &want_pairs),
                    "seed {seed} ({strategy:?}): coverage of rule #{} diverged on '{name}'",
                    auth.id.0
                );
                compared += 1;
                attribute_rules += usize::from(!pairs.is_empty());
            }
        }
    }
    assert!(compared > 1_000, "only {compared} coverages compared");
    assert!(
        attribute_rules > 100,
        "only {attribute_rules} coverages selected attributes"
    );
    assert_no_sync_findings();
}

/// The class-numbering contract of the compiled tables: class ids follow
/// the document order in which each class first appears, every live node
/// of a compiled document has exactly one class, and every class and
/// attribute entry lists its rules in ascending policy-base order.
#[test]
fn class_numbering_follows_document_order() {
    let mut classes_seen = 0usize;
    for seed in 0..COVERAGE_SEEDS {
        let mut rng = SecureRng::seeded(0xc1a5_0000 + seed);
        let (store, docs) = rich_stack(&mut rng);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let compiled = PolicySnapshot::new(&store, strategy, &docs).compile();
        let order = |id: AuthzId| {
            store
                .authorizations()
                .iter()
                .position(|a| a.id == id)
                .expect("compiled rule comes from the store")
        };
        let ascending =
            |rules: &[&Authorization]| rules.windows(2).all(|w| order(w[0].id) < order(w[1].id));
        for name in docs.names() {
            let live = docs.get(name).unwrap().all_nodes();
            let at = |node: NodeId| live.iter().position(|&n| n == node).unwrap();
            let classes = compiled.classes_of(name).expect("document was compiled");
            let mut covered: Vec<NodeId> = Vec::new();
            for (i, class) in classes.iter().enumerate() {
                assert_eq!(class.class as usize, i, "seed {seed}: class ids are dense");
                assert!(
                    ascending(&class.auths),
                    "seed {seed}: class {i} rules unsorted"
                );
                let positions: Vec<usize> = class.nodes.iter().map(|&n| at(n)).collect();
                assert!(
                    positions.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: class {i} nodes out of document order"
                );
                covered.extend(&class.nodes);
            }
            let firsts: Vec<usize> = classes.iter().map(|c| at(c.nodes[0])).collect();
            assert!(
                firsts.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: '{name}' classes not numbered in first-appearance order"
            );
            covered.sort_unstable();
            let mut want = live.clone();
            want.sort_unstable();
            assert_eq!(
                covered, want,
                "seed {seed}: '{name}' live nodes and classes differ"
            );
            let entries = compiled.attrs_of(name).expect("document was compiled");
            for entry in &entries {
                assert!(
                    ascending(&entry.auths),
                    "seed {seed}: attribute rules unsorted"
                );
            }
            assert!(
                entries.windows(2).all(|w| at(w[0].node) <= at(w[1].node)),
                "seed {seed}: attribute entries out of document order"
            );
            classes_seen += classes.len();
        }
    }
    assert!(classes_seen > 1_000, "only {classes_seen} classes checked");
    assert_no_sync_findings();
}

/// Seeded [`rich_stack`] stores in the verifier oracle.
const REDUNDANCY_SEEDS: u64 = 1_000;

/// Profiles for the verifier oracle: one holding each [`rich_stack`]
/// subject spec besides `Anyone` (`carol` holds none, and a `chief` also
/// acts as `staff`), then two holding two specs of their own.
fn oracle_profiles() -> Vec<SubjectProfile> {
    vec![
        SubjectProfile::new("carol"),
        SubjectProfile::new("alice"),
        SubjectProfile::new("bob"),
        SubjectProfile::new("dave").with_role(Role::new("staff")),
        SubjectProfile::new("erin").with_role(Role::new("chief")),
        SubjectProfile::new("frank").with_credential(Credential::new("physician", "frank")),
        SubjectProfile::new("alice").with_role(Role::new("chief")),
        SubjectProfile::new("bob").with_credential(Credential::new("physician", "bob")),
    ]
}

/// Every interpreted decision over document `name` of `docs` under
/// `store`: per profile, the view and, per privilege, the node and
/// attribute decisions. Each (profile, document, privilege) is evaluated
/// once and read at every node: `PolicyEngine::compute_view` is the Read
/// decision's `view`, and `PolicyEngine::check` at a node is
/// `evaluate_document(..).is_allowed(node)`.
fn interpreted_decisions(
    engine: &PolicyEngine,
    store: &PolicyStore,
    docs: &DocumentStore,
    name: &str,
    profiles: &[SubjectProfile],
) -> Vec<(String, Vec<bool>)> {
    let doc = docs.get(name).unwrap();
    profiles
        .iter()
        .map(|profile| {
            let mut view = String::new();
            let mut decisions = Vec::new();
            for privilege in [
                Privilege::Browse,
                Privilege::Read,
                Privilege::Write,
                Privilege::Admin,
            ] {
                let decision = engine.evaluate_document(store, profile, name, doc, privilege);
                if privilege == Privilege::Read {
                    view = decision.view(doc).to_xml_string();
                }
                for node in doc.all_nodes() {
                    decisions.push(decision.is_allowed(node));
                    for (attribute, _) in doc.attributes(node) {
                        decisions.push(decision.attr_allowed(node, attribute));
                    }
                }
            }
            (view, decisions)
        })
        .collect()
}

/// The documents of `docs` whose decisions revoking `rules` can change:
/// the one a `Document` or `Portion` object names, and every document
/// once a rule's object is `AllDocuments`, a `Collection` or `PortionAll`.
/// The interpreter applies a rule only to documents its object names.
fn documents_named<'a>(rules: &[&Authorization], docs: &'a DocumentStore) -> Vec<&'a str> {
    let mut named = HashSet::new();
    for rule in rules {
        match &rule.object {
            ObjectSpec::Document(name) | ObjectSpec::Portion { document: name, .. } => {
                named.insert(name.as_str());
            }
            ObjectSpec::AllDocuments | ObjectSpec::Collection(_) | ObjectSpec::PortionAll(_) => {
                return docs.names();
            }
        }
    }
    docs.names()
        .into_iter()
        .filter(|name| named.contains(name))
        .collect()
}

/// The rules the verifier calls redundant in `compiled`: each WS013 and
/// WS015 finding with the rule it flags (the last one its span names).
/// A WS013 span names two rules when another rule dominates the flagged
/// one and one when the flagged denial loses to every grant it can meet.
fn flagged_rules(compiled: &CompiledPolicies, docs: &DocumentStore) -> Vec<(Diagnostic, AuthzId)> {
    let mut input = PolicyVerifyInput::new(compiled);
    for name in docs.names() {
        input = input.with_document(name, docs.get(name).unwrap());
    }
    [PolicyPassId::Ws013, PolicyPassId::Ws015]
        .into_iter()
        .flat_map(|pass| run_policy_pass(&input, pass))
        .map(|finding| {
            let id = finding.span.rsplit('#').next().unwrap().parse().unwrap();
            (finding, AuthzId(id))
        })
        .collect()
}

/// Flagged rules checked by [`assert_flagged_rules_are_redundant`], per
/// kind.
#[derive(Default)]
struct Redundant {
    dominated: usize,
    beaten_denials: usize,
    dead: usize,
}

/// Revokes each rule the verifier flags in `store` (compiled under
/// `strategy` over `docs`), one at a time and then all together, and
/// asserts that no interpreted decision or view changes for `profiles`.
fn assert_flagged_rules_are_redundant(
    store: &PolicyStore,
    docs: &DocumentStore,
    strategy: ConflictStrategy,
    profiles: &[SubjectProfile],
    label: &str,
    counts: &mut Redundant,
) {
    let compiled = PolicySnapshot::new(store, strategy, docs).compile();
    let flagged = flagged_rules(&compiled, docs);
    if flagged.is_empty() {
        return;
    }
    let engine = PolicyEngine::new(strategy);
    let before: HashMap<&str, _> = docs
        .names()
        .into_iter()
        .map(|name| {
            (
                name,
                interpreted_decisions(&engine, store, docs, name, profiles),
            )
        })
        .collect();
    // True when revoking `rules` (already gone from `without`) leaves the
    // decisions of every document they can name as they were.
    let unchanged = |without: &PolicyStore, rules: &[&Authorization]| {
        documents_named(rules, docs).into_iter().all(|name| {
            interpreted_decisions(&engine, without, docs, name, profiles) == before[name]
        })
    };
    let rule = |id: AuthzId| store.authorizations().iter().find(|a| a.id == id).unwrap();
    let mut all = store.clone();
    for (finding, id) in &flagged {
        let mut without = store.clone();
        assert!(without.revoke(*id), "{label}: no rule #{}", id.0);
        assert!(
            unchanged(&without, &[rule(*id)]),
            "{label} ({strategy:?}): revoking the flagged rule changes a decision: {}",
            finding.machine_line()
        );
        all.revoke(*id);
        match (finding.code, finding.span.starts_with("authorizations ")) {
            ("WS013", true) => counts.dominated += 1,
            ("WS013", false) => counts.beaten_denials += 1,
            _ => counts.dead += 1,
        }
    }
    // With one flagged rule, the loop above already revoked "all".
    let revoked: Vec<&Authorization> = flagged.iter().map(|(_, id)| rule(*id)).collect();
    assert!(
        flagged.len() == 1 || unchanged(&all, &revoked),
        "{label} ({strategy:?}): revoking all {} flagged rules together changes a decision",
        flagged.len()
    );
}

/// Profiles for the large-store oracle: each identity the store's
/// specific grants name, plus one it does not, holding no role or one of
/// the hierarchy's four, with and without a physician credential.
fn large_store_oracle_profiles(policies: &PolicyStore) -> Vec<SubjectProfile> {
    let mut identities: Vec<String> = policies
        .authorizations()
        .iter()
        .filter_map(|a| match &a.subject {
            SubjectSpec::Identity(who) => Some(who.clone()),
            _ => None,
        })
        .collect();
    identities.sort();
    identities.dedup();
    identities.push("carol".into());
    let mut out = Vec::new();
    for who in &identities {
        for role in [None, Some("staff"), Some("resident"), Some("attending"), Some("chief")] {
            for physician in [false, true] {
                let mut profile = SubjectProfile::new(who);
                if let Some(role) = role {
                    profile = profile.with_role(Role::new(role));
                }
                if physician {
                    profile = profile.with_credential(Credential::new("physician", who));
                }
                out.push(profile);
            }
        }
    }
    out
}

/// A 40-document store from the generator `serving_bench` and wsbench's
/// `cold_reads` run at 100,000 documents: 8 subjects, 4 specific grants.
fn small_large_store() -> (PolicyStore, DocumentStore) {
    let (policies, docs, _) = large_store(&LargeStoreSpec {
        docs: 40,
        subjects: 8,
        specific_auths: 4,
    });
    (policies, docs)
}

/// Verifies the verifier: a rule that WS013 calls shadowed or WS015 calls
/// dead is redundant, so revoking it leaves every interpreted decision
/// and view unchanged (Gabillon's redundancy test, "A Logical
/// Formalization of a Secure XML Database"), and so does revoking every
/// flagged rule of a store at once. Checked over seeded [`rich_stack`]
/// stores under all five strategies, for profiles holding one subject
/// spec or two, and over the 40-document large store under all five
/// strategies too, for identity × role × credential profiles (about 5 to
/// 7 s of a debug run per strategy).
#[test]
fn rules_the_verifier_flags_are_redundant() {
    let profiles = oracle_profiles();
    let mut counts = Redundant::default();
    for seed in 0..REDUNDANCY_SEEDS {
        let mut rng = SecureRng::seeded(0xc07e_0000 + seed);
        let (store, docs) = rich_stack(&mut rng);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let label = format!("seed {seed}");
        assert_flagged_rules_are_redundant(&store, &docs, strategy, &profiles, &label, &mut counts);
    }
    assert!(counts.dominated >= 120, "only {} dominated rules checked", counts.dominated);
    assert!(counts.beaten_denials >= 850, "only {} beaten denials checked", counts.beaten_denials);
    assert!(counts.dead >= 1_000, "only {} dead rules checked", counts.dead);

    let (policies, docs) = small_large_store();
    let profiles = large_store_oracle_profiles(&policies);
    for strategy in STRATEGIES {
        let mut counts = Redundant::default();
        assert_flagged_rules_are_redundant(
            &policies,
            &docs,
            strategy,
            &profiles,
            "large store",
            &mut counts,
        );
        assert!(
            counts.dominated >= 5,
            "only {} large-store rules checked under {strategy:?}",
            counts.dominated
        );
    }
    assert_no_sync_findings();
}

/// Two rules a shadowing check must not flag, because each decides a
/// view: rule #3 of [`rich_stack`] seed 70 (deny `Read` on `//n0` to
/// `alice`, first-level propagation) under deny-precedence, and the
/// physician denial #14 on `//audit` of the 40-document large store. A
/// profile holding two subject specs meets both a grant and the denial,
/// so revoking the denial changes its view. Neither the analyzer nor the
/// verifier names either rule.
#[test]
fn rules_that_decide_a_view_are_not_flagged() {
    let mut rng = SecureRng::seeded(0xc07e_0000 + 70);
    let (store, docs) = rich_stack(&mut rng);
    let alice_chief = SubjectProfile::new("alice").with_role(Role::new("chief"));
    let lengths = assert_decisive_and_unflagged(
        &store,
        &docs,
        STRATEGIES[70 % 5],
        AuthzId(3),
        &alice_chief,
        "d.xml",
    );
    // An `<n0 ssn="s0"/>` appears once the denial is gone.
    assert_eq!(lengths, (43, 57));

    let (policies, docs) = small_large_store();
    let physician_chief = SubjectProfile::new("subject-0")
        .with_role(Role::new("chief"))
        .with_credential(Credential::new("physician", "subject-0"));
    let lengths = assert_decisive_and_unflagged(
        &policies,
        &docs,
        ConflictStrategy::DenialsTakePrecedence,
        AuthzId(14),
        &physician_chief,
        "r0.xml",
    );
    // An empty `<audit/>` appears once the physician denial is gone: the
    // chief's grant reaches it, while `sig` stays denied to the staff and
    // resident roles a chief dominates.
    assert_eq!(lengths, (103, 111));
    assert_no_sync_findings();
}

/// Asserts that revoking `rule` from `store` changes the interpreted
/// view of `doc` for `profile`, and that neither the analyzer nor the
/// verifier flags `rule`. Returns the view's length before and after.
fn assert_decisive_and_unflagged(
    store: &PolicyStore,
    docs: &DocumentStore,
    strategy: ConflictStrategy,
    rule: AuthzId,
    profile: &SubjectProfile,
    doc: &str,
) -> (usize, usize) {
    let engine = PolicyEngine::new(strategy);
    let view = |store: &PolicyStore| {
        engine
            .compute_view(store, profile, doc, docs.get(doc).unwrap())
            .to_xml_string()
    };
    let mut without = store.clone();
    assert!(without.revoke(rule));
    let (before, after) = (view(store), view(&without));
    assert_ne!(before, after, "revoking #{} must change the view", rule.0);

    let mut stack = SecureWebStack::new([MASTER_KEY_SEED; 32]);
    for name in docs.names() {
        let label = ContextLabel::fixed(Level::Unclassified);
        stack.add_document(name, docs.get(name).unwrap().clone(), label);
    }
    stack.policies = store.clone();
    stack.engine = engine;
    let span = format!("authorization #{}", rule.0);
    let report = stack.analyze();
    assert!(
        report.diagnostics.iter().all(|d| d.span != span),
        "the analyzer flags decisive #{}: {}",
        rule.0,
        report.human()
    );
    let compiled = PolicySnapshot::new(store, strategy, docs).compile();
    let flagged = flagged_rules(&compiled, docs);
    assert!(
        flagged.iter().all(|(_, id)| *id != rule),
        "the verifier flags decisive #{}: {:?}",
        rule.0,
        flagged
    );
    (before.len(), after.len())
}

/// A deliberately per-node WS018: for each element with element
/// children, in document order, the first witness that
/// [`CompiledPolicies::check`] denies `Read` on the element and grants on
/// every element child. The witnesses are derived from the policy base
/// like the verifier's (the anonymous subject, then one per distinct
/// subject spec); only the `OfType` credential shape the generators use
/// is supported.
fn ws018_reference(compiled: &CompiledPolicies, docs: &DocumentStore) -> Vec<String> {
    let mut witnesses: Vec<SubjectProfile> = vec![SubjectProfile::new("ws018:anonymous")];
    for auth in compiled.source_authorizations() {
        let witness = match &auth.subject {
            SubjectSpec::Anyone => continue,
            SubjectSpec::Identity(who) => SubjectProfile::new(who),
            SubjectSpec::InRole(role) => {
                SubjectProfile::new(&format!("ws018:role:{}", role.0)).with_role(role.clone())
            }
            SubjectSpec::WithCredentials(CredentialExpr::OfType(kind)) => {
                SubjectProfile::new("ws018:credentialed")
                    .with_credential(Credential::new(kind, "ws018:witness"))
            }
            SubjectSpec::WithCredentials(other) => panic!("unsupported witness shape {other:?}"),
        };
        if !witnesses
            .iter()
            .any(|w| format!("{w:?}") == format!("{witness:?}"))
        {
            witnesses.push(witness);
        }
    }
    let mut lines = Vec::new();
    for name in docs.names() {
        let doc = docs.get(name).unwrap();
        let read =
            |who: &SubjectProfile, node: NodeId| compiled.check(who, name, node, Privilege::Read);
        for node in doc.all_nodes() {
            let Some(elem) = doc.name(node) else { continue };
            let children: Vec<NodeId> = doc
                .children(node)
                .filter(|&c| doc.name(c).is_some())
                .collect();
            if children.is_empty() {
                continue;
            }
            let witness = witnesses.iter().find(|w| {
                read(w, node) == Some(AccessDecision::Denied)
                    && children
                        .iter()
                        .all(|&c| read(w, c) == Some(AccessDecision::Granted))
            });
            if let Some(witness) = witness {
                lines.push(format!(
                    "WS018|warning|document '{name}' element '{elem}'|inference channel: \
                     subject '{}' is denied Read on <{elem}> but granted all {} element \
                     children — the permitted views compose to the denied element's content",
                    witness.identity,
                    children.len()
                ));
            }
        }
    }
    lines.sort();
    lines
}

/// WS018's machine lines over `docs` equal [`ws018_reference`]'s.
fn assert_ws018_matches_reference(
    compiled: &CompiledPolicies,
    docs: &DocumentStore,
    what: &str,
) -> usize {
    let mut input = PolicyVerifyInput::new(compiled);
    for name in docs.names() {
        input = input.with_document(name, docs.get(name).unwrap());
    }
    let mut found: Vec<String> = run_policy_pass(&input, PolicyPassId::Ws018)
        .iter()
        .map(Diagnostic::machine_line)
        .collect();
    found.sort();
    assert_eq!(
        found,
        ws018_reference(compiled, docs),
        "{what}: WS018 diverged"
    );
    found.len()
}

/// WS018 decides each element and child from its equivalence class; its
/// findings equal the per-(witness, node) reference on seeded
/// [`rich_stack`] stores, the bench hospital and a 64-document large
/// store, under every strategy.
#[test]
fn ws018_matches_a_per_node_reference() {
    let mut findings = 0usize;
    for seed in 0..COVERAGE_SEEDS {
        let mut rng = SecureRng::seeded(0x1f18_0000 + seed);
        let (store, docs) = rich_stack(&mut rng);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let compiled = PolicySnapshot::new(&store, strategy, &docs).compile();
        findings += assert_ws018_matches_reference(&compiled, &docs, &format!("seed {seed}"));
    }
    assert!(findings > 20, "only {findings} rich-store findings");

    let hospital = hospital_stack(&HospitalSpec::bench());
    let large = LargeStoreSpec {
        docs: 64,
        subjects: 32,
        specific_auths: 16,
    };
    let (large_policies, large_docs, _) = large_store(&large);
    for strategy in STRATEGIES {
        let compiled =
            PolicySnapshot::new(&hospital.policies, strategy, &hospital.documents).compile();
        assert_ws018_matches_reference(&compiled, &hospital.documents, "hospital");
        let compiled = PolicySnapshot::new(&large_policies, strategy, &large_docs).compile();
        assert_ws018_matches_reference(&compiled, &large_docs, "large store");
    }
    assert_no_sync_findings();
}

/// The equivalence-class partition the analyzer reasons about survives
/// compilation exactly, for both Browse and Read relevance.
#[test]
fn equivalence_classes_survive_compilation() {
    for seed in 0..100u64 {
        let mut rng = SecureRng::seeded(0xe9c1_0000 + seed);
        let doc = random_document(&mut rng);
        let rules = random_policies(&mut rng);
        let store = build_store(&rules);
        let strategy = STRATEGIES[(seed % 5) as usize];
        let compiled = compile_one(&store, strategy, &doc);
        for privilege in [Privilege::Browse, Privilege::Read] {
            let interpreted =
                PolicyEngine::policy_equivalence_classes(&store, "d.xml", &doc, privilege);
            assert_eq!(
                compiled.equivalence_classes("d.xml", privilege),
                Some(interpreted),
                "seed {seed} ({strategy:?}): {privilege:?} partition diverged"
            );
        }
    }
    assert_no_sync_findings();
}

/// A hand-built conflicting rule set that *does* discriminate between
/// strategies: each strategy's compiled view matches its interpreter, and
/// at least two strategies disagree with each other (so the agreement is
/// not vacuous).
#[test]
fn all_strategies_agree_with_their_interpreter_on_conflicts() {
    let doc = Document::parse(
        "<root><n0 id=\"a\"><n1>ward</n1></n0><n2><n1>lab</n1></n2></root>",
    )
    .unwrap();
    let mut store = PolicyStore::new();
    store.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document("d.xml".into()))
            .privilege(Privilege::Read)
            .propagation(Propagation::Cascade)
            .priority(1)
            .grant(),
    );
    store.add(
        Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::Portion {
                document: "d.xml".into(),
                path: Path::parse("//n1").unwrap(),
            })
            .privilege(Privilege::Read)
            .priority(5)
            .deny(),
    );
    store.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("staff")))
            .on(ObjectSpec::Portion {
                document: "d.xml".into(),
                path: Path::parse("/root/n0").unwrap(),
            })
            .privilege(Privilege::Read)
            .propagation(Propagation::FirstLevel)
            .priority(3)
            .grant(),
    );

    let alice = SubjectProfile::new("alice").with_role(Role::new("staff"));
    let mut alice_views = HashSet::new();
    for strategy in STRATEGIES {
        let compiled = compile_one(&store, strategy, &doc);
        let engine = PolicyEngine::new(strategy);
        for profile in profiles() {
            let interpreted = engine.compute_view(&store, &profile, "d.xml", &doc);
            let fast = compiled.compute_view(&profile, "d.xml", &doc).unwrap();
            assert_eq!(
                interpreted.to_xml_string(),
                fast.to_xml_string(),
                "{strategy:?}: view diverged for {:?}",
                profile.identity
            );
        }
        alice_views.insert(
            engine.compute_view(&store, &alice, "d.xml", &doc).to_xml_string(),
        );
    }
    assert!(
        alice_views.len() > 1,
        "the conflict set must actually discriminate between strategies"
    );
    assert_no_sync_findings();
}

/// A document absent from the compiled snapshot answers `None` (the server
/// falls back to the interpreter) rather than a wrong decision.
#[test]
fn unknown_document_is_none_not_wrong() {
    let doc = Document::parse("<root><n0>x</n0></root>").unwrap();
    let store = PolicyStore::new();
    let docs = DocumentStore::new();
    let compiled = PolicySnapshot::new(&store, ConflictStrategy::default(), &docs).compile();
    let profile = SubjectProfile::new("x");
    assert!(compiled.compute_view(&profile, "d.xml", &doc).is_none());
    assert!(compiled
        .check(&profile, "d.xml", doc.root(), Privilege::Read)
        .is_none());
    assert!(compiled
        .attr_allowed(&profile, "d.xml", doc.root(), "id", Privilege::Read)
        .is_none());
    assert_no_sync_findings();
}

// ---------------------------------------------------------------------------
// Server-level wiring.
// ---------------------------------------------------------------------------

/// The server stacks under test come from the shared scenario corpus:
/// [`HospitalSpec::small`] is exactly the 40-patient, 8-grant,
/// `[MASTER_KEY_SEED; 32]`-keyed stack this file used to build by hand.
fn build_stack() -> SecureWebStack {
    let spec = HospitalSpec::small();
    assert_eq!(spec.master_seed, MASTER_KEY_SEED);
    assert_eq!(spec.granted, SUBJECTS / 2);
    hospital_stack(&spec)
}

/// Mixed allow/deny/error traffic (same shape as the serving suite).
fn build_requests(n: usize) -> Vec<QueryRequest> {
    (0..n)
        .map(|i| {
            let subject = SubjectProfile::new(&format!("subject-{}", i % SUBJECTS));
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
                QueryRequest::for_doc("records.xml")
                    .path(Path::parse(&format!("//patient[@id='p{}']", i % 40)).unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            }
        })
        .collect()
}

/// The server, which answers every cache miss from the snapshot's compiled
/// tables, serves the interpreter's bytes: each response equals
/// [`SecureWebStack::execute`] of the same request in payload, decision
/// and error code, and every miss is counted as a compiled view build.
#[test]
fn server_serves_the_interpreters_bytes() {
    let requests = build_requests(512);
    let server = StackServer::new(build_stack());
    let oracle = build_stack();

    let mut misses = 0u64;
    for (i, request) in requests.iter().enumerate() {
        match (server.serve(request), oracle.execute(request)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.xml, want.xml, "request {i}: payload diverged");
                assert_eq!(
                    got.decision, want.decision,
                    "request {i}: decision diverged"
                );
                if got.cache == CacheStatus::Miss {
                    misses += 1;
                }
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.code(), want.code(), "request {i}: error code diverged");
            }
            (got, want) => panic!(
                "request {i}: server and interpreter disagree on success: {got:?} vs {want:?}"
            ),
        }
    }
    assert!(misses > 0, "traffic never missed the view cache");

    let metrics = server.metrics();
    assert_eq!(metrics.compiled_hits, misses);
    assert!(metrics.compile_ns > 0, "table lookups were never timed");
    assert_no_sync_findings();
}

/// A revocation storm recompiles exactly once per published mutation:
/// construction counts as compile #1, every `update` adds one, and cache
/// invalidation (which republishes the unchanged stack) adds zero.
#[test]
fn revocation_storm_recompiles_exactly_once_per_update() {
    let server = StackServer::new(build_stack());
    assert_eq!(server.snapshot_compiles(), 1, "construction compiles once");
    let base_auths = server.compiled_policies().auth_count();

    let request = QueryRequest::for_doc("records.xml")
        .path(Path::parse("//patient[@id='p1']").unwrap())
        .subject(&SubjectProfile::new("subject-1"))
        .clearance(Clearance(Level::Unclassified));
    let granted = server.serve(&request).unwrap();
    assert!(granted.xml.contains("N1"), "subject-1 starts with a grant");

    for i in 0..STORM_UPDATES {
        server.update(|stack| {
            stack.policies.add(
                Authorization::for_subject(SubjectSpec::Identity(format!("subject-{i}")))
                    .on(ObjectSpec::Document("records.xml".into()))
                    .privilege(Privilege::Read)
                    .deny(),
            );
        });
    }
    assert_eq!(
        server.snapshot_compiles(),
        1 + STORM_UPDATES,
        "one compile per update"
    );
    assert_eq!(
        server.compiled_policies().auth_count(),
        base_auths + STORM_UPDATES as usize,
        "the published artifact holds every denial of the storm"
    );

    // The revocations are visible through the compiled path immediately.
    let revoked = server.serve(&request).unwrap();
    assert_eq!(revoked.cache, CacheStatus::Miss, "the publication brought an empty cache");
    assert!(!revoked.xml.contains("N1"), "the denial must win after the storm");

    for _ in 0..3 {
        server.invalidate_views();
    }
    assert_eq!(
        server.snapshot_compiles(),
        1 + STORM_UPDATES,
        "invalidation republishes without recompiling"
    );

    let metrics = server.metrics();
    assert_eq!(metrics.snapshot_compiles, 1 + STORM_UPDATES);
    assert!(metrics.snapshot_compile_ns > 0, "compiles were never timed");
    assert_no_sync_findings();
}

/// The Browse/Read class-partition cross-check accepts the live
/// artifact, before and after a republication.
#[test]
fn analyzer_verifies_compiled_artifact() {
    let server = StackServer::new(build_stack());
    server
        .verify_compiled()
        .expect("freshly constructed artifact matches the live stack");

    server.update(|stack| {
        stack.policies.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("auditor")))
                .on(ObjectSpec::Document("records.xml".into()))
                .privilege(Privilege::Browse)
                .grant(),
        );
    });
    server
        .verify_compiled()
        .expect("republished artifact matches the mutated stack");
    assert_no_sync_findings();
}
