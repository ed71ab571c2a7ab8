//! Property-style tests on the access-control engine's core invariants,
//! driven by seeded [`SecureRng`] iteration (the workspace builds fully
//! offline, so no external property-testing framework is used).

use std::collections::HashSet;
use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

/// A random document over a small name alphabet.
fn random_document(rng: &mut SecureRng) -> Document {
    let mut doc = Document::new("root");
    let mut parents = vec![doc.root()];
    let nodes = 1 + rng.gen_range(19) as usize;
    for _ in 0..nodes {
        let name = rng.gen_range(4);
        let parent = parents[rng.gen_range(parents.len() as u64) as usize];
        let e = doc.add_element(parent, &format!("n{name}"));
        if rng.gen_range(2) == 0 {
            doc.add_text(e, "content");
        }
        parents.push(e);
    }
    doc
}

/// A random small policy base over that alphabet: (is_grant, path, subject
/// selector 0..3).
fn random_policies(rng: &mut SecureRng) -> Vec<(bool, String, u8)> {
    let n = rng.gen_range(6) as usize;
    (0..n)
        .map(|_| {
            let grant = rng.gen_range(2) == 0;
            let name = rng.gen_range(4);
            let path = if rng.gen_range(2) == 0 {
                format!("//n{name}")
            } else {
                format!("/root/n{name}")
            };
            (grant, path, rng.gen_range(3) as u8)
        })
        .collect()
}

fn build_store(rules: &[(bool, String, u8)]) -> PolicyStore {
    let mut store = PolicyStore::new();
    for (grant, path, subj) in rules {
        let subject = match subj {
            0 => SubjectSpec::Anyone,
            1 => SubjectSpec::Identity("alice".into()),
            _ => SubjectSpec::InRole(Role::new("staff")),
        };
        let object = ObjectSpec::Portion {
            document: "d.xml".into(),
            path: Path::parse(path).unwrap(),
        };
        let auth = if *grant {
            Authorization::for_subject(subject).on(object).privilege(Privilege::Read).grant()
        } else {
            Authorization::for_subject(subject).on(object).privilege(Privilege::Read).deny()
        };
        store.add(auth);
    }
    store
}

fn text_set(doc: &Document) -> HashSet<String> {
    doc.all_nodes()
        .iter()
        .filter_map(|&n| doc.name(n).map(|s| s.to_string()))
        .collect()
}

/// A view never contains an element name absent from the original.
#[test]
fn view_is_subset_of_document() {
    let mut rng = SecureRng::seeded(0x71e1);
    for _ in 0..64 {
        let doc = random_document(&mut rng);
        let rules = random_policies(&mut rng);
        let store = build_store(&rules);
        let engine = PolicyEngine::default();
        let profile = SubjectProfile::new("alice").with_role(Role::new("staff"));
        let view = engine.compute_view(&store, &profile, "d.xml", &doc);
        assert!(view.node_count() <= doc.node_count());
        assert!(text_set(&view).is_subset(&text_set(&doc)));
    }
}

/// With no policies, the closed-policy default yields an empty view.
#[test]
fn empty_policy_base_empty_view() {
    let mut rng = SecureRng::seeded(0x71e2);
    for _ in 0..64 {
        let doc = random_document(&mut rng);
        let store = PolicyStore::new();
        let engine = PolicyEngine::default();
        let view = engine.compute_view(&store, &SubjectProfile::new("x"), "d.xml", &doc);
        assert_eq!(view.node_count(), 0);
    }
}

/// Denials-take-precedence views are contained in
/// permissions-take-precedence views.
#[test]
fn dtp_view_subset_of_ptp_view() {
    let mut rng = SecureRng::seeded(0x71e3);
    for _ in 0..64 {
        let doc = random_document(&mut rng);
        let rules = random_policies(&mut rng);
        let store = build_store(&rules);
        let profile = SubjectProfile::new("alice").with_role(Role::new("staff"));
        let dtp = PolicyEngine::new(ConflictStrategy::DenialsTakePrecedence)
            .evaluate_document(&store, &profile, "d.xml", &doc, Privilege::Read);
        let ptp = PolicyEngine::new(ConflictStrategy::PermissionsTakePrecedence)
            .evaluate_document(&store, &profile, "d.xml", &doc, Privilege::Read);
        for node in doc.all_nodes() {
            if dtp.is_allowed(node) {
                assert!(ptp.is_allowed(node), "node {node:?} allowed by DTP but not PTP");
            }
        }
    }
}

/// Adding a grant never shrinks a DTP view; adding a denial never grows it.
#[test]
fn monotonicity() {
    let mut rng = SecureRng::seeded(0x71e4);
    for _ in 0..64 {
        let doc = random_document(&mut rng);
        let rules = random_policies(&mut rng);
        let engine = PolicyEngine::default();
        let profile = SubjectProfile::new("alice").with_role(Role::new("staff"));

        let store = build_store(&rules);
        let base = engine
            .evaluate_document(&store, &profile, "d.xml", &doc, Privilege::Read)
            .allowed_count();

        // Add a universal grant.
        let mut grown = build_store(&rules);
        grown.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("d.xml".into())).privilege(Privilege::Read).grant());
        let more = engine
            .evaluate_document(&grown, &profile, "d.xml", &doc, Privilege::Read)
            .allowed_count();
        assert!(more >= base);

        // Add a universal denial.
        let mut shrunk = build_store(&rules);
        shrunk.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("d.xml".into())).privilege(Privilege::Read).deny());
        let less = engine
            .evaluate_document(&shrunk, &profile, "d.xml", &doc, Privilege::Read)
            .allowed_count();
        assert_eq!(less, 0); // universal cascade denial wipes everything under DTP
    }
}

/// The flexible enforcer's empirical rate tracks its level.
#[test]
fn flexible_rate_tracks_level() {
    let mut rng = SecureRng::seeded(0x71e5);
    for case in 0..16u64 {
        let level = if case == 0 {
            0
        } else if case == 1 {
            100
        } else {
            rng.gen_range(101) as u8
        };
        let mut gate = FlexibleEnforcer::new(level, [9u8; 32]);
        for i in 0..2000u32 {
            gate.gate(&i.to_le_bytes());
        }
        let (enforced, _) = gate.stats();
        let rate = enforced as f64 / 2000.0;
        assert!(
            (rate - level as f64 / 100.0).abs() < 0.06,
            "level {level}: rate {rate}"
        );
    }
}

const STRATEGIES: [ConflictStrategy; 5] = [
    ConflictStrategy::DenialsTakePrecedence,
    ConflictStrategy::PermissionsTakePrecedence,
    ConflictStrategy::MostSpecificSubject,
    ConflictStrategy::MostSpecificObject,
    ConflictStrategy::ExplicitPriority,
];

/// A random document whose elements carry attributes `a` and `b` at random.
fn attributed_document(rng: &mut SecureRng) -> Document {
    let mut doc = random_document(rng);
    for node in doc.all_nodes() {
        if doc.name(node).is_none() {
            continue;
        }
        for attr in ["a", "b"] {
            if rng.gen_range(2) == 0 {
                doc.set_attribute(node, attr, &format!("{attr}{}", node.index()));
            }
        }
    }
    doc
}

/// A random policy base on `d.xml` over the document alphabet: element and
/// attribute portions, grants and denials, under all three propagations,
/// three subjects and a few priorities.
fn shaped_policies(rng: &mut SecureRng) -> PolicyStore {
    let mut store = PolicyStore::new();
    for _ in 0..rng.gen_range(8) {
        let name = rng.gen_range(4);
        let path = match rng.gen_range(4) {
            0 => format!("//n{name}"),
            1 => format!("/root/n{name}"),
            2 => format!("//n{name}/@a"),
            _ => "//@b".to_string(),
        };
        let subject = match rng.gen_range(3) {
            0 => SubjectSpec::Anyone,
            1 => SubjectSpec::Identity("alice".into()),
            _ => SubjectSpec::InRole(Role::new("staff")),
        };
        let propagation = match rng.gen_range(3) {
            0 => Propagation::None,
            1 => Propagation::FirstLevel,
            _ => Propagation::Cascade,
        };
        let rule = Authorization::for_subject(subject)
            .on(ObjectSpec::Portion {
                document: "d.xml".into(),
                path: Path::parse(&path).unwrap(),
            })
            .privilege(Privilege::Read)
            .propagation(propagation)
            .priority(rng.gen_range(3) as i32);
        store.add(if rng.gen_range(2) == 0 {
            rule.grant()
        } else {
            rule.deny()
        });
    }
    store
}

/// The view's shape, interpreted and compiled, under every strategy: each
/// element of the view is either an allowed element with exactly the
/// attributes `attr_allowed` accepts, or a name-only shell with an allowed
/// descendant, marked `is_shell`; every text node of the view is allowed;
/// and the stack (interpreter), the server (compiled tables) and a
/// federation site each answer a query with `subtree_xml` of the allowed
/// nodes it selects in the view, never a shell.
#[test]
fn views_are_allowed_nodes_plus_name_only_shells() {
    let mut rng = SecureRng::seeded(0x71e6);
    let profile = SubjectProfile::new("alice").with_role(Role::new("staff"));
    let (mut shells, mut hidden_attrs, mut hits, mut shells_selected) = (0, 0, 0, 0);
    for case in 0..96 {
        let doc = attributed_document(&mut rng);
        let store = shaped_policies(&mut rng);
        let mut documents = DocumentStore::new();
        documents.insert("d.xml", doc.clone());
        let query = Path::parse(&format!("//n{}", rng.gen_range(4))).unwrap();
        let request = QueryRequest::for_doc("d.xml")
            .path(query.clone())
            .subject(&profile)
            .clearance(Clearance(Level::Unclassified));
        for strategy in STRATEGIES {
            let engine = PolicyEngine::new(strategy);
            let decision = engine.evaluate_document(&store, &profile, "d.xml", &doc, Privilege::Read);
            let compiled = PolicySnapshot::new(&store, strategy, &documents)
                .compile()
                .compute_view(&profile, "d.xml", &doc)
                .unwrap();
            let interpreted = engine.compute_view(&store, &profile, "d.xml", &doc);
            let mut answers = Vec::new();
            for (label, view) in [("interpreted", &interpreted), ("compiled", &compiled)] {
                let at = |node| format!("case {case}, {strategy:?}, {label}, node {node:?}");
                for node in doc.all_nodes() {
                    let shown = !view.is_removed(node);
                    let attrs = view.attributes(node);
                    assert_eq!(
                        view.is_shell(node),
                        shown && !decision.is_allowed(node),
                        "{}",
                        at(node)
                    );
                    if decision.is_allowed(node) {
                        assert!(shown, "{}", at(node));
                        let visible: Vec<(String, String)> = doc
                            .attributes(node)
                            .iter()
                            .filter(|(name, _)| decision.attr_allowed(node, name))
                            .cloned()
                            .collect();
                        hidden_attrs += doc.attributes(node).len() - visible.len();
                        assert_eq!(attrs, visible.as_slice(), "{}", at(node));
                    } else {
                        let covers_allowed =
                            doc.descendants(node).iter().any(|&d| decision.is_allowed(d));
                        assert_eq!(shown, covers_allowed, "{}", at(node));
                        if shown {
                            shells += 1;
                            assert!(view.name(node).is_some(), "text shell: {}", at(node));
                            assert!(attrs.is_empty(), "shell attributes: {}", at(node));
                        }
                    }
                }
                let selected = query.select_nodes(view);
                shells_selected += selected.iter().filter(|&&n| !decision.is_allowed(n)).count();
                answers.push(
                    selected
                        .into_iter()
                        .filter(|&n| decision.is_allowed(n))
                        .map(|n| view.subtree_xml(n))
                        .collect::<Vec<String>>(),
                );
            }
            let (expected, expected_compiled) = (&answers[0], &answers[1]);
            let at = format!("case {case}, {strategy:?}, query {}", query.source());
            hits += expected.len();

            let mut stack = SecureWebStack::new([6u8; 32]);
            stack.engine = engine;
            stack.policies = store.clone();
            stack.add_document("d.xml", doc.clone(), ContextLabel::fixed(Level::Unclassified));
            let executed = stack.execute(&request).unwrap();
            assert_eq!(executed.decision, Decision::Enforced, "{at}");
            assert_eq!(executed.xml, expected.concat(), "execute, {at}");
            let served = StackServer::new(stack).serve(&request).unwrap();
            assert_eq!(served.xml, expected_compiled.concat(), "serve, {at}");

            let mut site = Site::new("s");
            site.engine = engine;
            site.policies = store.clone();
            site.documents = documents.clone();
            let answered: Vec<String> =
                site.answer(&profile, &query).into_iter().map(|hit| hit.xml).collect();
            assert_eq!(&answered, expected, "Site::answer, {at}");
        }
    }
    // The generator reaches every case the property names, shells the
    // query selects among them.
    assert!(
        shells > 0 && hidden_attrs > 0 && hits > 0 && shells_selected > 0,
        "{shells} {hidden_attrs} {hits} {shells_selected}"
    );
}
