//! Property-style invariants across subsystems: RDFS closure laws,
//! dissemination confidentiality, statistical-gate safety. Randomized cases
//! are driven by seeded [`SecureRng`] iteration (the workspace builds fully
//! offline). The secure query's shape is a view property
//! (`view_properties.rs`).

use websec_core::prelude::*;
use websec_core::rdf::schema::rdfs;
use websec_core::rdf::store::rdf as rdf_ns;

fn iri(i: u8) -> Term {
    Term::iri(&format!("r{i}"))
}

/// A random small RDF graph mixing schema and instance triples.
fn random_graph(rng: &mut SecureRng) -> TripleStore {
    let mut store = TripleStore::new();
    let edges = 1 + rng.gen_range(24) as usize;
    for _ in 0..edges {
        let s = rng.gen_range(8) as u8;
        let p = rng.gen_range(4) as u8;
        let o = rng.gen_range(8) as u8;
        let pred = match p {
            0 => Term::iri(rdfs::SUB_CLASS_OF),
            1 => Term::iri(rdf_ns::TYPE),
            2 => Term::iri("knows"),
            _ => Term::iri(rdfs::SUB_PROPERTY_OF),
        };
        store.insert(&Triple::new(iri(s), pred, iri(o)));
    }
    store
}

/// Closure laws: contains the input, idempotent, monotone.
#[test]
fn closure_laws() {
    let mut rng = SecureRng::seeded(0x11a1);
    for _ in 0..48 {
        let graph = random_graph(&mut rng);
        let closed = Schema::closure(&graph);
        // Contains the input.
        for t in graph.all() {
            assert!(closed.contains(&t));
        }
        // Idempotent.
        let twice = Schema::closure(&closed);
        assert_eq!(closed.len(), twice.len());
        // Monotone: adding a triple never shrinks the closure.
        let mut bigger = graph.clone();
        bigger.insert(&Triple::new(iri(0), Term::iri(rdfs::SUB_CLASS_OF), iri(7)));
        let closed_bigger = Schema::closure(&bigger);
        assert!(closed_bigger.len() >= closed.len());
        for t in closed.all() {
            assert!(closed_bigger.contains(&t));
        }
    }
}

/// Dissemination confidentiality: whatever policies exist, a subject with
/// no matching policy opens nothing, and any subject's view text is a
/// subset of the document's text.
#[test]
fn dissemination_confidentiality() {
    let mut rng = SecureRng::seeded(0x11a2);
    for _ in 0..48 {
        let patient_count = 1 + rng.gen_range(5) as usize;
        let n_grants = rng.gen_range(4) as usize;
        let granted_subjects: Vec<u8> =
            (0..n_grants).map(|_| rng.gen_range(4) as u8).collect();

        let mut xml = String::from("<hospital>");
        for i in 0..patient_count {
            xml.push_str(&format!("<patient id=\"p{i}\"><name>N{i}</name></patient>"));
        }
        xml.push_str("</hospital>");
        let doc = Document::parse(&xml).unwrap();

        let mut store = PolicyStore::new();
        for (k, &s) in granted_subjects.iter().enumerate() {
            store.add(Authorization::for_subject(SubjectSpec::Identity(format!("user-{s}"))).on(ObjectSpec::Portion {
                    document: "d".into(),
                    path: Path::parse(&format!("//patient[@id='p{}']", k % patient_count))
                        .unwrap(),
                }).privilege(Privilege::Read).grant());
        }
        let map = RegionMap::build(&store, "d", &doc);
        let authority = KeyAuthority::new("d", [9u8; 32]);
        let package = DissemPackage::seal(&map, b"prop", |r| authority.region_key(&map, r.id));

        // A subject with no grants opens nothing.
        let stranger = authority.keys_for(&store, &map, &SubjectProfile::new("stranger"));
        assert!(stranger.is_empty());

        // Every granted subject's view mentions only its own patients.
        for &s in &granted_subjects {
            let profile = SubjectProfile::new(&format!("user-{s}"));
            let keyring = authority.keys_for(&store, &map, &profile);
            if keyring.is_empty() {
                continue;
            }
            let view = package.open(&keyring).unwrap();
            let text = view.to_xml_string();
            for i in 0..patient_count {
                let marker = format!("N{i}");
                if text.contains(&marker) {
                    // The subject must hold a grant on patient i.
                    let entitled = granted_subjects
                        .iter()
                        .enumerate()
                        .any(|(k, &gs)| gs == s && k % patient_count == i);
                    assert!(entitled, "user-{s} sees {marker} without a grant");
                }
            }
        }
    }
}

/// The statistical gate never answers a query over fewer than k rows (or
/// its complement), for any query in the equality language.
#[test]
fn statistical_gate_small_sets_never_answered() {
    let mut rng = SecureRng::seeded(0x11a3);
    for _ in 0..48 {
        let k = 2 + rng.gen_range(3) as usize;
        let rows = 6 + rng.gen_range(14) as usize;
        let dept_of: Vec<u8> = (0..rows).map(|_| rng.gen_range(4) as u8).collect();
        let probe_dept = rng.gen_range(4) as u8;

        let mut table = Table::new("staff", &["id", "dept", "salary"]);
        for (i, &d) in dept_of.iter().enumerate() {
            table.insert(vec![
                (i as i64).into(),
                format!("d{d}").as_str().into(),
                (100 + i as i64).into(),
            ]);
        }
        let n = table.len();
        let mut gate = StatisticalGate::new(table, k);
        let q = AggregateQuery::sum("salary").filter("dept", format!("d{probe_dept}").as_str());
        let matching = dept_of.iter().filter(|&&d| d == probe_dept).count();
        let decision = gate.execute("subject", &q);
        if matching < k || n - matching < k {
            assert!(
                !matches!(decision, AggregateDecision::Answer(_)),
                "answered a {matching}-row set with k={k}: {decision:?}"
            );
        } else {
            assert!(matches!(decision, AggregateDecision::Answer(_)));
        }
    }
}
