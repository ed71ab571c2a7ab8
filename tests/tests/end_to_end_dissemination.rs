//! Cross-crate integration: policy engine × regions × encrypted packages.
//!
//! The dissemination pipeline must agree with direct policy evaluation: a
//! subscriber's decrypted view contains exactly the content the engine
//! says it may read.

use websec_core::dissem::DissemError;
use websec_core::prelude::*;

fn hospital() -> Document {
    Document::parse(
        "<hospital>\
           <patient id=\"p1\"><name>Alice</name><record>flu</record></patient>\
           <patient id=\"p2\"><name>Bob</name><record>injury</record></patient>\
           <staff><doctor id=\"d1\"><phone>555</phone></doctor></staff>\
           <admin><budget>100</budget></admin>\
         </hospital>",
    )
    .unwrap()
}

fn policies() -> PolicyStore {
    let mut store = PolicyStore::new();
    store.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//patient").unwrap(),
        }).privilege(Privilege::Read).grant());
    store.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//staff").unwrap(),
        }).privilege(Privilege::Read).grant());
    store.add(Authorization::for_subject(SubjectSpec::Identity("accountant".into())).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//admin").unwrap(),
        }).privilege(Privilege::Read).grant());
    store
}

/// A document whose denied ancestors carry attributes: a subject granted
/// `//name` alone must see neither the patient's `id`/`ssn` nor the root's
/// `budget`.
fn attributed() -> Document {
    Document::parse(
        "<hospital budget=\"9\">\
           <patient id=\"p1\" ssn=\"123\"><name>Alice</name><record>flu</record></patient>\
         </hospital>",
    )
    .unwrap()
}

/// Push equals pull: the decrypted package view is byte-for-byte the
/// engine-computed view, shells included, for every subject on both
/// documents (a subject with no region opens nothing and has an empty view).
#[test]
fn package_view_matches_engine_view() {
    let mut store = policies();
    store.add(Authorization::for_subject(SubjectSpec::Identity("clerk".into())).on(ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse("//name").unwrap(),
        }).privilege(Privilege::Read).grant());
    let engine = PolicyEngine::default();
    for doc in [hospital(), attributed()] {
        let map = RegionMap::build(&store, "h.xml", &doc);
        let authority = KeyAuthority::new("h.xml", [1u8; 32]);
        let package = DissemPackage::seal(&map, b"t1", |r| authority.region_key(&map, r.id));

        for identity in ["doctor", "accountant", "clerk"] {
            let profile = SubjectProfile::new(identity);
            let engine_view = engine.compute_view(&store, &profile, "h.xml", &doc);
            let keyring = authority.keys_for(&store, &map, &profile);
            let package_xml = match package.open(&keyring) {
                Ok(view) => view.to_xml_string(),
                Err(DissemError::NoAccessibleRegion) => String::new(),
                Err(e) => panic!("subject {identity}: {e:?}"),
            };
            assert_eq!(engine_view.to_xml_string(), package_xml, "subject {identity}");
        }
    }
    let clerk_view = engine.compute_view(&store, &SubjectProfile::new("clerk"), "h.xml", &attributed());
    assert_eq!(
        clerk_view.to_xml_string(),
        "<hospital><patient><name>Alice</name></patient></hospital>"
    );
}

#[test]
fn no_region_leaks_across_subjects() {
    let doc = hospital();
    let store = policies();
    let map = RegionMap::build(&store, "h.xml", &doc);
    let authority = KeyAuthority::new("h.xml", [1u8; 32]);
    let package = DissemPackage::seal(&map, b"t2", |r| authority.region_key(&map, r.id));

    let accountant = authority.keys_for(&store, &map, &SubjectProfile::new("accountant"));
    let view = package.open(&accountant).unwrap();
    let xml = view.to_xml_string();
    assert!(xml.contains("budget"));
    for secret in ["Alice", "Bob", "flu", "injury", "555"] {
        assert!(!xml.contains(secret), "leaked {secret}: {xml}");
    }
}

#[test]
fn key_count_is_minimal() {
    // Number of keys equals the number of distinct non-empty policy sets,
    // not the number of subjects or policies.
    let doc = hospital();
    let mut store = policies();
    // Add three more identities sharing the same patient policy shape.
    for who in ["d2", "d3", "d4"] {
        store.add(Authorization::for_subject(SubjectSpec::Identity((*who).into())).on(ObjectSpec::Portion {
                document: "h.xml".into(),
                path: Path::parse("//patient").unwrap(),
            }).privilege(Privilege::Read).grant());
    }
    let map = RegionMap::build(&store, "h.xml", &doc);
    // Regions: {patients: doctor+d2+d3+d4}, {staff: doctor}, {admin: accountant}.
    assert_eq!(map.key_count(), 3);
}

#[test]
fn revocation_changes_regions_and_keys() {
    let doc = hospital();
    let mut store = policies();
    let map_before = RegionMap::build(&store, "h.xml", &doc);
    let authority = KeyAuthority::new("h.xml", [1u8; 32]);
    let doctor_keys_before =
        authority.keys_for(&store, &map_before, &SubjectProfile::new("doctor"));
    assert_eq!(doctor_keys_before.len(), 2);

    // Revoke the staff grant.
    let staff_auth = store.shared_authorizations()[1].id;
    assert!(store.revoke(staff_auth));
    let map_after = RegionMap::build(&store, "h.xml", &doc);
    let doctor_keys_after =
        authority.keys_for(&store, &map_after, &SubjectProfile::new("doctor"));
    assert_eq!(doctor_keys_after.len(), 1);

    // The re-sealed package no longer contains the staff region at all.
    let package = DissemPackage::seal(&map_after, b"t3", |r| {
        authority.region_key(&map_after, r.id)
    });
    let view = package.open(&doctor_keys_after).unwrap();
    assert!(!view.to_xml_string().contains("555"));
}
