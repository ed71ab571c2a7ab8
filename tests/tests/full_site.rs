//! The whole web-database lifecycle at one site, end to end: metadata
//! registration, DTD-validated ingest, multimedia attachment, federated
//! querying with provenance, and trust-gated third-party verification.

use websec_core::blobs::{attach_blob, fetch_authorized, BlobError, BlobStore};
use websec_core::metadata::{DocumentMeta, MetadataRepository, Placement};
use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

/// A site's documents are catalogued in metadata, validated on ingest,
/// carry multimedia, and answer federated queries — with every layer
/// enforcing.
#[test]
fn lifecycle_ingest_to_federated_query() {
    // --- ingest with DTD validation --------------------------------------
    let dtd = Dtd::new("ward")
        .declare(
            "ward",
            websec_core::xml::dtd::ElementDecl::default().with_children(&["patient"]),
        )
        .declare(
            "patient",
            websec_core::xml::dtd::ElementDecl::default()
                .with_children(&["name", "scan"])
                .require_attrs(&["id"]),
        )
        .declare(
            "name",
            websec_core::xml::dtd::ElementDecl::default().with_text(),
        )
        .declare(
            "scan",
            websec_core::xml::dtd::ElementDecl::default().allow_only_attrs(&["blobRef"]),
        );
    let mut doc = Document::parse(
        "<ward><patient id=\"p1\"><name>Alice</name><scan/></patient></ward>",
    )
    .unwrap();
    assert!(dtd.is_valid(&doc));

    // --- multimedia attachment --------------------------------------------
    let mut blobs = BlobStore::new([8u8; 32]);
    let scan_el = Path::parse("//scan").unwrap().select_nodes(&doc)[0];
    attach_blob(&mut doc, scan_el, &mut blobs, b"DICOM bytes");
    assert!(dtd.is_valid(&doc), "blobRef attribute is declared");

    // --- metadata registration ---------------------------------------------
    let mut metadata = MetadataRepository::new(Placement::Centralized, &[]);
    metadata.register(DocumentMeta {
        document: "ward.xml".into(),
        site: "hospital-a".into(),
        content_type: "xml".into(),
        label: ContextLabel::fixed(Level::Confidential),
        policy_count: 1,
        epoch: 0,
    });
    // Metadata enhances security: a public subject cannot even discover
    // the document.
    let ctx = SecurityContext::new();
    assert!(metadata
        .lookup_cleared("ward.xml", Clearance(Level::Unclassified), &ctx)
        .is_none());
    assert!(metadata
        .lookup_cleared("ward.xml", Clearance(Level::Confidential), &ctx)
        .is_some());

    // --- the site joins a federation ----------------------------------------
    let mut site = Site::new("hospital-a");
    site.documents.insert("ward.xml", doc.clone());
    site.policies.add(Authorization::for_subject(SubjectSpec::Identity("researcher".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).grant());
    let mut federation = Federation::new();
    federation.add_site(site);
    let hits = federation.query(
        &SubjectProfile::new("researcher"),
        &Path::parse("//patient").unwrap(),
    );
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].site, "hospital-a");
    assert!(hits[0].xml.contains("Alice"));

    // --- blob fetch inherits the document policy ------------------------------
    let mut policies = PolicyStore::new();
    policies.add(Authorization::for_subject(SubjectSpec::Identity("researcher".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).grant());
    let engine = PolicyEngine::default();
    let researcher = SubjectProfile::new("researcher");
    assert_eq!(
        fetch_authorized(&blobs, &policies, &engine, &researcher, "ward.xml", &doc, scan_el)
            .unwrap(),
        b"DICOM bytes"
    );
    assert_eq!(
        fetch_authorized(
            &blobs,
            &policies,
            &engine,
            &SubjectProfile::new("stranger"),
            "ward.xml",
            &doc,
            scan_el
        )
        .unwrap_err(),
        BlobError::AccessDenied
    );
}

/// Metadata placements answer the paper's placement question with numbers:
/// replication trades write-time sync for constant-probe lookups.
#[test]
fn metadata_placement_tradeoffs() {
    let sites = ["a", "b", "c", "d"];
    let register_all = |repo: &mut MetadataRepository| {
        for (i, s) in sites.iter().enumerate() {
            repo.register(DocumentMeta {
                document: format!("doc-{i}"),
                site: (*s).to_string(),
                content_type: "xml".into(),
                label: ContextLabel::fixed(Level::Unclassified),
                policy_count: 0,
                epoch: 0,
            });
        }
    };

    // Per-site: probes grow with site count for far documents.
    let mut per_site = MetadataRepository::new(Placement::PerSite, &sites);
    register_all(&mut per_site);
    per_site.lookup("doc-3"); // lives at the last site
    assert_eq!(per_site.probes(), 4);

    // Replicated: after sync, one probe regardless of placement.
    let mut replicated = MetadataRepository::new(Placement::Replicated, &sites);
    register_all(&mut replicated);
    assert!(replicated.stale_replicas() > 0);
    replicated.sync();
    assert_eq!(replicated.stale_replicas(), 0);
    replicated.lookup("doc-3");
    assert_eq!(replicated.probes(), 1);
}
