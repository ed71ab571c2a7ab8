//! Secure interoperability across autonomous web databases (§1/§5): a
//! federation of hospital sites, per-site policies, metadata-driven
//! discovery, and statistical aggregates under the tracker defense.
//!
//! Run with: `cargo run -p websec-examples --bin federated_warehouse`

use websec_core::metadata::{DocumentMeta, MetadataRepository, Placement};
use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

fn main() {
    // --- three autonomous sites with their own policies ----------------------
    let mut federation = Federation::new();
    let mut metadata = MetadataRepository::new(Placement::Replicated, &["north", "south", "east"]);

    for (site_name, patients) in [
        ("north", vec![("n1", "Ana", "flu"), ("n2", "Ben", "asthma")]),
        ("south", vec![("s1", "Cara", "flu")]),
        ("east", vec![("e1", "Dan", "injury"), ("e2", "Eva", "flu")]),
    ] {
        let mut site = Site::new(site_name);
        let mut xml = String::from("<ward>");
        for (id, name, dx) in &patients {
            xml.push_str(&format!(
                "<patient id=\"{id}\"><name>{name}</name><dx>{dx}</dx></patient>"
            ));
        }
        xml.push_str("</ward>");
        site.documents
            .insert("ward.xml", Document::parse(&xml).expect("well-formed"));
        // Each site grants the federation researcher read on patients but
        // denies the diagnosis element (site autonomy: east is stricter and
        // denies names too).
        site.policies.add(Authorization::for_subject(SubjectSpec::Identity("researcher".into())).on(ObjectSpec::Document("ward.xml".into())).privilege(Privilege::Read).grant());
        site.policies.add(Authorization::for_subject(SubjectSpec::Identity("researcher".into())).on(ObjectSpec::Portion {
                document: "ward.xml".into(),
                path: Path::parse("//dx").unwrap(),
            }).privilege(Privilege::Read).deny());
        if site_name == "east" {
            site.policies.add(Authorization::for_subject(SubjectSpec::Identity("researcher".into())).on(ObjectSpec::Portion {
                    document: "ward.xml".into(),
                    path: Path::parse("//name").unwrap(),
                }).privilege(Privilege::Read).deny());
        }
        federation.add_site(site);

        metadata.register(DocumentMeta {
            document: format!("{site_name}/ward.xml"),
            site: site_name.to_string(),
            content_type: "xml".into(),
            label: ContextLabel::fixed(Level::Confidential),
            policy_count: 2,
            epoch: 0,
        });
    }
    metadata.sync();

    // --- metadata-driven discovery -------------------------------------------
    println!("== Metadata (replicated catalog) ==");
    let ctx = SecurityContext::new();
    for doc in ["north/ward.xml", "south/ward.xml", "east/ward.xml"] {
        let visible = metadata
            .lookup_cleared(doc, Clearance(Level::Confidential), &ctx)
            .is_some();
        println!("  {doc}: discoverable by cleared researcher = {visible}");
    }
    println!("  catalog probes so far: {}\n", metadata.probes());

    // --- federated query with per-site autonomy -------------------------------
    println!("== Federated query //patient as 'researcher' ==");
    let hits = federation.query(
        &SubjectProfile::new("researcher"),
        &Path::parse("//patient").unwrap(),
    );
    for h in &hits {
        println!("  [{}] {}", h.site, h.xml);
    }
    println!(
        "  ({} hits; east redacts names, every site redacts diagnoses)\n",
        hits.len()
    );

    // --- cross-site statistics under the tracker defense ----------------------
    println!("== Statistical interface (k = 2) ==");
    let mut table = Table::new("stats", &["id", "site", "dx", "age"]);
    for (i, (site, dx, age)) in [
        ("north", "flu", 30i64),
        ("north", "asthma", 41),
        ("south", "flu", 37),
        ("east", "injury", 52),
        ("east", "flu", 29),
    ]
    .iter()
    .enumerate()
    {
        table.insert(vec![(i as i64).into(), (*site).into(), (*dx).into(), (*age).into()]);
    }
    let mut gate = StatisticalGate::new(table, 2);
    let queries = [
        ("avg-age proxy: sum(age) over flu", AggregateQuery::sum("age").filter("dx", "flu")),
        ("count over asthma (1 row)", AggregateQuery::count().filter("dx", "asthma")),
        ("sum(age) at east", AggregateQuery::sum("age").filter("site", "east")),
        (
            "tracker attempt: east ∧ flu",
            AggregateQuery::sum("age").filter("site", "east").filter("dx", "flu"),
        ),
    ];
    for (label, q) in queries {
        match gate.execute("analyst", &q) {
            AggregateDecision::Answer(v) => println!("  {label}: {v}"),
            AggregateDecision::SuppressedSmallCount { k } => {
                println!("  {label}: suppressed (query set below k={k})")
            }
            AggregateDecision::SuppressedDifferencing { overlap_gap } => println!(
                "  {label}: suppressed (differs from a prior answer by {overlap_gap} individual)"
            ),
        }
    }
}
