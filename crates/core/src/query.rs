//! Security-aware query processing (§3.1 of the paper).
//!
//! "We need to examine the security impact on all of the web data
//! management functions… query processing algorithms may need to take into
//! consideration the access control policies."
//!
//! A query runs over the subject's authorized view, the one Author-X view
//! that [`websec_policy::DocumentDecision::view`] defines: the path is
//! selected over the view, and each hit is a node the subject may read,
//! serialized from the view (so partially readable subtrees appear pruned).
//! The denied ancestors the view keeps as name-only shells are structure,
//! not results. [`hits`] is the one routine that answers a query: the
//! stack, the server and the federation's sites all call it.

use websec_xml::{Document, Path};

/// The hits of `path` over `view`: each node the path selects that is not
/// a shell ([`Document::is_shell`]), serialized with its ancestor chain
/// ([`Document::subtree_xml`]), in document order.
pub fn hits<'a>(view: &'a Document, path: &Path) -> impl Iterator<Item = String> + 'a {
    path.select_nodes(view)
        .into_iter()
        .filter(move |&n| !view.is_shell(n))
        .map(move |n| view.subtree_xml(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryRequest, SecureWebStack, Site, StackServer};
    use websec_policy::mls::{Clearance, ContextLabel, Level};
    use websec_policy::{
        Authorization, ObjectSpec, PolicyEngine, PolicyStore, Privilege, Propagation,
        SubjectProfile, SubjectSpec,
    };

    fn portion(path: &str) -> ObjectSpec {
        ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse(path).unwrap(),
        }
    }

    fn setup() -> (PolicyStore, Document) {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//patient/@ssn"))
                .privilege(Privilege::Read)
                .deny(),
        );
        let doc = Document::parse(
            "<hospital>\
               <patient id=\"p1\" ssn=\"123\"><name>Alice</name></patient>\
               <patient id=\"p2\" ssn=\"456\"><name>Bob</name></patient>\
               <admin><budget>9</budget></admin>\
             </hospital>",
        )
        .unwrap();
        (store, doc)
    }

    /// The hits of `path` over subject `u`'s view of `doc`.
    fn query(store: &PolicyStore, doc: &Document, path: &str) -> Vec<String> {
        let view =
            PolicyEngine::default().compute_view(store, &SubjectProfile::new("u"), "h.xml", doc);
        hits(&view, &Path::parse(path).unwrap()).collect()
    }

    #[test]
    fn hits_are_readable_subtrees_of_the_view() {
        let (store, doc) = setup();
        assert_eq!(
            query(&store, &doc, "//patient"),
            [
                "<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>",
                "<hospital><patient id=\"p2\"><name>Bob</name></patient></hospital>",
            ]
        );
        assert_eq!(
            query(&store, &doc, "//name"),
            [
                "<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>",
                "<hospital><patient id=\"p2\"><name>Bob</name></patient></hospital>",
            ]
        );
        assert_eq!(
            query(&store, &doc, "//patient[@id='p2']"),
            ["<hospital><patient id=\"p2\"><name>Bob</name></patient></hospital>"]
        );
        // The root is a shell of the view, not a result.
        assert!(query(&store, &doc, "/hospital").is_empty());
    }

    #[test]
    fn hits_prune_denied_attributes() {
        let (store, doc) = setup();
        let hits = query(&store, &doc, "//patient[@id='p1']");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].contains("Alice"), "{}", hits[0]);
        assert!(!hits[0].contains("ssn"), "{}", hits[0]);
    }

    #[test]
    fn hits_keep_readable_content_under_a_denied_element() {
        // A cascading grant of //patient and a non-propagating denial of
        // //name: the name element is denied, its text is not.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//name"))
                .privilege(Privilege::Read)
                .propagation(Propagation::None)
                .deny(),
        );
        let doc = Document::parse(
            "<hospital><patient id=\"p1\"><name>Alice</name><record>flu</record></patient></hospital>",
        )
        .unwrap();
        assert_eq!(
            query(&store, &doc, "//patient"),
            ["<hospital><patient id=\"p1\"><name>Alice</name><record>flu</record></patient></hospital>"]
        );
        let names = query(&store, &doc, "//name");
        assert!(names.is_empty(), "{names:?}");
    }

    #[test]
    fn unauthorized_region_yields_no_hits() {
        let (store, doc) = setup();
        assert!(query(&store, &doc, "//budget").is_empty());
    }

    /// A clerk granted only `//name` asks every entry point for a patient,
    /// which the clerk's view keeps only as a shell, and for a name.
    #[test]
    fn no_entry_point_serves_a_shell() {
        let doc = Document::parse(
            "<hospital><patient id=\"p1\" ssn=\"1\"><name>Alice</name><record>flu</record></patient></hospital>",
        )
        .unwrap();
        let grant = Authorization::for_subject(SubjectSpec::Identity("clerk".into()))
            .on(portion("//name"))
            .privilege(Privilege::Read)
            .grant();
        let mut stack = SecureWebStack::new([5u8; 32]);
        stack.policies.add(grant.clone());
        stack.add_document(
            "h.xml",
            doc.clone(),
            ContextLabel::fixed(Level::Unclassified),
        );
        let server = StackServer::new(stack.clone());
        let mut site = Site::new("s");
        site.policies.add(grant);
        site.documents.insert("h.xml", doc);
        let clerk = SubjectProfile::new("clerk");
        let name = "<hospital><patient><name>Alice</name></patient></hospital>";
        for (query, want) in [("//patient", &[][..]), ("//name", &[name][..])] {
            let path = Path::parse(query).unwrap();
            let request = QueryRequest::for_doc("h.xml")
                .path(path.clone())
                .subject(&clerk)
                .clearance(Clearance(Level::Unclassified));
            assert_eq!(
                stack.execute(&request).unwrap().xml,
                want.concat(),
                "{query}"
            );
            assert_eq!(
                server.serve(&request).unwrap().xml,
                want.concat(),
                "{query}"
            );
            let answered: Vec<String> = site
                .answer(&clerk, &path)
                .into_iter()
                .map(|hit| hit.xml)
                .collect();
            assert_eq!(answered, want, "{query}");
        }
    }
}
