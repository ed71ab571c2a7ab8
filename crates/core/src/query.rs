//! Security-aware query processing (§3.1 of the paper).
//!
//! "We need to examine the security impact on all of the web data
//! management functions… query processing algorithms may need to take into
//! consideration the access control policies."
//!
//! A query runs over the subject's authorized view, the one Author-X view
//! that [`websec_policy::DocumentDecision::view`] defines: the document is
//! evaluated once, the path is selected over the view, and each hit is a
//! node the subject may read, serialized from the view (so partially
//! readable subtrees appear pruned). The denied ancestors the view keeps as
//! name-only shells are structure, not results.

use websec_policy::{PolicyEngine, PolicyStore, Privilege, SubjectProfile};
use websec_xml::{Document, Path};

/// A secure query processor bound to one policy base.
pub struct SecureQueryProcessor<'a> {
    /// The policy base.
    pub store: &'a PolicyStore,
    /// The evaluation engine.
    pub engine: PolicyEngine,
}

/// One query result: the matched subtree serialized from the authorized
/// view (so partially-readable subtrees appear pruned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureHit {
    /// XML of the authorized portion of the matched subtree.
    pub xml: String,
}

impl<'a> SecureQueryProcessor<'a> {
    /// Creates a processor.
    #[must_use]
    pub fn new(store: &'a PolicyStore, engine: PolicyEngine) -> Self {
        SecureQueryProcessor { store, engine }
    }

    /// Runs `path` over `profile`'s view of `doc` (named `doc_name`): one
    /// hit per readable node the path selects in the view.
    #[must_use]
    pub fn query(
        &self,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
        path: &Path,
    ) -> Vec<SecureHit> {
        let decision =
            self.engine
                .evaluate_document(self.store, profile, doc_name, doc, Privilege::Read);
        let view = decision.view(doc);
        // Node ids are stable across pruning, so the decision tells the
        // view's shells from its readable nodes.
        path.select_nodes(&view)
            .into_iter()
            .filter(|&n| decision.is_allowed(n))
            .map(|n| SecureHit {
                xml: view.node_xml(n),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, Propagation, SubjectSpec};

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

    fn xml_of(hits: &[SecureHit]) -> Vec<&str> {
        hits.iter().map(|h| h.xml.as_str()).collect()
    }

    #[test]
    fn hits_are_readable_subtrees_of_the_view() {
        let (store, doc) = setup();
        let processor = SecureQueryProcessor::new(&store, PolicyEngine::default());
        let profile = SubjectProfile::new("u");
        let query = |q: &str| processor.query(&profile, "h.xml", &doc, &Path::parse(q).unwrap());
        assert_eq!(
            xml_of(&query("//patient")),
            [
                "<patient id=\"p1\"><name>Alice</name></patient>",
                "<patient id=\"p2\"><name>Bob</name></patient>",
            ]
        );
        assert_eq!(
            xml_of(&query("//name")),
            ["<name>Alice</name>", "<name>Bob</name>"]
        );
        assert_eq!(
            xml_of(&query("//patient[@id='p2']")),
            ["<patient id=\"p2\"><name>Bob</name></patient>"]
        );
        // The root is a shell of the view, not a result.
        assert!(query("/hospital").is_empty());
    }

    #[test]
    fn hits_prune_denied_attributes() {
        let (store, doc) = setup();
        let processor = SecureQueryProcessor::new(&store, PolicyEngine::default());
        let profile = SubjectProfile::new("u");
        let path = Path::parse("//patient[@id='p1']").unwrap();
        let hits = processor.query(&profile, "h.xml", &doc, &path);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].xml.contains("Alice"), "{}", hits[0].xml);
        assert!(!hits[0].xml.contains("ssn"), "{}", hits[0].xml);
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
        let processor = SecureQueryProcessor::new(&store, PolicyEngine::default());
        let profile = SubjectProfile::new("u");
        let hits = processor.query(&profile, "h.xml", &doc, &Path::parse("//patient").unwrap());
        assert_eq!(
            xml_of(&hits),
            ["<patient id=\"p1\"><name>Alice</name><record>flu</record></patient>"]
        );
        let names = processor.query(&profile, "h.xml", &doc, &Path::parse("//name").unwrap());
        assert!(names.is_empty(), "{names:?}");
    }

    #[test]
    fn unauthorized_region_yields_no_hits() {
        let (store, doc) = setup();
        let processor = SecureQueryProcessor::new(&store, PolicyEngine::default());
        let profile = SubjectProfile::new("u");
        let path = Path::parse("//budget").unwrap();
        assert!(processor.query(&profile, "h.xml", &doc, &path).is_empty());
    }
}
