//! Secure interoperability of web databases (§5 of the paper).
//!
//! "Researchers have done some work on the secure interoperability of
//! databases. We need to revisit this research and then determine what else
//! needs to be done so that the information on the web can be managed,
//! integrated and exchanged securely."
//!
//! A [`Federation`] integrates several autonomous **sites**, each with its
//! own document store and its own policy base. Federated queries fan out to
//! every site; each site enforces *its own* policies before returning
//! anything (autonomy — the federation never sees more than any single site
//! would release), and results are merged with site provenance attached.
//! A site answers the way the stack does ([`crate::query::hits`]), so a
//! federated hit carries the same bytes a stack serving that site's
//! documents and policies would.

use crate::query::hits;
use websec_policy::{PolicyEngine, PolicyStore, SubjectProfile};
use websec_xml::{DocumentStore, Path};

/// One autonomous site: a store plus its own policy base and engine.
pub struct Site {
    /// Site name (provenance label).
    pub name: String,
    /// The site's documents.
    pub documents: DocumentStore,
    /// The site's own policy base — never shared with the federation.
    pub policies: PolicyStore,
    /// The site's evaluation engine (sites may differ in conflict
    /// strategy).
    pub engine: PolicyEngine,
}

impl Site {
    /// Creates an empty site with the default engine.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Site {
            name: name.to_string(),
            documents: DocumentStore::new(),
            policies: PolicyStore::new(),
            engine: PolicyEngine::default(),
        }
    }

    /// Answers a federated query locally: every document is queried over
    /// the subject's view under this site's own policies.
    #[must_use]
    pub fn answer(&self, profile: &SubjectProfile, path: &Path) -> Vec<FederatedHit> {
        let mut out = Vec::new();
        for doc_name in self.documents.names() {
            let doc = self.documents.get(doc_name).expect("listed name exists");
            let view = self
                .engine
                .compute_view(&self.policies, profile, doc_name, doc);
            out.extend(hits(&view, path).map(|xml| FederatedHit {
                site: self.name.clone(),
                document: doc_name.to_string(),
                xml,
            }));
        }
        out
    }
}

/// A federated result with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederatedHit {
    /// Originating site.
    pub site: String,
    /// Originating document.
    pub document: String,
    /// The authorized portion of the matched subtree, wrapped in its
    /// ancestor chain.
    pub xml: String,
}

/// A federation of autonomous sites.
#[derive(Default)]
pub struct Federation {
    sites: Vec<Site>,
}

impl Federation {
    /// Creates an empty federation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a site.
    pub fn add_site(&mut self, site: Site) {
        self.sites.push(site);
    }

    /// Number of member sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no sites joined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Federated query: fans out to every site; each site applies its own
    /// policies; results carry provenance.
    #[must_use]
    pub fn query(&self, profile: &SubjectProfile, path: &Path) -> Vec<FederatedHit> {
        self.sites
            .iter()
            .flat_map(|s| s.answer(profile, path))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, Privilege, SubjectSpec};
    use websec_xml::Document;

    fn federation() -> Federation {
        let mut fed = Federation::new();

        // Site A: grants its patients to researchers.
        let mut a = Site::new("hospital-a");
        a.documents.insert(
            "ward.xml",
            Document::parse("<ward><patient><name>Alice</name></patient></ward>").unwrap(),
        );
        a.policies.add(
            Authorization::for_subject(SubjectSpec::Identity("researcher".into()))
                .on(ObjectSpec::Document("ward.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        fed.add_site(a);

        // Site B: grants nothing to researchers, everything to its admin.
        let mut b = Site::new("hospital-b");
        b.documents.insert(
            "ward.xml",
            Document::parse("<ward><patient><name>Bob</name></patient></ward>").unwrap(),
        );
        b.policies.add(
            Authorization::for_subject(SubjectSpec::Identity("b-admin".into()))
                .on(ObjectSpec::Document("ward.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        fed.add_site(b);
        fed
    }

    #[test]
    fn site_autonomy_respected() {
        let fed = federation();
        let path = Path::parse("//patient").unwrap();
        // The researcher sees only site A's patient.
        let hits = fed.query(&SubjectProfile::new("researcher"), &path);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].site, "hospital-a");
        assert!(hits[0].xml.contains("Alice"));
        // Site B's admin sees only site B's patient.
        let hits = fed.query(&SubjectProfile::new("b-admin"), &path);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].site, "hospital-b");
        assert!(hits[0].xml.contains("Bob"));
    }

    #[test]
    fn federated_union_for_multi_site_subject() {
        let mut fed = federation();
        // A subject granted at both sites sees the union; sites remain the
        // enforcement points.
        for site in &mut fed.sites {
            site.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("auditor".into()))
                    .on(ObjectSpec::Document("ward.xml".into()))
                    .privilege(Privilege::Read)
                    .grant(),
            );
        }
        let hits = fed.query(
            &SubjectProfile::new("auditor"),
            &Path::parse("//patient").unwrap(),
        );
        assert_eq!(hits.len(), 2);
        let sites: Vec<&str> = hits.iter().map(|h| h.site.as_str()).collect();
        assert!(sites.contains(&"hospital-a") && sites.contains(&"hospital-b"));
    }

    #[test]
    fn stranger_sees_nothing_anywhere() {
        let fed = federation();
        let hits = fed.query(
            &SubjectProfile::new("stranger"),
            &Path::parse("//patient").unwrap(),
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn provenance_includes_document() {
        let fed = federation();
        let hits = fed.query(
            &SubjectProfile::new("researcher"),
            &Path::parse("//name").unwrap(),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].document, "ward.xml");
        assert_eq!(
            hits[0].xml,
            "<ward><patient><name>Alice</name></patient></ward>"
        );
    }
}
