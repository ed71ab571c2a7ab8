//! In-memory document store with name lookup.
//!
//! The paper's web database is "multiple data sources scattered across
//! several sites"; the store models one site's XML database: named
//! documents, each shared between clones of the store until written.
//! Queries never run over the store itself, only over a subject's view of
//! one document, and the collections that policies name are kept by the
//! policy store.

use crate::node::Document;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named collection of XML documents.
///
/// Each document sits behind an `Arc` and is copied only when written:
/// cloning the store shares every document with the clone, and
/// [`DocumentStore::get_mut`] or [`DocumentStore::remove`] copies a
/// document that another clone still holds. A store and its clone
/// therefore never see each other's writes, and a document written after
/// a clone lives at a new address ([`DocumentStore::shares_documents`]).
#[derive(Debug, Clone, Default)]
pub struct DocumentStore {
    docs: BTreeMap<String, Arc<Document>>,
}

impl DocumentStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a document under `name`.
    pub fn insert(&mut self, name: &str, doc: Document) {
        self.docs.insert(name.to_string(), Arc::new(doc));
    }

    /// Removes a document; returns it if present.
    pub fn remove(&mut self, name: &str) -> Option<Document> {
        self.docs.remove(name).map(Arc::unwrap_or_clone)
    }

    /// Fetches a document by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Document> {
        self.docs.get(name).map(Arc::as_ref)
    }

    /// The shared handle of a document: the allocation this store holds.
    /// A holder of the handle can later tell, by [`Arc::ptr_eq`], whether a
    /// store still holds that document unwritten; holding it keeps the
    /// address from being reused by another document meanwhile.
    #[must_use]
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Document>> {
        self.docs.get(name)
    }

    /// Mutable access to a document, copying it first when a clone of
    /// this store still shares it.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Document> {
        self.docs.get_mut(name).map(Arc::make_mut)
    }

    /// True when `other` holds exactly this store's documents: the same
    /// names, each bound to the very document this store holds, not a
    /// copy. While `self` is alive, no write through `other` leaves this
    /// true, since a write copies a shared document first.
    #[must_use]
    pub fn shares_documents(&self, other: &DocumentStore) -> bool {
        self.docs.len() == other.docs.len()
            && self
                .docs
                .iter()
                .zip(&other.docs)
                .all(|((a, doc_a), (b, doc_b))| a == b && Arc::ptr_eq(doc_a, doc_b))
    }

    /// All document names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.docs.keys().map(String::as_str).collect()
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the store holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        s.insert(
            "ward1.xml",
            Document::parse("<ward><patient id=\"p1\"/><patient id=\"p2\"/></ward>").unwrap(),
        );
        s.insert(
            "ward2.xml",
            Document::parse("<ward><patient id=\"p3\"/></ward>").unwrap(),
        );
        s.insert(
            "staff.xml",
            Document::parse("<staff><doctor id=\"d1\"/></staff>").unwrap(),
        );
        s
    }

    #[test]
    fn insert_get_remove() {
        let mut s = store();
        assert_eq!(s.len(), 3);
        assert!(s.get("ward1.xml").is_some());
        assert!(s.remove("ward1.xml").is_some());
        assert!(s.get("ward1.xml").is_none());
        assert_eq!(s.len(), 2);
    }

    /// Every document's name and serialized bytes.
    fn bytes(s: &DocumentStore) -> Vec<(String, String)> {
        s.names()
            .into_iter()
            .map(|name| (name.to_string(), s.get(name).unwrap().to_xml_string()))
            .collect()
    }

    /// A clone shares each document until one side writes it; a write
    /// through either side (an attribute set through `get_mut`, an
    /// insert, a remove) leaves the other side's bytes unchanged.
    #[test]
    fn clones_share_documents_until_written() {
        for write_the_clone in [true, false] {
            let mut original = store();
            let mut copy = original.clone();
            assert!(original.shares_documents(&copy) && copy.shares_documents(&original));
            let (written, kept) = if write_the_clone {
                (&mut copy, &original)
            } else {
                (&mut original, &copy)
            };
            let before = bytes(kept);

            let doc = written.get_mut("ward1.xml").unwrap();
            let root = doc.root();
            doc.set_attribute(root, "wing", "east");
            assert!(!kept.shares_documents(written));
            let shared = |name: &str| {
                Arc::ptr_eq(
                    kept.get_shared(name).unwrap(),
                    written.get_shared(name).unwrap(),
                )
            };
            assert!(!shared("ward1.xml"));
            assert!(shared("ward2.xml"));
            assert_eq!(bytes(kept), before);

            written.insert("ward2.xml", Document::parse("<ward/>").unwrap());
            assert!(written.remove("staff.xml").is_some());
            assert_eq!(bytes(kept), before);
            assert_eq!(
                bytes(written),
                vec![
                    (
                        "ward1.xml".to_string(),
                        "<ward wing=\"east\"><patient id=\"p1\"/><patient id=\"p2\"/></ward>"
                            .to_string()
                    ),
                    ("ward2.xml".to_string(), "<ward/>".to_string()),
                ]
            );
        }
    }

    #[test]
    fn names_sorted() {
        let s = store();
        assert_eq!(s.names(), vec!["staff.xml", "ward1.xml", "ward2.xml"]);
    }
}
