//! Element-name indexing (§2.1 of the paper).
//!
//! "Storage management for Internet database access is a complex function.
//! Appropriate index strategies and access methods for handling multimedia
//! data are needed." The workhorse web query is the descendant name test
//! (`//patient`); a [`NameIndex`] answers it without walking the tree, and
//! [`IndexedDocument`] routes eligible paths through the index while
//! falling back to full evaluation for everything else.

use crate::node::{Document, NodeId};
use crate::path::{Path, Selection};
use std::collections::HashMap;

/// An inverted index from element name to the nodes bearing it
/// (document order).
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    by_name: HashMap<String, Vec<NodeId>>,
}

impl NameIndex {
    /// Builds the index for `doc` (live nodes only).
    #[must_use]
    pub fn build(doc: &Document) -> Self {
        let mut by_name: HashMap<String, Vec<NodeId>> = HashMap::new();
        for node in doc.all_nodes() {
            if let Some(name) = doc.name(node) {
                by_name.entry(name.to_string()).or_default().push(node);
            }
        }
        NameIndex { by_name }
    }

    /// Nodes named `name`, in document order.
    #[must_use]
    pub fn lookup(&self, name: &str) -> &[NodeId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct indexed names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when no elements were indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// A document with its name index, answering simple descendant queries
/// through the index.
pub struct IndexedDocument {
    doc: Document,
    index: NameIndex,
}

impl IndexedDocument {
    /// Builds the index over `doc`.
    #[must_use]
    pub fn new(doc: Document) -> Self {
        let index = NameIndex::build(&doc);
        IndexedDocument { doc, index }
    }

    /// The underlying document.
    #[must_use]
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The index.
    #[must_use]
    pub fn index(&self) -> &NameIndex {
        &self.index
    }

    /// Evaluates `path`, using the index when the path is a bare
    /// descendant name test (`//name` with no predicates); otherwise falls
    /// back to full evaluation. Results are identical either way (asserted
    /// by tests).
    #[must_use]
    pub fn select(&self, path: &Path) -> Selection {
        if let Some(name) = Self::bare_descendant_name(path) {
            return Selection::Nodes(self.index.lookup(&name).to_vec());
        }
        path.select(&self.doc)
    }

    /// Recognizes `//name` (no predicates, single step) from the source
    /// text; returns the name.
    fn bare_descendant_name(path: &Path) -> Option<String> {
        let src = path.source();
        let rest = src.strip_prefix("//")?;
        let simple = !rest.is_empty()
            && rest
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.'));
        simple.then(|| rest.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            "<shop><item id=\"1\"><price>10</price></item><item id=\"2\"><price>20</price></item><meta/></shop>",
        )
        .unwrap()
    }

    #[test]
    fn index_lookup() {
        let d = doc();
        let idx = NameIndex::build(&d);
        assert_eq!(idx.lookup("item").len(), 2);
        assert_eq!(idx.lookup("price").len(), 2);
        assert_eq!(idx.lookup("shop").len(), 1);
        assert!(idx.lookup("missing").is_empty());
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn indexed_matches_full_evaluation() {
        let indexed = IndexedDocument::new(doc());
        for q in ["//item", "//price", "//shop", "//nothing"] {
            let path = Path::parse(q).unwrap();
            let via_index = indexed.select(&path);
            let via_eval = path.select(indexed.document());
            assert_eq!(via_index, via_eval, "{q}");
        }
    }

    #[test]
    fn complex_paths_fall_back() {
        let indexed = IndexedDocument::new(doc());
        for q in [
            "//item[@id='2']",
            "/shop/item",
            "//item/price",
            "//item/@id",
        ] {
            let path = Path::parse(q).unwrap();
            assert!(
                IndexedDocument::bare_descendant_name(&path).is_none(),
                "{q} should not be treated as bare"
            );
            let via_index = indexed.select(&path);
            let via_eval = path.select(indexed.document());
            assert_eq!(via_index, via_eval, "{q}");
        }
    }

    #[test]
    fn index_respects_pruning() {
        let mut d = doc();
        let item2 = Path::parse("//item[@id='2']").unwrap().select_nodes(&d)[0];
        d.prune(item2);
        let idx = NameIndex::build(&d);
        assert_eq!(idx.lookup("item").len(), 1);
        assert_eq!(idx.lookup("price").len(), 1);
    }
}
