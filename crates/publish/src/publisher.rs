//! The untrusted publisher: stores signed documents and answers path
//! queries with verification objects.

use crate::authentic::{AuthenticDocument, NodeSummary};
use crate::owner::SummarySignature;

use std::collections::{BTreeMap, BTreeSet};
use websec_crypto::merkle::MultiProof;
use websec_xml::{Document, Path};

/// A query answer carrying everything a client needs to verify authenticity
/// and completeness against the owner's summary signature.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Document the query ran against.
    pub document: String,
    /// The query (echoed so the client can check it answers *its* query).
    pub path_source: String,
    /// Leaf indices of the nodes matched by the query.
    pub matched: Vec<u32>,
    /// Nodes whose content is disclosed: matched subtrees plus every node a
    /// predicate inspected. `(summary, content bytes)` pairs.
    pub revealed: Vec<(NodeSummary, Vec<u8>)>,
    /// Structure-only summaries for the remaining examined nodes (the
    /// "missing portions" disclosed as hashes).
    pub structure: Vec<NodeSummary>,
    /// Multi-leaf Merkle proof covering every disclosed summary.
    pub proof: MultiProof,
    /// The owner's summary signature.
    pub signature: SummarySignature,
}

impl QueryAnswer {
    /// Verification-object size in bytes: proof hashes plus structural
    /// summaries (experiment E4's metric).
    #[must_use]
    pub fn verification_object_size(&self) -> usize {
        self.proof.size_bytes()
            + self
                .structure
                .iter()
                .map(|s| s.leaf_bytes().len())
                .sum::<usize>()
    }
}

struct PublishedDoc {
    doc: Document,
    auth: AuthenticDocument,
    summary: SummarySignature,
}

/// The third-party publisher. It holds documents and their owner-signed
/// authentication structures, but no signing keys: it cannot forge content
/// without detection.
#[derive(Default)]
pub struct Publisher {
    docs: BTreeMap<String, PublishedDoc>,
}

impl Publisher {
    /// Creates an empty publisher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a document from an owner.
    pub fn host(&mut self, doc: Document, auth: AuthenticDocument, summary: SummarySignature) {
        self.docs.insert(
            summary.document.clone(),
            PublishedDoc { doc, auth, summary },
        );
    }

    /// Hosted document names.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.docs.keys().map(String::as_str).collect()
    }

    /// Answers `path` over document `name`. Returns `None` for unknown
    /// documents.
    #[must_use]
    pub fn answer(&self, name: &str, path: &Path) -> Option<QueryAnswer> {
        let hosted = self.docs.get(name)?;
        let (selection, trace) = path.select_traced(&hosted.doc);
        let matched_nodes = selection.nodes();

        // Revealed: matched subtrees + predicate-inspected content.
        let mut revealed_set: BTreeSet<u32> = BTreeSet::new();
        for &n in &matched_nodes {
            for d in hosted.doc.descendants(n) {
                revealed_set.insert(hosted.auth.index(d).expect("live node"));
            }
        }
        for &n in &trace.content_examined {
            revealed_set.insert(hosted.auth.index(n).expect("live node"));
        }

        // Structure-only: examined but not revealed.
        let mut structure_set: BTreeSet<u32> = trace
            .examined
            .iter()
            .map(|&n| hosted.auth.index(n).expect("live node"))
            .collect();
        // Ancestors of revealed/structure nodes are needed to rebuild the
        // tree during verification.
        for &n in matched_nodes
            .iter()
            .chain(trace.examined.iter())
            .chain(trace.content_examined.iter())
        {
            for anc in hosted.doc.ancestors(n) {
                structure_set.insert(hosted.auth.index(anc).expect("live node"));
            }
        }
        structure_set.retain(|i| !revealed_set.contains(i));

        let matched: Vec<u32> = matched_nodes
            .iter()
            .map(|&n| hosted.auth.index(n).expect("live node"))
            .collect();

        let all_indices: Vec<usize> = revealed_set
            .iter()
            .chain(structure_set.iter())
            .map(|&i| i as usize)
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        let proof = hosted.auth.tree().prove_multi(&all_indices);

        let revealed: Vec<(NodeSummary, Vec<u8>)> = revealed_set
            .iter()
            .map(|&i| {
                (
                    hosted.auth.summary(i).clone(),
                    hosted.auth.content(i).to_vec(),
                )
            })
            .collect();
        let structure: Vec<NodeSummary> = structure_set
            .iter()
            .map(|&i| hosted.auth.summary(i).clone())
            .collect();

        Some(QueryAnswer {
            document: name.to_string(),
            path_source: path.source().to_string(),
            matched,
            revealed,
            structure,
            proof,
            signature: hosted.summary.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::Owner;
    use websec_crypto::SecureRng;

    fn publisher() -> (Publisher, websec_crypto::sig::PublicKey) {
        let mut rng = SecureRng::seeded(7);
        let mut owner = Owner::new(&mut rng, 2);
        let doc = Document::parse(
            "<shop><item sku=\"a\"><price>10</price></item><item sku=\"b\"><price>20</price></item></shop>",
        )
        .unwrap();
        let (auth, sig) = owner.publish("shop.xml", &doc).unwrap();
        let mut p = Publisher::new();
        p.host(doc, auth, sig);
        (p, owner.public_key())
    }

    #[test]
    fn answer_contains_matched_and_proof() {
        let (p, _) = publisher();
        let path = Path::parse("//item").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        assert_eq!(ans.matched.len(), 2);
        assert!(!ans.revealed.is_empty());
        assert!(ans.verification_object_size() > 0);
    }

    #[test]
    fn unknown_document_is_none() {
        let (p, _) = publisher();
        assert!(p.answer("nope.xml", &Path::parse("/a").unwrap()).is_none());
    }

    #[test]
    fn selective_query_keeps_unmatched_content_hidden() {
        let (p, _) = publisher();
        let path = Path::parse("/shop/item[@sku='a']").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        assert_eq!(ans.matched.len(), 1);
        // With an attribute predicate both items' content is inspected, but
        // a name-only query must not reveal the price text of item b... use
        // a positional query instead to check hiding:
        let pos_path = Path::parse("/shop/item[1]").unwrap();
        let ans2 = p.answer("shop.xml", &pos_path).unwrap();
        let revealed_text: Vec<String> = ans2
            .revealed
            .iter()
            .map(|(_, c)| String::from_utf8_lossy(c).to_string())
            .collect();
        assert!(
            !revealed_text.iter().any(|t| t.contains("20")),
            "price of item 2 leaked: {revealed_text:?}"
        );
    }
}
