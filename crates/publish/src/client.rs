//! Client-side verification of publisher answers.
//!
//! The client holds only the owner's public key. From an answer it:
//!
//! 1. checks every disclosed content blob against its summary hash;
//! 2. recomputes the Merkle root from the disclosed summaries plus the
//!    proof's co-path hashes and verifies the owner's summary signature over
//!    it (**authenticity**);
//! 3. rebuilds the authenticated partial document and re-runs the query
//!    locally, requiring the locally-computed match set to equal the
//!    publisher's claim (**completeness** — an omitted or injected match is
//!    detected).

use crate::authentic::{decode_attrs, NodeSummary, SummaryKind};
use crate::owner::summary_message;
use crate::publisher::QueryAnswer;
use std::collections::{BTreeMap, HashMap};
use websec_crypto::merkle::leaf_hash;
use websec_crypto::sha256::sha256;
use websec_crypto::sig::{self, PublicKey};
use websec_xml::{Document, NodeId, Path};

/// A disclosed node summary and its revealed content, if any.
type Disclosed<'a> = (&'a NodeSummary, Option<&'a [u8]>);

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The answer is for a different document than requested.
    WrongDocument,
    /// The answer echoes a different query than the client issued.
    WrongQuery,
    /// Disclosed content does not hash to its summary's content hash.
    ContentMismatch(u32),
    /// The Merkle proof does not validate the disclosed summaries.
    ProofInvalid,
    /// The owner signature over the recomputed root is invalid.
    SignatureInvalid,
    /// Structural reconstruction failed (missing root or broken links).
    MalformedStructure(String),
    /// The locally recomputed match set differs from the publisher's claim:
    /// the answer is incomplete or padded.
    Incomplete {
        /// Matches the client derived locally.
        local: Vec<u32>,
        /// Matches the publisher claimed.
        claimed: Vec<u32>,
    },
    /// A node needed to evaluate the query had no disclosed content.
    InsufficientDisclosure(u32),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::WrongDocument => write!(f, "answer is for a different document"),
            VerifyError::WrongQuery => write!(f, "answer echoes a different query"),
            VerifyError::ContentMismatch(i) => write!(f, "content mismatch at leaf {i}"),
            VerifyError::ProofInvalid => write!(f, "Merkle proof invalid"),
            VerifyError::SignatureInvalid => write!(f, "owner signature invalid"),
            VerifyError::MalformedStructure(m) => write!(f, "malformed structure: {m}"),
            VerifyError::Incomplete { local, claimed } => write!(
                f,
                "incomplete answer: locally matched {local:?}, publisher claimed {claimed:?}"
            ),
            VerifyError::InsufficientDisclosure(i) => {
                write!(f, "insufficient disclosure for leaf {i}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// A verified query answer: the matched subtrees as a document, plus the
/// verified match indices.
#[derive(Debug)]
pub struct VerifiedView {
    /// Reconstructed document containing the matched subtrees (with full
    /// content) and the structural path to them.
    pub view: Document,
    /// Leaf indices of the verified matches.
    pub matched: Vec<u32>,
}

/// Verifies `answer` under `owner_key` for the client's own `path` and
/// `document` name.
pub fn verify_answer(
    answer: &QueryAnswer,
    owner_key: &PublicKey,
    document: &str,
    path: &Path,
) -> Result<VerifiedView, VerifyError> {
    if answer.document != document || answer.signature.document != document {
        return Err(VerifyError::WrongDocument);
    }
    if answer.path_source != path.source() {
        return Err(VerifyError::WrongQuery);
    }

    // 1. Content hashes.
    for (summary, content) in &answer.revealed {
        if sha256(content) != summary.content_hash {
            return Err(VerifyError::ContentMismatch(summary.index));
        }
    }

    // 2. Merkle proof + owner signature.
    let mut by_index: BTreeMap<u32, Disclosed<'_>> = BTreeMap::new();
    for (s, c) in &answer.revealed {
        by_index.insert(s.index, (s, Some(c.as_slice())));
    }
    for s in &answer.structure {
        by_index.entry(s.index).or_insert((s, None));
    }
    let proof_indices: Vec<usize> = by_index.keys().map(|&i| i as usize).collect();
    if answer.proof.indices != proof_indices {
        return Err(VerifyError::ProofInvalid);
    }
    let leaves: Vec<_> = by_index
        .values()
        .map(|(s, _)| leaf_hash(&s.leaf_bytes()))
        .collect();
    if !answer.proof.verify(&answer.signature.root, &leaves) {
        return Err(VerifyError::ProofInvalid);
    }
    let msg = summary_message(
        &answer.signature.document,
        answer.signature.n_leaves,
        &answer.signature.root,
    );
    if !sig::verify(owner_key, &msg, &answer.signature.signature) {
        return Err(VerifyError::SignatureInvalid);
    }

    // 3. Rebuild the authenticated partial document and re-run the query.
    let (partial, id_map) = rebuild(&by_index)?;
    let local_sel = path.select(&partial);
    let mut local: Vec<u32> = local_sel
        .nodes()
        .into_iter()
        .map(|n| {
            id_map
                .get(&n)
                .copied()
                .ok_or(VerifyError::MalformedStructure("unmapped node".into()))
        })
        .collect::<Result<_, _>>()?;
    local.sort_unstable();
    local.dedup();
    let mut claimed = answer.matched.clone();
    claimed.sort_unstable();
    claimed.dedup();
    if local != claimed {
        return Err(VerifyError::Incomplete { local, claimed });
    }

    // 4. The user-facing view: matched subtrees must be fully revealed.
    let revealed_ids: BTreeMap<u32, ()> =
        answer.revealed.iter().map(|(s, _)| (s.index, ())).collect();
    // Every matched node and its disclosed descendants must be revealed.
    for &m in &claimed {
        if !revealed_ids.contains_key(&m) {
            return Err(VerifyError::InsufficientDisclosure(m));
        }
    }

    Ok(VerifiedView {
        view: build_view(&by_index, &claimed)?,
        matched: claimed,
    })
}

/// Rebuilds a document from disclosed summaries. Returns the document plus a
/// map from rebuilt node ids to original leaf indices. Text nodes without
/// disclosed content become empty text (they can only be structural filler;
/// any content a predicate needs is revealed).
fn rebuild(
    by_index: &BTreeMap<u32, Disclosed<'_>>,
) -> Result<(Document, HashMap<NodeId, u32>), VerifyError> {
    let root_entry = by_index
        .values()
        .find(|(s, _)| s.parent.is_none())
        .ok_or_else(|| VerifyError::MalformedStructure("no root disclosed".into()))?;
    let root_name = match &root_entry.0.kind {
        SummaryKind::Element(n) => n.clone(),
        SummaryKind::Text => {
            return Err(VerifyError::MalformedStructure("text root".into()));
        }
    };
    let mut doc = Document::new(&root_name);
    let mut id_map: HashMap<NodeId, u32> = HashMap::new();
    id_map.insert(doc.root(), root_entry.0.index);
    if let Some(content) = root_entry.1 {
        let attrs = decode_attrs(content).map_err(VerifyError::MalformedStructure)?;
        for (k, v) in attrs {
            doc.set_attribute(doc.root(), &k, &v);
        }
    }

    // children sorted by recorded position.
    let mut children: BTreeMap<u32, Vec<&Disclosed<'_>>> = BTreeMap::new();
    for entry in by_index.values() {
        if let Some(p) = entry.0.parent {
            children.entry(p).or_default().push(entry);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|(s, _)| s.position);
    }

    let mut stack = vec![(root_entry.0.index, doc.root())];
    while let Some((old, new)) = stack.pop() {
        if let Some(kids) = children.get(&old) {
            for (summary, content) in kids {
                match &summary.kind {
                    SummaryKind::Element(name) => {
                        let e = doc.add_element(new, name);
                        if let Some(c) = content {
                            let attrs = decode_attrs(c).map_err(VerifyError::MalformedStructure)?;
                            for (k, v) in attrs {
                                doc.set_attribute(e, &k, &v);
                            }
                        }
                        id_map.insert(e, summary.index);
                        stack.push((summary.index, e));
                    }
                    SummaryKind::Text => {
                        let text = match content {
                            Some(c) => String::from_utf8(c.to_vec()).map_err(|_| {
                                VerifyError::MalformedStructure("invalid text".into())
                            })?,
                            None => String::new(),
                        };
                        let t = doc.add_text(new, &text);
                        id_map.insert(t, summary.index);
                    }
                }
            }
        }
    }
    Ok((doc, id_map))
}

/// Builds the user-facing view: matched subtrees (revealed content) plus the
/// path from the root.
fn build_view(
    by_index: &BTreeMap<u32, Disclosed<'_>>,
    matched: &[u32],
) -> Result<Document, VerifyError> {
    // Keep: matched nodes, their descendants (revealed), and ancestors.
    let mut keep: BTreeMap<u32, Disclosed<'_>> = BTreeMap::new();
    // descendant closure over disclosed entries
    let children_of = |idx: u32| {
        by_index
            .values()
            .filter(move |(s, _)| s.parent == Some(idx))
            .map(|(s, c)| (*s, *c))
    };
    let mut stack: Vec<u32> = matched.to_vec();
    while let Some(i) = stack.pop() {
        let entry = by_index
            .get(&i)
            .ok_or(VerifyError::InsufficientDisclosure(i))?;
        if keep.insert(i, *entry).is_none() {
            for (s, _) in children_of(i) {
                stack.push(s.index);
            }
        }
    }
    // The root is always kept so an empty match set still yields a
    // well-formed (empty) view.
    if let Some(root_entry) = by_index.values().find(|(s, _)| s.parent.is_none()) {
        keep.entry(root_entry.0.index).or_insert(*root_entry);
    }
    // ancestors
    for &m in matched {
        let mut cur = by_index.get(&m).and_then(|(s, _)| s.parent);
        while let Some(p) = cur {
            let entry = by_index
                .get(&p)
                .ok_or(VerifyError::MalformedStructure("missing ancestor".into()))?;
            keep.insert(p, *entry);
            cur = entry.0.parent;
        }
    }
    let (doc, _) = rebuild(&keep)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::Owner;
    use crate::publisher::Publisher;
    use websec_crypto::SecureRng;

    fn setup() -> (Publisher, PublicKey) {
        let mut rng = SecureRng::seeded(11);
        let mut owner = Owner::new(&mut rng, 3);
        let doc = Document::parse(
            "<shop>\
               <item sku=\"a\"><price>10</price><cost>7</cost></item>\
               <item sku=\"b\"><price>20</price><cost>15</cost></item>\
               <item sku=\"c\"><price>30</price><cost>22</cost></item>\
             </shop>",
        )
        .unwrap();
        let (auth, sig) = owner.publish("shop.xml", &doc).unwrap();
        let mut p = Publisher::new();
        p.host(doc, auth, sig);
        (p, owner.public_key())
    }

    #[test]
    fn honest_answer_verifies() {
        let (p, pk) = setup();
        let path = Path::parse("//item").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        let view = verify_answer(&ans, &pk, "shop.xml", &path).unwrap();
        assert_eq!(view.matched.len(), 3);
        let s = view.view.to_xml_string();
        assert!(
            s.contains("10") && s.contains("20") && s.contains("30"),
            "{s}"
        );
    }

    #[test]
    fn predicate_query_verifies() {
        let (p, pk) = setup();
        let path = Path::parse("/shop/item[@sku='b']/price").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        let view = verify_answer(&ans, &pk, "shop.xml", &path).unwrap();
        assert_eq!(view.matched.len(), 1);
        assert!(view.view.to_xml_string().contains("20"));
    }

    #[test]
    fn omission_detected() {
        let (p, pk) = setup();
        let path = Path::parse("//item").unwrap();
        let mut ans = p.answer("shop.xml", &path).unwrap();
        // Publisher hides one match from the claim list.
        ans.matched.pop();
        let err = verify_answer(&ans, &pk, "shop.xml", &path).unwrap_err();
        assert!(matches!(err, VerifyError::Incomplete { .. }), "{err:?}");
    }

    #[test]
    fn content_tamper_detected() {
        let (p, pk) = setup();
        let path = Path::parse("//item").unwrap();
        let mut ans = p.answer("shop.xml", &path).unwrap();
        // Alter a revealed price.
        let slot = ans
            .revealed
            .iter_mut()
            .find(|(_, c)| c == b"10")
            .expect("price text revealed");
        slot.1 = b"99".to_vec();
        let err = verify_answer(&ans, &pk, "shop.xml", &path).unwrap_err();
        assert!(matches!(err, VerifyError::ContentMismatch(_)), "{err:?}");
    }

    #[test]
    fn content_and_hash_tamper_detected_by_proof() {
        let (p, pk) = setup();
        let path = Path::parse("//item").unwrap();
        let mut ans = p.answer("shop.xml", &path).unwrap();
        let slot = ans
            .revealed
            .iter_mut()
            .find(|(_, c)| c == b"10")
            .expect("price text revealed");
        slot.1 = b"99".to_vec();
        slot.0.content_hash = sha256(b"99"); // fix the summary hash too
        let err = verify_answer(&ans, &pk, "shop.xml", &path).unwrap_err();
        assert_eq!(err, VerifyError::ProofInvalid);
    }

    #[test]
    fn signature_substitution_detected() {
        let (p, pk) = setup();
        let mut rng = SecureRng::seeded(99);
        let mut other_owner = Owner::new(&mut rng, 2);
        let other_doc = Document::parse("<shop/>").unwrap();
        let (_, other_sig) = other_owner.publish("shop.xml", &other_doc).unwrap();

        let path = Path::parse("//item").unwrap();
        let mut ans = p.answer("shop.xml", &path).unwrap();
        ans.signature = other_sig;
        let err = verify_answer(&ans, &pk, "shop.xml", &path).unwrap_err();
        // Either the proof no longer matches the substituted root, or the
        // signature fails under the real owner's key.
        assert!(
            matches!(
                err,
                VerifyError::ProofInvalid | VerifyError::SignatureInvalid
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_document_and_query_detected() {
        let (p, pk) = setup();
        let path = Path::parse("//item").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        assert_eq!(
            verify_answer(&ans, &pk, "other.xml", &path).unwrap_err(),
            VerifyError::WrongDocument
        );
        let other_path = Path::parse("//price").unwrap();
        assert_eq!(
            verify_answer(&ans, &pk, "shop.xml", &other_path).unwrap_err(),
            VerifyError::WrongQuery
        );
    }

    #[test]
    fn injected_match_detected() {
        let (p, pk) = setup();
        // Query matching one item; publisher claims an extra index.
        let path = Path::parse("/shop/item[@sku='a']").unwrap();
        let mut ans = p.answer("shop.xml", &path).unwrap();
        let bogus = ans
            .structure
            .iter()
            .map(|s| s.index)
            .find(|i| !ans.matched.contains(i));
        if let Some(b) = bogus {
            ans.matched.push(b);
            let err = verify_answer(&ans, &pk, "shop.xml", &path).unwrap_err();
            assert!(matches!(err, VerifyError::Incomplete { .. }), "{err:?}");
        }
    }

    #[test]
    fn text_query_view_contains_only_match_path() {
        let (p, pk) = setup();
        let path = Path::parse("/shop/item[1]").unwrap();
        let ans = p.answer("shop.xml", &path).unwrap();
        let view = verify_answer(&ans, &pk, "shop.xml", &path).unwrap();
        let s = view.view.to_xml_string();
        assert!(s.contains("sku=\"a\""), "{s}");
        assert!(!s.contains("sku=\"b\""), "{s}");
    }
}
