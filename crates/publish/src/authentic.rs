//! Merkle leaf layout over XML documents.
//!
//! Every node of a document becomes one Merkle leaf. A leaf encodes the
//! node's **structural summary** — position in the tree, kind, element name —
//! plus the **hash** of its content (attributes or text). Separating
//! structure from content lets the publisher disclose structure (needed for
//! completeness verification) without disclosing content the client is not
//! entitled to, matching the "additional hash values, referring to the
//! missing portions" of §4.1.

use std::collections::HashMap;
use websec_crypto::merkle::MerkleTree;
use websec_crypto::sha256::{sha256, Digest};
use websec_xml::{Document, NodeId, NodeKind};

/// Node kind in a structural summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummaryKind {
    /// Element with its tag name (names are structural).
    Element(String),
    /// Text node (content is in the content hash only).
    Text,
}

/// Structural summary of one node: everything the client needs to re-run a
/// query except the content itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// Leaf index in document (pre-)order.
    pub index: u32,
    /// Parent leaf index (`None` for the root).
    pub parent: Option<u32>,
    /// Position among the parent's children.
    pub position: u32,
    /// Kind and name.
    pub kind: SummaryKind,
    /// SHA-256 of the node's content bytes.
    pub content_hash: Digest,
}

impl NodeSummary {
    /// Serializes the summary into the Merkle leaf payload.
    #[must_use]
    pub fn leaf_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.index.to_le_bytes());
        match self.parent {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.position.to_le_bytes());
        match &self.kind {
            SummaryKind::Element(name) => {
                out.push(0);
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            SummaryKind::Text => out.push(1),
        }
        out.extend_from_slice(&self.content_hash);
        out
    }
}

/// Computes a node's content bytes: the canonical attribute list for
/// elements, the text for text nodes.
#[must_use]
pub fn content_bytes(doc: &Document, node: NodeId) -> Vec<u8> {
    match doc.kind(node) {
        NodeKind::Element { attributes, .. } => {
            let mut attrs: Vec<&(String, String)> = attributes.iter().collect();
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out = Vec::new();
            for (k, v) in attrs {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v.as_bytes());
            }
            out
        }
        NodeKind::Text(t) => t.as_bytes().to_vec(),
    }
}

/// Decodes element content bytes back into an attribute list.
pub fn decode_attrs(buf: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let read = |pos: &mut usize| -> Result<String, String> {
        if *pos + 4 > buf.len() {
            return Err("truncated attribute block".into());
        }
        let len =
            u32::from_le_bytes([buf[*pos], buf[*pos + 1], buf[*pos + 2], buf[*pos + 3]]) as usize;
        *pos += 4;
        if *pos + len > buf.len() {
            return Err("truncated attribute block".into());
        }
        let s = String::from_utf8(buf[*pos..*pos + len].to_vec())
            .map_err(|_| "invalid UTF-8".to_string())?;
        *pos += len;
        Ok(s)
    };
    while pos < buf.len() {
        let k = read(&mut pos)?;
        let v = read(&mut pos)?;
        out.push((k, v));
    }
    Ok(out)
}

/// A document with its Merkle authentication structure.
pub struct AuthenticDocument {
    /// Document-order node list (leaf index i ↦ node id).
    order: Vec<NodeId>,
    index_of: HashMap<NodeId, u32>,
    summaries: Vec<NodeSummary>,
    contents: Vec<Vec<u8>>,
    tree: MerkleTree,
}

impl AuthenticDocument {
    /// Builds the authentication structure over `doc`.
    #[must_use]
    pub fn build(doc: &Document) -> Self {
        let order = doc.all_nodes();
        let index_of: HashMap<NodeId, u32> = order
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, u32::try_from(i).expect("document too large")))
            .collect();

        let mut summaries = Vec::with_capacity(order.len());
        let mut contents = Vec::with_capacity(order.len());
        for (i, &node) in order.iter().enumerate() {
            let parent = doc.parent(node).map(|p| index_of[&p]);
            let position = match doc.parent(node) {
                Some(p) => doc
                    .children(p)
                    .position(|c| c == node)
                    .map(|x| u32::try_from(x).expect("few children"))
                    .unwrap_or(0),
                None => 0,
            };
            let kind = match doc.kind(node) {
                NodeKind::Element { name, .. } => SummaryKind::Element(name.clone()),
                NodeKind::Text(_) => SummaryKind::Text,
            };
            let content = content_bytes(doc, node);
            summaries.push(NodeSummary {
                index: u32::try_from(i).expect("document too large"),
                parent,
                position,
                kind,
                content_hash: sha256(&content),
            });
            contents.push(content);
        }

        let leaf_data: Vec<Vec<u8>> = summaries.iter().map(NodeSummary::leaf_bytes).collect();
        let tree = MerkleTree::from_data(&leaf_data);
        AuthenticDocument {
            order,
            index_of,
            summaries,
            contents,
            tree,
        }
    }

    /// The Merkle root over all node leaves.
    #[must_use]
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Number of leaves (== live nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for a document with no nodes (cannot happen for parsed docs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Leaf index of `node`.
    #[must_use]
    pub fn index(&self, node: NodeId) -> Option<u32> {
        self.index_of.get(&node).copied()
    }

    /// Summary at `index`.
    #[must_use]
    pub fn summary(&self, index: u32) -> &NodeSummary {
        &self.summaries[index as usize]
    }

    /// Content bytes at `index`.
    #[must_use]
    pub fn content(&self, index: u32) -> &[u8] {
        &self.contents[index as usize]
    }

    /// The underlying Merkle tree (for proofs).
    #[must_use]
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            "<shop><item id=\"1\"><price>10</price></item><item id=\"2\"><price>20</price></item></shop>",
        )
        .unwrap()
    }

    #[test]
    fn build_covers_all_nodes() {
        let d = doc();
        let a = AuthenticDocument::build(&d);
        assert_eq!(a.len(), d.node_count());
        for node in d.all_nodes() {
            assert!(a.index(node).is_some());
        }
    }

    #[test]
    fn root_changes_with_content() {
        let d1 = doc();
        let d2 = Document::parse(
            "<shop><item id=\"1\"><price>10</price></item><item id=\"2\"><price>21</price></item></shop>",
        )
        .unwrap();
        assert_ne!(
            AuthenticDocument::build(&d1).root(),
            AuthenticDocument::build(&d2).root()
        );
    }

    #[test]
    fn root_changes_with_structure() {
        let d1 = Document::parse("<a><b/><c/></a>").unwrap();
        let d2 = Document::parse("<a><c/><b/></a>").unwrap();
        assert_ne!(
            AuthenticDocument::build(&d1).root(),
            AuthenticDocument::build(&d2).root()
        );
    }

    #[test]
    fn summary_hashes_match_content() {
        let d = doc();
        let a = AuthenticDocument::build(&d);
        for i in 0..a.len() as u32 {
            assert_eq!(a.summary(i).content_hash, sha256(a.content(i)));
        }
    }

    #[test]
    fn attrs_codec_roundtrip() {
        let mut d = Document::new("r");
        d.set_attribute(d.root(), "z", "1");
        d.set_attribute(d.root(), "a", "héllo");
        let bytes = content_bytes(&d, d.root());
        let attrs = decode_attrs(&bytes).unwrap();
        assert_eq!(
            attrs,
            vec![
                ("a".to_string(), "héllo".to_string()),
                ("z".to_string(), "1".to_string())
            ]
        );
    }

    #[test]
    fn attrs_codec_rejects_truncation() {
        let mut d = Document::new("r");
        d.set_attribute(d.root(), "key", "value");
        let bytes = content_bytes(&d, d.root());
        assert!(decode_attrs(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn leaf_bytes_distinguish_kinds() {
        let s1 = NodeSummary {
            index: 0,
            parent: None,
            position: 0,
            kind: SummaryKind::Element("t".into()),
            content_hash: sha256(b""),
        };
        let mut s2 = s1.clone();
        s2.kind = SummaryKind::Text;
        assert_ne!(s1.leaf_bytes(), s2.leaf_bytes());
    }

    #[test]
    fn deterministic_root() {
        let d = doc();
        assert_eq!(
            AuthenticDocument::build(&d).root(),
            AuthenticDocument::build(&d).root()
        );
    }
}
