//! Arena-based XML document model.
//!
//! Nodes live in a flat arena indexed by [`NodeId`]; element attributes are
//! stored inline on the element (the path language still addresses them
//! individually). The arena gives every node a stable identity for the
//! lifetime of the document, which the policy engine relies on when it maps
//! authorizations to document portions.

use crate::automaton::NodeBitset;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Stable identifier of a node within one [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two node kinds of the subset: elements (with inline attributes) and
/// text. Comments and processing instructions are dropped at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a tag name and ordered attribute list.
    Element {
        /// Tag name.
        name: String,
        /// Ordered `(name, value)` attribute pairs.
        attributes: Vec<(String, String)>,
    },
    /// A text node.
    Text(String),
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) kind: NodeKind,
    pub(crate) children: Vec<NodeId>,
    /// Tombstone flag used by view pruning.
    pub(crate) removed: bool,
}

/// An XML document: a tree of elements and text nodes rooted at
/// [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    root: NodeId,
}

impl Document {
    /// Creates a document with a single root element named `root_name`.
    #[must_use]
    pub fn new(root_name: &str) -> Self {
        let root = Node {
            parent: None,
            kind: NodeKind::Element {
                name: root_name.to_string(),
                attributes: Vec::new(),
            },
            children: Vec::new(),
            removed: false,
        };
        Document {
            nodes: vec![root],
            root: NodeId(0),
        }
    }

    /// The root element id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live (non-pruned) nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.removed).count()
    }

    /// Total arena slots (live + pruned): the exclusive upper bound on
    /// [`NodeId::index`] for this document, used to size per-document
    /// symbol tables and bitsets.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document too large"));
        self.nodes.push(node);
        id
    }

    /// Appends a child element to `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is a text node or was pruned.
    pub fn add_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        self.assert_live_element(parent);
        let id = self.push_node(Node {
            parent: Some(parent),
            kind: NodeKind::Element {
                name: name.to_string(),
                attributes: Vec::new(),
            },
            children: Vec::new(),
            removed: false,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a text child to `parent` and returns its id.
    pub fn add_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.assert_live_element(parent);
        let id = self.push_node(Node {
            parent: Some(parent),
            kind: NodeKind::Text(text.to_string()),
            children: Vec::new(),
            removed: false,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets (or replaces) attribute `name` on element `node`.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: &str) {
        self.assert_live_element(node);
        if let NodeKind::Element { attributes, .. } = &mut self.nodes[node.index()].kind {
            if let Some(slot) = attributes.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value.to_string();
            } else {
                attributes.push((name.to_string(), value.to_string()));
            }
        }
    }

    /// Removes attribute `name` from element `node`; returns whether it existed.
    pub fn remove_attribute(&mut self, node: NodeId, name: &str) -> bool {
        if let NodeKind::Element { attributes, .. } = &mut self.nodes[node.index()].kind {
            let before = attributes.len();
            attributes.retain(|(n, _)| n != name);
            attributes.len() != before
        } else {
            false
        }
    }

    fn assert_live_element(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        assert!(!n.removed, "node was pruned");
        assert!(
            matches!(n.kind, NodeKind::Element { .. }),
            "expected an element node"
        );
    }

    /// Returns the kind of `node`.
    #[must_use]
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.index()].kind
    }

    /// Element tag name, or `None` for text nodes.
    #[must_use]
    pub fn name(&self, node: NodeId) -> Option<&str> {
        match &self.nodes[node.index()].kind {
            NodeKind::Element { name, .. } => Some(name),
            NodeKind::Text(_) => None,
        }
    }

    /// Attribute value on an element.
    #[must_use]
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        match &self.nodes[node.index()].kind {
            NodeKind::Element { attributes, .. } => attributes
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str()),
            NodeKind::Text(_) => None,
        }
    }

    /// All attributes of an element (empty for text nodes).
    #[must_use]
    pub fn attributes(&self, node: NodeId) -> &[(String, String)] {
        match &self.nodes[node.index()].kind {
            NodeKind::Element { attributes, .. } => attributes,
            NodeKind::Text(_) => &[],
        }
    }

    /// Parent of `node` (`None` for the root).
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Live children of `node`, in document order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[node.index()]
            .children
            .iter()
            .copied()
            .filter(|c| !self.nodes[c.index()].removed)
    }

    /// Whether `node` has been pruned from the document.
    #[must_use]
    pub fn is_removed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].removed
    }

    /// Pre-order traversal of the live subtree rooted at `node` (inclusive).
    #[must_use]
    pub fn descendants(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            if self.nodes[id.index()].removed {
                continue;
            }
            out.push(id);
            // Push children reversed so traversal is document-ordered.
            for &c in self.nodes[id.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All live node ids in document order.
    #[must_use]
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.descendants(self.root)
    }

    /// Concatenated text content of the subtree under `node`.
    #[must_use]
    pub fn text_content(&self, node: NodeId) -> String {
        let mut out = String::new();
        for id in self.descendants(node) {
            if let NodeKind::Text(t) = &self.nodes[id.index()].kind {
                out.push_str(t);
            }
        }
        out
    }

    /// Chain of ancestors from `node` (exclusive) to the root (inclusive).
    #[must_use]
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[node.index()].parent;
        while let Some(id) = cur {
            out.push(id);
            cur = self.nodes[id.index()].parent;
        }
        out
    }

    /// Depth of `node` (root has depth 0).
    #[must_use]
    pub fn depth(&self, node: NodeId) -> usize {
        self.ancestors(node).len()
    }

    /// Marks the subtree under `node` as removed. Pruning the root empties
    /// every child but keeps the root element itself, so a document always
    /// serializes to well-formed XML.
    pub fn prune(&mut self, node: NodeId) {
        if node == self.root {
            let children: Vec<NodeId> = self.nodes[node.index()].children.clone();
            for c in children {
                self.prune(c);
            }
            return;
        }
        for id in self.descendants(node) {
            self.nodes[id.index()].removed = true;
        }
    }

    /// Produces a copy of the document containing only the nodes in `keep`
    /// (plus their ancestors, so the result stays a tree, and minus
    /// attributes not listed in `keep_attrs` for nodes that appear there).
    /// An ancestor kept only as structure is a shell: it keeps its name and
    /// loses every attribute.
    ///
    /// This is the Author-X "view" operation: the subject sees exactly the
    /// authorized portion. Keeping a node does not keep its descendants;
    /// callers decide subtree semantics.
    #[must_use]
    pub fn prune_to_view(
        &self,
        keep: &NodeBitset,
        keep_attrs: &HashMap<NodeId, Vec<String>>,
    ) -> Document {
        let mut view = self.clone();
        let mut keep_full = keep.clone();
        for id in keep.iter() {
            let mut cur = self.nodes[id.index()].parent;
            // Stop at a node already kept: it is in `keep`, whose own walk
            // adds its ancestors, or an earlier walk went on past it.
            while let Some(anc) = cur.filter(|&a| !keep_full.contains(a)) {
                keep_full.insert(anc);
                cur = self.nodes[anc.index()].parent;
            }
        }
        for id in self.all_nodes() {
            if !keep_full.contains(id) {
                view.nodes[id.index()].removed = true;
            } else if !keep.contains(id) {
                if let NodeKind::Element { attributes, .. } = &mut view.nodes[id.index()].kind {
                    attributes.clear();
                }
            }
        }
        for (id, allowed) in keep_attrs {
            if view.nodes[id.index()].removed {
                continue;
            }
            if let NodeKind::Element { attributes, .. } = &mut view.nodes[id.index()].kind {
                attributes.retain(|(n, _)| allowed.iter().any(|a| a == n));
            }
        }
        view
    }

    /// Serializes the live subtree under `node`, wrapped in its chain of
    /// ancestor elements (each carrying its attributes but none of its other
    /// children). The output is byte-identical to the XML of the
    /// `prune_to_view` that keeps the subtree and its ancestors, but
    /// performs no copy of the document — this is the cheap "slice" used by
    /// the serving layer when projecting matched nodes out of a cached
    /// policy view. A removed `node` serializes to the empty string.
    #[must_use]
    pub fn subtree_xml(&self, node: NodeId) -> String {
        if self.nodes[node.index()].removed {
            return String::new();
        }
        let mut out = String::new();
        let mut chain = self.ancestors(node);
        chain.reverse(); // root first, parent of `node` last
        for &anc in &chain {
            if let NodeKind::Element { name, attributes } = &self.nodes[anc.index()].kind {
                let _ = write!(out, "<{name}");
                for (k, v) in attributes {
                    let _ = write!(out, " {k}=\"{}\"", escape_attr(v));
                }
                out.push('>');
            }
        }
        let _ = self.write_node(node, &mut out);
        for &anc in chain.iter().rev() {
            if let NodeKind::Element { name, .. } = &self.nodes[anc.index()].kind {
                let _ = write!(out, "</{name}>");
            }
        }
        out
    }

    /// Serializes the live tree to an XML string.
    #[must_use]
    pub fn to_xml_string(&self) -> String {
        self.node_xml(self.root)
    }

    /// Serializes the live subtree under `node` alone, without its
    /// ancestors: the bytes [`Document::to_xml_string`] writes for it. A
    /// removed `node` serializes to the empty string.
    #[must_use]
    pub fn node_xml(&self, node: NodeId) -> String {
        let mut out = String::new();
        let _ = self.write_node(node, &mut out);
        out
    }

    /// Canonical byte serialization of the subtree under `node`, used as
    /// Merkle leaf material: attributes sorted by name, text escaped, no
    /// insignificant whitespace.
    #[must_use]
    pub fn canonical_bytes(&self, node: NodeId) -> Vec<u8> {
        let mut out = String::new();
        self.write_canonical(node, &mut out);
        out.into_bytes()
    }

    fn write_node(&self, id: NodeId, out: &mut impl Write) -> fmt::Result {
        let n = &self.nodes[id.index()];
        if n.removed {
            return Ok(());
        }
        match &n.kind {
            NodeKind::Text(t) => write_escaped(out, t, false),
            NodeKind::Element { name, attributes } => {
                out.write_char('<')?;
                out.write_str(name)?;
                for (k, v) in attributes {
                    out.write_char(' ')?;
                    out.write_str(k)?;
                    out.write_str("=\"")?;
                    write_escaped(out, v, true)?;
                    out.write_char('"')?;
                }
                let mut children = self.children(id).peekable();
                if children.peek().is_none() {
                    return out.write_str("/>");
                }
                out.write_char('>')?;
                for c in children {
                    self.write_node(c, out)?;
                }
                out.write_str("</")?;
                out.write_str(name)?;
                out.write_char('>')
            }
        }
    }

    fn write_canonical(&self, id: NodeId, out: &mut String) {
        let n = &self.nodes[id.index()];
        if n.removed {
            return;
        }
        match &n.kind {
            NodeKind::Text(t) => out.push_str(&escape_text(t)),
            NodeKind::Element { name, attributes } => {
                let mut attrs: Vec<&(String, String)> = attributes.iter().collect();
                attrs.sort_by(|a, b| a.0.cmp(&b.0));
                let _ = write!(out, "<{name}");
                for (k, v) in attrs {
                    let _ = write!(out, " {k}=\"{}\"", escape_attr(v));
                }
                out.push('>');
                for c in self.children(id) {
                    self.write_canonical(c, out);
                }
                let _ = write!(out, "</{name}>");
            }
        }
    }
}

/// Writes `s` to `out` with `&`, `<` and `>` escaped, and `"` too when
/// `attr` is set, one unescaped run at a time.
fn write_escaped(out: &mut impl Write, s: &str, attr: bool) -> fmt::Result {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(entity)?;
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// Escapes text content (`&`, `<`, `>`).
#[must_use]
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s, false);
    out
}

/// Escapes attribute values (text escapes plus `"`).
#[must_use]
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new("hospital");
        let patient = d.add_element(d.root(), "patient");
        d.set_attribute(patient, "id", "p1");
        let name = d.add_element(patient, "name");
        d.add_text(name, "Alice");
        let record = d.add_element(patient, "record");
        d.add_text(record, "flu");
        (d, patient, name, record)
    }

    #[test]
    fn build_and_serialize() {
        let (d, ..) = sample();
        assert_eq!(
            d.to_xml_string(),
            "<hospital><patient id=\"p1\"><name>Alice</name><record>flu</record></patient></hospital>"
        );
    }

    #[test]
    fn node_count_and_descendants() {
        let (d, ..) = sample();
        assert_eq!(d.node_count(), 6);
        assert_eq!(d.descendants(d.root()).len(), 6);
    }

    #[test]
    fn attributes_roundtrip() {
        let (mut d, patient, ..) = sample();
        assert_eq!(d.attribute(patient, "id"), Some("p1"));
        d.set_attribute(patient, "id", "p2");
        assert_eq!(d.attribute(patient, "id"), Some("p2"));
        assert!(d.remove_attribute(patient, "id"));
        assert_eq!(d.attribute(patient, "id"), None);
        assert!(!d.remove_attribute(patient, "id"));
    }

    #[test]
    fn text_content_concatenates() {
        let (d, patient, ..) = sample();
        assert_eq!(d.text_content(patient), "Aliceflu");
    }

    #[test]
    fn ancestors_and_depth() {
        let (d, patient, name, _) = sample();
        assert_eq!(d.ancestors(name), vec![patient, d.root()]);
        assert_eq!(d.depth(name), 2);
        assert_eq!(d.depth(d.root()), 0);
    }

    #[test]
    fn prune_subtree() {
        let (mut d, _, _, record) = sample();
        d.prune(record);
        assert!(d.is_removed(record));
        assert_eq!(
            d.to_xml_string(),
            "<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>"
        );
        assert_eq!(d.node_count(), 4);
    }

    #[test]
    fn prune_root_keeps_shell() {
        let (mut d, ..) = sample();
        d.prune(d.root());
        assert_eq!(d.to_xml_string(), "<hospital/>");
    }

    #[test]
    fn view_keeps_ancestors() {
        let (d, _, name, _) = sample();
        let keep: NodeBitset = [name].into_iter().collect();
        let view = d.prune_to_view(&keep, &HashMap::new());
        // name kept, record dropped, text under name dropped (not in keep),
        // patient kept as a shell without its id.
        assert_eq!(
            view.to_xml_string(),
            "<hospital><patient><name/></patient></hospital>"
        );
    }

    #[test]
    fn view_attribute_pruning() {
        let (d, patient, name, _) = sample();
        let keep: NodeBitset = [patient, name].into_iter().collect();
        let mut keep_attrs = HashMap::new();
        keep_attrs.insert(patient, vec![]); // drop all attributes
        let view = d.prune_to_view(&keep, &keep_attrs);
        assert_eq!(
            view.to_xml_string(),
            "<hospital><patient><name/></patient></hospital>"
        );
    }

    #[test]
    fn escaping() {
        let mut d = Document::new("r");
        let e = d.add_element(d.root(), "e");
        d.set_attribute(e, "a", "x\"<y>");
        d.set_attribute(e, "b", "&");
        d.add_text(e, "a & b < c > \"d\"");
        assert_eq!(
            d.to_xml_string(),
            "<r><e a=\"x&quot;&lt;y&gt;\" b=\"&amp;\">a &amp; b &lt; c &gt; \"d\"</e></r>"
        );
        assert_eq!(escape_text("<\"&\">"), "&lt;\"&amp;\"&gt;");
        assert_eq!(escape_attr("<\"&\">"), "&lt;&quot;&amp;&quot;&gt;");
    }

    #[test]
    fn canonical_sorts_attributes() {
        let mut d = Document::new("r");
        d.set_attribute(d.root(), "z", "1");
        d.set_attribute(d.root(), "a", "2");
        assert_eq!(
            String::from_utf8(d.canonical_bytes(d.root())).unwrap(),
            "<r a=\"2\" z=\"1\"></r>"
        );
    }

    #[test]
    fn canonical_insensitive_to_attr_order() {
        let mut d1 = Document::new("r");
        d1.set_attribute(d1.root(), "a", "1");
        d1.set_attribute(d1.root(), "b", "2");
        let mut d2 = Document::new("r");
        d2.set_attribute(d2.root(), "b", "2");
        d2.set_attribute(d2.root(), "a", "1");
        assert_eq!(d1.canonical_bytes(d1.root()), d2.canonical_bytes(d2.root()));
    }

    #[test]
    fn subtree_xml_matches_prune_to_view() {
        let (d, patient, name, record) = sample();
        for node in [d.root(), patient, name, record] {
            let keep: NodeBitset = d
                .descendants(node)
                .into_iter()
                .chain(d.ancestors(node))
                .collect();
            let via_view = d.prune_to_view(&keep, &HashMap::new()).to_xml_string();
            assert_eq!(d.subtree_xml(node), via_view, "node {node:?}");
        }
    }

    #[test]
    fn node_xml_omits_ancestors() {
        let (mut d, patient, name, record) = sample();
        assert_eq!(d.node_xml(name), "<name>Alice</name>");
        assert_eq!(d.node_xml(d.root()), d.to_xml_string());
        d.prune(record);
        assert_eq!(d.node_xml(record), "");
        assert_eq!(
            d.node_xml(patient),
            "<patient id=\"p1\"><name>Alice</name></patient>"
        );
    }

    #[test]
    fn subtree_xml_wraps_in_ancestor_chain() {
        let (d, _, name, _) = sample();
        assert_eq!(
            d.subtree_xml(name),
            "<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>"
        );
    }

    #[test]
    fn subtree_xml_of_removed_node_is_empty() {
        let (mut d, _, _, record) = sample();
        d.prune(record);
        assert_eq!(d.subtree_xml(record), "");
    }

    #[test]
    fn subtree_xml_skips_removed_descendants() {
        let (mut d, patient, name, _) = sample();
        d.prune(name);
        assert_eq!(
            d.subtree_xml(patient),
            "<hospital><patient id=\"p1\"><record>flu</record></patient></hospital>"
        );
    }

    #[test]
    fn children_skips_removed() {
        let (mut d, patient, name, record) = sample();
        d.prune(name);
        let kids: Vec<NodeId> = d.children(patient).collect();
        assert_eq!(kids, vec![record]);
    }
}
