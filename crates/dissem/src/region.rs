//! Policy-equivalence regions and the node records they carry.
//!
//! A **region** is the set of document nodes granted by exactly the same set
//! of (positive, read) authorizations. Each region is encrypted with its own
//! key; a node granted by policies {A, B} lands in the {A, B} region, so a
//! subject satisfying either A or B receives that region's key — exactly the
//! minimal-key scheme of §4.1.
//!
//! Region payloads are **node records**. An `Element` or `Text` record
//! carries the node's complete content; a `Shell` record carries only the
//! element name and tree position, letting the subscriber rebuild the path
//! from the root to its authorized nodes. That is exactly what the Author-X
//! view (`Document::prune_to_view`) keeps of such an ancestor, so under a
//! policy base of grants the opened package equals the pulled view byte
//! for byte.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use websec_policy::{AuthzId, PolicyEngine, PolicyStore, Privilege, Sign, SubjectProfile};
use websec_xml::{Document, NodeId, NodeKind};

/// Region identifier (dense, stable within one [`RegionMap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A serializable record of one document node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRecord {
    /// Complete element: id, parent, sibling position, name, attributes.
    Element {
        /// Node id in the source document.
        id: u32,
        /// Parent node id (`None` for the root).
        parent: Option<u32>,
        /// Position among the parent's children.
        position: u32,
        /// Tag name.
        name: String,
        /// Attribute pairs.
        attributes: Vec<(String, String)>,
    },
    /// Complete text node.
    Text {
        /// Node id in the source document.
        id: u32,
        /// Parent node id.
        parent: u32,
        /// Position among the parent's children.
        position: u32,
        /// Text content.
        content: String,
    },
    /// Structural shell of an ancestor element: name only, no attribute,
    /// as the view keeps a denied ancestor of a readable node.
    Shell {
        /// Node id in the source document.
        id: u32,
        /// Parent node id (`None` for the root).
        parent: Option<u32>,
        /// Position among the parent's children.
        position: u32,
        /// Tag name (structure is considered visible; content is not).
        name: String,
    },
}

impl NodeRecord {
    /// The node id this record describes.
    #[must_use]
    pub fn id(&self) -> u32 {
        match self {
            NodeRecord::Element { id, .. }
            | NodeRecord::Text { id, .. }
            | NodeRecord::Shell { id, .. } => *id,
        }
    }

    /// True for shell (structure-only) records.
    #[must_use]
    pub fn is_shell(&self) -> bool {
        matches!(self, NodeRecord::Shell { .. })
    }
}

/// One policy-equivalence region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Identifier.
    pub id: RegionId,
    /// The granting authorizations shared by every node in the region.
    pub policies: BTreeSet<AuthzId>,
    /// Node records (full nodes plus ancestor shells).
    pub records: Vec<NodeRecord>,
}

impl Region {
    /// The entitlement rule of push-mode keys: true when some policy of
    /// the region names a grant in `store` whose subject `profile`
    /// matches. [`crate::KeyAuthority::keys_for`] hands out the keys of
    /// exactly these regions, and the analyzer's WS008 re-derives
    /// entitlement through this method.
    #[must_use]
    pub fn granted_to(&self, store: &PolicyStore, profile: &SubjectProfile) -> bool {
        self.policies.iter().any(|&pid| {
            store.get(pid).is_some_and(|a| {
                a.sign == Sign::Plus && a.subject.matches(profile, &store.hierarchy)
            })
        })
    }
}

/// The complete partition of one document.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Document name the partition was computed for.
    pub document: String,
    /// Regions with at least one granting policy. Nodes granted by **no**
    /// policy are omitted entirely (they are never disseminated).
    pub regions: Vec<Region>,
    /// Number of nodes not covered by any policy.
    pub undisclosed_nodes: usize,
}

impl RegionMap {
    /// Partitions `doc` according to the read-granting authorizations in
    /// `store`.
    #[must_use]
    pub fn build(store: &PolicyStore, doc_name: &str, doc: &Document) -> Self {
        let classes =
            PolicyEngine::policy_equivalence_classes(store, doc_name, doc, Privilege::Read);
        let mut regions = Vec::new();
        let mut undisclosed = 0usize;
        let mut next = 0u32;
        for (policies, nodes) in classes {
            if policies.is_empty() {
                undisclosed += nodes.len();
                continue;
            }
            let records = records_for(doc, &nodes);
            regions.push(Region {
                id: RegionId(next),
                policies,
                records,
            });
            next += 1;
        }
        RegionMap {
            document: doc_name.to_string(),
            regions,
            undisclosed_nodes: undisclosed,
        }
    }

    /// Number of regions (== number of distinct keys needed).
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.regions.len()
    }
}

/// Builds the record list for `nodes`: full records for each node, plus
/// shell records for every ancestor not already included in full form.
fn records_for(doc: &Document, nodes: &[NodeId]) -> Vec<NodeRecord> {
    let in_region: BTreeSet<NodeId> = nodes.iter().copied().collect();
    let mut shells: BTreeSet<NodeId> = BTreeSet::new();
    for &n in nodes {
        for anc in doc.ancestors(n) {
            if !in_region.contains(&anc) {
                shells.insert(anc);
            }
        }
    }

    // Sibling positions for reconstruction ordering.
    let position = |n: NodeId| -> u32 {
        match doc.parent(n) {
            Some(p) => doc
                .children(p)
                .position(|c| c == n)
                .map(|i| u32::try_from(i).expect("few children"))
                .unwrap_or(0),
            None => 0,
        }
    };

    let mut records = Vec::with_capacity(nodes.len() + shells.len());
    for &n in nodes.iter().chain(shells.iter()) {
        let id = u32::try_from(n.index()).expect("document too large");
        let parent = doc.parent(n).map(|p| u32::try_from(p.index()).expect("id"));
        let pos = position(n);
        let record = if shells.contains(&n) {
            NodeRecord::Shell {
                id,
                parent,
                position: pos,
                name: doc.name(n).unwrap_or("?").to_string(),
            }
        } else {
            match doc.kind(n) {
                NodeKind::Element { name, attributes } => NodeRecord::Element {
                    id,
                    parent,
                    position: pos,
                    name: name.clone(),
                    attributes: attributes.clone(),
                },
                NodeKind::Text(content) => NodeRecord::Text {
                    id,
                    parent: parent.expect("text nodes have parents"),
                    position: pos,
                    content: content.clone(),
                },
            }
        };
        records.push(record);
    }
    records
}

/// Rebuilds a document from decrypted records (full records win over shells
/// for the same node id). Returns `None` when no root record is present.
#[must_use]
pub fn reconstruct(records: &[NodeRecord]) -> Option<Document> {
    // Deduplicate by id, preferring full records.
    let mut by_id: HashMap<u32, &NodeRecord> = HashMap::new();
    for r in records {
        match by_id.get(&r.id()) {
            Some(existing) if !existing.is_shell() => {}
            _ => {
                if r.is_shell() {
                    by_id.entry(r.id()).or_insert(r);
                } else {
                    by_id.insert(r.id(), r);
                }
            }
        }
    }

    // Find the root (parent == None).
    let root = by_id.values().find(|r| match r {
        NodeRecord::Element { parent, .. } | NodeRecord::Shell { parent, .. } => parent.is_none(),
        NodeRecord::Text { .. } => false,
    })?;
    let root_name = match root {
        NodeRecord::Element { name, .. } | NodeRecord::Shell { name, .. } => name.clone(),
        NodeRecord::Text { .. } => unreachable!(),
    };
    let root_id = root.id();
    let mut doc = Document::new(&root_name);
    if let NodeRecord::Element { attributes, .. } = root {
        for (k, v) in attributes {
            doc.set_attribute(doc.root(), k, v);
        }
    }

    // Children by parent, ordered by recorded position.
    let mut children: BTreeMap<u32, Vec<&NodeRecord>> = BTreeMap::new();
    for r in by_id.values() {
        let parent = match r {
            NodeRecord::Element { parent, .. } | NodeRecord::Shell { parent, .. } => *parent,
            NodeRecord::Text { parent, .. } => Some(*parent),
        };
        if let Some(p) = parent {
            children.entry(p).or_default().push(r);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|r| match r {
            NodeRecord::Element { position, .. }
            | NodeRecord::Shell { position, .. }
            | NodeRecord::Text { position, .. } => *position,
        });
    }

    // DFS attach.
    let mut stack = vec![(root_id, doc.root())];
    while let Some((old_id, new_id)) = stack.pop() {
        if let Some(kids) = children.get(&old_id) {
            for r in kids {
                match r {
                    NodeRecord::Element {
                        id,
                        name,
                        attributes,
                        ..
                    } => {
                        let e = doc.add_element(new_id, name);
                        for (k, v) in attributes {
                            doc.set_attribute(e, k, v);
                        }
                        stack.push((*id, e));
                    }
                    NodeRecord::Shell { id, name, .. } => {
                        let e = doc.add_element(new_id, name);
                        stack.push((*id, e));
                    }
                    NodeRecord::Text { content, .. } => {
                        doc.add_text(new_id, content);
                    }
                }
            }
        }
    }
    Some(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, SubjectSpec};
    use websec_xml::Path;

    fn doc() -> Document {
        Document::parse(
            "<hospital>\
               <patient id=\"p1\"><name>Alice</name><record>flu</record></patient>\
               <admin><budget>100</budget></admin>\
             </hospital>",
        )
        .unwrap()
    }

    fn store_two_policies() -> PolicyStore {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("accountant".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("/hospital/admin").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        store
    }

    #[test]
    fn build_partitions_by_policy_set() {
        let d = doc();
        let map = RegionMap::build(&store_two_policies(), "h.xml", &d);
        assert_eq!(map.key_count(), 2);
        // Root node is covered by no policy.
        assert_eq!(map.undisclosed_nodes, 1);
    }

    #[test]
    fn regions_include_ancestor_shells() {
        let d = doc();
        let map = RegionMap::build(&store_two_policies(), "h.xml", &d);
        for region in &map.regions {
            // Every region must contain a shell for the root.
            assert!(
                region.records.iter().any(|r| r.is_shell()),
                "region {:?} lacks shells",
                region.id
            );
        }
    }

    #[test]
    fn reconstruct_single_region() {
        let d = doc();
        let map = RegionMap::build(&store_two_policies(), "h.xml", &d);
        // The patient region (policy 0).
        let patient_region = map
            .regions
            .iter()
            .find(|r| {
                r.records
                    .iter()
                    .any(|rec| matches!(rec, NodeRecord::Element { name, .. } if name == "patient"))
            })
            .unwrap();
        let view = reconstruct(&patient_region.records).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("Alice"), "{s}");
        assert!(s.contains("flu"), "{s}");
        assert!(!s.contains("budget"), "{s}");
        assert!(s.starts_with("<hospital>"), "root shell present: {s}");
    }

    #[test]
    fn reconstruct_merges_regions() {
        let d = doc();
        let map = RegionMap::build(&store_two_policies(), "h.xml", &d);
        let mut all: Vec<NodeRecord> = Vec::new();
        for r in &map.regions {
            all.extend(r.records.iter().cloned());
        }
        let view = reconstruct(&all).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("Alice") && s.contains("budget"), "{s}");
    }

    #[test]
    fn reconstruct_preserves_sibling_order() {
        let d = Document::parse("<r><a/><b/><c/></r>").unwrap();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("d".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let map = RegionMap::build(&store, "d", &d);
        assert_eq!(map.key_count(), 1);
        let view = reconstruct(&map.regions[0].records).unwrap();
        assert_eq!(view.to_xml_string(), "<r><a/><b/><c/></r>");
    }

    #[test]
    fn reconstruct_empty_is_none() {
        assert!(reconstruct(&[]).is_none());
    }

    #[test]
    fn full_record_wins_over_shell() {
        let d = doc();
        // patient region + admin region both shell the root; merging with a
        // full root record (from a root-granting policy) keeps attributes.
        let mut store = store_two_policies();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("root-reader".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("/hospital").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        let map = RegionMap::build(&store, "h.xml", &d);
        // Root-granting policy cascades over everything: nodes now have
        // bigger policy sets, still partitioned consistently.
        let total_records: usize = map.regions.iter().map(|r| r.records.len()).sum();
        assert!(total_records >= d.node_count());
        let mut all: Vec<NodeRecord> = Vec::new();
        for r in &map.regions {
            all.extend(r.records.iter().cloned());
        }
        let view = reconstruct(&all).unwrap();
        assert_eq!(view.to_xml_string(), d.to_xml_string());
    }

    #[test]
    fn undisclosed_nodes_never_in_records() {
        let d = doc();
        let map = RegionMap::build(&store_two_policies(), "h.xml", &d);
        // Root is undisclosed: it may appear as a shell but never as a full
        // element record with attributes.
        for r in &map.regions {
            for rec in &r.records {
                if rec.id() == u32::try_from(d.root().index()).unwrap() {
                    assert!(rec.is_shell());
                }
            }
        }
    }
}
