//! The unified cross-crate information-flow graph and its worklist engine.
//!
//! The graph is the shared substrate of the whole-stack passes
//! (WS006–WS012): nodes stand for the principals and assets of every layer
//! — subjects, roles, credential types, policy objects, RDF statements,
//! privacy attributes, dissemination regions and their keys, UDDI bindings
//! and tModels — and edges for the ways information or authority can move
//! between them (grants, seniority, schema entailment, joinable releases,
//! key coverage, tModel implementation, credential satisfaction).
//!
//! Construction borrows from the configured stores; nothing is copied
//! beyond the node labels. Two algorithms run over the graph, both plain
//! worklist fixpoints:
//!
//! * [`FlowGraph::reachable`] — forward closure from a seed set along a
//!   chosen edge-kind subset (used by the privacy-inference and
//!   tModel-chain passes);
//! * [`FlowGraph::cyclic_components`] — the node groups that sit on a
//!   directed cycle of a chosen edge-kind subset (used by the
//!   role-escalation pass).
//!
//! Node and edge storage is index-based with a `BTreeMap` interner, so
//! iteration — and therefore every diagnostic derived from the graph — is
//! deterministic.

use std::collections::{BTreeMap, BTreeSet};

/// A node of the information-flow graph. Variants cover every layer of the
/// stack; the `String` payloads are display names, unique per variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowNode {
    /// An authenticated subject identity.
    Subject(String),
    /// A role from some hierarchy or `InRole` subject spec.
    Role(String),
    /// A credential type referenced by a `WithCredentials` spec.
    CredentialType(String),
    /// A policy object (document or collection name).
    PolicyObject(String),
    /// An RDF statement, keyed by its N-Triples-ish rendering.
    Statement(String),
    /// A relational attribute (column name, shared across tables — equal
    /// names join).
    Attribute(String),
    /// A dissemination region of a document: `(document, region id)`.
    Region(String, u32),
    /// A UDDI binding template.
    Binding(String),
    /// A UDDI tModel.
    TModel(String),
}

impl std::fmt::Display for FlowNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowNode::Subject(s) => write!(f, "subject '{s}'"),
            FlowNode::Role(r) => write!(f, "role '{r}'"),
            FlowNode::CredentialType(t) => write!(f, "credential type '{t}'"),
            FlowNode::PolicyObject(o) => write!(f, "object '{o}'"),
            FlowNode::Statement(s) => write!(f, "statement {s}"),
            FlowNode::Attribute(a) => write!(f, "attribute '{a}'"),
            FlowNode::Region(d, r) => write!(f, "region #{r} of '{d}'"),
            FlowNode::Binding(b) => write!(f, "binding '{b}'"),
            FlowNode::TModel(t) => write!(f, "tModel '{t}'"),
        }
    }
}

/// The relationship an edge carries. Passes select the subset they care
/// about, so unrelated layers never interfere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// A positive authorization: subject/role → object.
    Grant,
    /// An Admin-privilege authorization: subject/role → object (the holder
    /// can rewrite the object's policy).
    AdminGrant,
    /// Privileges of the junior flow to the senior: junior role → senior
    /// role.
    Seniority,
    /// Privilege appropriation: role with grants on an object → role
    /// holding Admin over that object (the admin can mint itself the
    /// former's privileges).
    Escalation,
    /// RDFS entailment: premise statement → entailed statement.
    Entails,
    /// A joint release can link the two attributes: attribute → attribute.
    Join,
    /// A subject holds a region key: subject → region.
    Holds,
    /// The current policy base entitles the subject to the region:
    /// subject → region.
    Covers,
    /// A binding implements a tModel: binding → tModel.
    Implements,
    /// A registered subject satisfies a credential type: subject →
    /// credential type.
    Satisfies,
}

/// The information-flow graph: interned nodes plus kind-tagged directed
/// edges, with deterministic iteration order.
#[derive(Debug, Default, Clone)]
pub struct FlowGraph {
    nodes: Vec<FlowNode>,
    index: BTreeMap<FlowNode, usize>,
    out: Vec<BTreeSet<(usize, EdgeKind)>>,
}

impl FlowGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `node`, returning its index (stable across repeated calls).
    pub fn node(&mut self, node: FlowNode) -> usize {
        if let Some(&i) = self.index.get(&node) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(node.clone(), i);
        self.nodes.push(node);
        self.out.push(BTreeSet::new());
        i
    }

    /// Index of an already-interned node, if present.
    #[must_use]
    pub fn find(&self, node: &FlowNode) -> Option<usize> {
        self.index.get(node).copied()
    }

    /// The node at `index`.
    #[must_use]
    pub fn label(&self, index: usize) -> &FlowNode {
        &self.nodes[index]
    }

    /// Adds a directed edge (idempotent).
    pub fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.out[from].insert((to, kind));
    }

    /// Interns both endpoints and adds the edge in one call.
    pub fn link(&mut self, from: FlowNode, to: FlowNode, kind: EdgeKind) {
        let f = self.node(from);
        let t = self.node(to);
        self.edge(f, t, kind);
    }

    /// Number of interned nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(BTreeSet::len).sum()
    }

    /// All node indices whose label satisfies `pred`, ascending.
    pub fn nodes_where(&self, mut pred: impl FnMut(&FlowNode) -> bool) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| pred(&self.nodes[i]))
            .collect()
    }

    /// Successors of `from` along edges of the given kinds.
    pub fn successors<'a>(
        &'a self,
        from: usize,
        kinds: &'a [EdgeKind],
    ) -> impl Iterator<Item = usize> + 'a {
        self.out[from]
            .iter()
            .filter(move |(_, k)| kinds.contains(k))
            .map(|(t, _)| *t)
    }

    /// True when an edge `from → to` of `kind` exists.
    #[must_use]
    pub fn has_edge(&self, from: usize, to: usize, kind: EdgeKind) -> bool {
        self.out[from].contains(&(to, kind))
    }

    /// Worklist fixpoint: the forward closure of `seeds` along edges whose
    /// kind is in `kinds`. Seeds are included in the result.
    #[must_use]
    pub fn reachable(&self, seeds: &[usize], kinds: &[EdgeKind]) -> BTreeSet<usize> {
        let mut reached: BTreeSet<usize> = seeds.iter().copied().collect();
        let mut work: Vec<usize> = seeds.to_vec();
        while let Some(n) = work.pop() {
            for succ in self.successors(n, kinds) {
                if reached.insert(succ) {
                    work.push(succ);
                }
            }
        }
        reached
    }

    /// Nodes that sit on a directed cycle of edges whose kind is in
    /// `kinds`, grouped into their strongly-connected components (each
    /// component sorted ascending, components sorted by first member).
    ///
    /// Implemented as a worklist trim: repeatedly discard nodes with no
    /// in-subset successor or predecessor among the survivors; whatever
    /// remains lies on a cycle. Survivors are then grouped by mutual
    /// reachability.
    #[must_use]
    pub fn cyclic_components(&self, kinds: &[EdgeKind]) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut alive: Vec<bool> = vec![true; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                let has_succ = self.successors(i, kinds).any(|s| alive[s]);
                let has_pred =
                    (0..n).any(|p| alive[p] && self.successors(p, kinds).any(|s| s == i));
                if !has_succ || !has_pred {
                    alive[i] = false;
                    changed = true;
                }
            }
        }
        // Survivors all lie on some cycle; group mutually-reachable ones.
        let survivors: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        let mut assigned: BTreeSet<usize> = BTreeSet::new();
        let mut components = Vec::new();
        for &s in &survivors {
            if assigned.contains(&s) {
                continue;
            }
            let fwd = self.reachable(&[s], kinds);
            let component: Vec<usize> = survivors
                .iter()
                .copied()
                .filter(|&t| fwd.contains(&t) && self.reachable(&[t], kinds).contains(&s))
                .collect();
            // A lone survivor without a self-loop is not a cycle by itself
            // (it survived the trim through a larger cycle it borders).
            if component.len() == 1 && !self.has_edge_any(s, s, kinds) {
                continue;
            }
            assigned.extend(component.iter().copied());
            components.push(component);
        }
        components
    }

    fn has_edge_any(&self, from: usize, to: usize, kinds: &[EdgeKind]) -> bool {
        kinds.iter().any(|&k| self.out[from].contains(&(to, k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(n: &str) -> FlowNode {
        FlowNode::Role(n.to_string())
    }

    #[test]
    fn interning_is_stable() {
        let mut g = FlowGraph::new();
        let a = g.node(role("a"));
        let a2 = g.node(role("a"));
        assert_eq!(a, a2);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.find(&role("a")), Some(a));
        assert_eq!(g.find(&role("b")), None);
    }

    #[test]
    fn reachability_respects_edge_kinds() {
        let mut g = FlowGraph::new();
        let a = g.node(role("a"));
        let b = g.node(role("b"));
        let c = g.node(role("c"));
        g.edge(a, b, EdgeKind::Seniority);
        g.edge(b, c, EdgeKind::Escalation);
        let senior_only = g.reachable(&[a], &[EdgeKind::Seniority]);
        assert!(senior_only.contains(&b) && !senior_only.contains(&c));
        let both = g.reachable(&[a], &[EdgeKind::Seniority, EdgeKind::Escalation]);
        assert!(both.contains(&c));
    }

    #[test]
    fn cycle_detection_finds_mixed_cycle() {
        let mut g = FlowGraph::new();
        let a = g.node(role("a"));
        let b = g.node(role("b"));
        let c = g.node(role("c"));
        g.edge(a, b, EdgeKind::Seniority);
        g.edge(b, a, EdgeKind::Escalation);
        g.edge(b, c, EdgeKind::Seniority); // dangling tail, not cyclic
        let comps = g.cyclic_components(&[EdgeKind::Seniority, EdgeKind::Escalation]);
        assert_eq!(comps, vec![vec![a, b]]);
        // Without the escalation kind there is no cycle.
        assert!(g.cyclic_components(&[EdgeKind::Seniority]).is_empty());
    }

    #[test]
    fn acyclic_graph_has_no_components() {
        let mut g = FlowGraph::new();
        let a = g.node(role("a"));
        let b = g.node(role("b"));
        g.edge(a, b, EdgeKind::Grant);
        assert!(g.cyclic_components(&[EdgeKind::Grant]).is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn display_names_cover_variants() {
        let samples = [
            FlowNode::Subject("s".into()),
            FlowNode::Role("r".into()),
            FlowNode::CredentialType("c".into()),
            FlowNode::PolicyObject("o".into()),
            FlowNode::Statement("t".into()),
            FlowNode::Attribute("a".into()),
            FlowNode::Region("d".into(), 1),
            FlowNode::Binding("b".into()),
            FlowNode::TModel("m".into()),
        ];
        for s in &samples {
            assert!(!s.to_string().is_empty());
        }
    }
}
