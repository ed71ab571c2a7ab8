//! Snapshot-time policy compilation: interned decision tables consulted
//! by the serving hot path.
//!
//! The Author-X view semantics are a pure function of (policy set,
//! subject, document) — Gabillon's logical formalization makes the
//! point precisely — so the whole decision procedure can be compiled
//! **once** when a snapshot is published and then consulted with array
//! lookups while the snapshot lives:
//!
//! * every path expression is compiled to a
//!   [`websec_xml::PathAutomaton`] over interned element names (with
//!   [`websec_xml::Path::select`] as the fallback oracle for constructs
//!   the automaton refuses);
//! * subject identities, attribute names and element names are interned
//!   ([`websec_xml::NameInterner`], the analyzer `FlowGraph` idiom), so
//!   hot-path matching compares `u32`s, not strings;
//! * each document's nodes are partitioned into **policy equivalence
//!   classes** — nodes covered by exactly the same authorizations — and
//!   the per-request work drops to: match each covering authorization
//!   against the subject once, resolve one decision per *class* (not
//!   per node), and emit the kept nodes as a
//!   [`websec_xml::NodeBitset`].
//!
//! Compilation pays once per distinct selection, not once per rule. Every
//! rule has a *cover key*: its path (or the whole document) plus its
//! propagation. Rules sharing a key cover the same nodes and attributes,
//! so each document selects and propagates once per key among its
//! candidate rules. A node's class is keyed by the list of groups
//! covering it, and each class's rule list is expanded once. Node
//! positions are indexed by arena slot ([`NodeId::index`]), so `check`
//! and `attr_allowed` find a node's class with two array reads.
//!
//! The tables keep one class-numbering contract, which analyzer output
//! depends on: class ids follow the document order in which each class
//! first appears; every class rule list and attribute-entry rule list
//! is ascending (policy-base order); every live node has a class;
//! attribute entries are sorted by (node position, attribute symbol),
//! with attribute names interned in policy-base order.
//!
//! The interpreted engine ([`crate::engine::PolicyEngine`]) remains the
//! semantic oracle: `CompiledPolicies::compute_view` must be
//! byte-for-byte equal to `PolicyEngine::compute_view`, and each
//! authorization's coverage read from the tables (classes plus
//! attribute entries, [`crate::compiled_view`]) must equal
//! [`PolicyEngine::covered_nodes`], which the seeded
//! `compiled_decisions` integration suite and the unit tests below pin.
//! The tables are the one coverage source of static analysis: the
//! WS013–WS018 verifier reads them, not the interpreter.

use crate::authz::{Authorization, AuthzId, ObjectSpec, Privilege, Propagation, Sign};
use crate::conflict::ConflictStrategy;
use crate::engine::{AccessDecision, PolicyEngine, PolicyStore};
use crate::subject::{CredentialExpr, SubjectProfile};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use websec_xml::{
    Document, DocumentStore, NameInterner, NodeBitset, NodeId, Path, PathAutomaton, Selection,
};

/// Privileges in relevance-bit order.
const PRIVILEGES: [Privilege; 4] = [
    Privilege::Browse,
    Privilege::Read,
    Privilege::Write,
    Privilege::Admin,
];

fn privilege_bit(privilege: Privilege) -> u8 {
    match privilege {
        Privilege::Browse => 1,
        Privilege::Read => 1 << 1,
        Privilege::Write => 1 << 2,
        Privilege::Admin => 1 << 3,
    }
}

/// A read-only borrow of everything policy compilation consumes: the
/// policy base, the conflict strategy, and the documents the snapshot
/// serves. Produce one with [`PolicySnapshot::new`] and call
/// [`PolicySnapshot::compile`] at publication time.
#[derive(Debug, Clone, Copy)]
pub struct PolicySnapshot<'a> {
    store: &'a PolicyStore,
    strategy: ConflictStrategy,
    documents: &'a DocumentStore,
}

/// One authorization in compiled form: the interned subject matcher
/// plus the scalar fields conflict resolution reads. Coverage lives in
/// the per-document tables, so the hot path never touches
/// [`ObjectSpec`] again.
#[derive(Debug, Clone)]
pub(crate) struct CompiledAuth {
    pub(crate) id: AuthzId,
    pub(crate) subject: CompiledSubject,
    pub(crate) sign: Sign,
    /// Bit `privilege_bit(p)` set when the authorization bears on a
    /// request for `p` (grant of `q` supports `p ≤ q`; denial of `q`
    /// blocks `p ≥ q`).
    pub(crate) relevance: u8,
    pub(crate) specificity: u8,
    pub(crate) granularity: u8,
    pub(crate) priority: i32,
}

/// Subject specification compiled to interned / precomputed form.
#[derive(Debug, Clone)]
pub(crate) enum CompiledSubject {
    Anyone,
    /// Interned identity symbol; a requester whose identity was never
    /// interned cannot match.
    Identity(u32),
    /// Sorted names of every role whose activation implies the target
    /// role (the target itself plus all hierarchy roles dominating it),
    /// so matching is a binary search instead of a hierarchy walk.
    RoleDominators(Vec<String>),
    Credentials(CredentialExpr),
}

/// Attribute-specific coverage: the authorizations (as local indices)
/// that address one `(node, attribute)` pair of a document.
#[derive(Debug, Clone)]
pub(crate) struct AttrEntry {
    pub(crate) node_pos: u32,
    pub(crate) attr_sym: u32,
    pub(crate) auths: Vec<u32>,
}

/// Per-document decision tables.
#[derive(Debug, Clone)]
pub(crate) struct CompiledDoc {
    /// Indices into [`CompiledPolicies::auths`] of every authorization
    /// that covers at least one node or attribute of this document, in
    /// policy-base order.
    pub(crate) local_auths: Vec<u32>,
    /// Live nodes in document order (the interpreter's `all_nodes`
    /// order, which equivalence-class reconstruction must preserve).
    pub(crate) node_ids: Vec<NodeId>,
    /// Position in `node_ids` per arena slot ([`NodeId::index`]);
    /// [`NO_POS`] for slots that hold no live node.
    pub(crate) node_pos: Vec<u32>,
    /// Equivalence-class id per node, parallel to `node_ids`.
    pub(crate) node_class: Vec<u32>,
    /// Class → covering local authorization indices (sorted).
    pub(crate) classes: Vec<Vec<u32>>,
    /// Attribute-specific coverage, sorted by `(node_pos, attr_sym)`.
    pub(crate) attr_entries: Vec<AttrEntry>,
}

/// [`CompiledDoc::node_pos`] of an arena slot that holds no live node.
const NO_POS: u32 = u32::MAX;

impl CompiledDoc {
    /// Position of `node` in `node_ids`, or `None` when it is not a live
    /// node of the compiled document.
    fn pos(&self, node: NodeId) -> Option<u32> {
        self.node_pos
            .get(node.index())
            .copied()
            .filter(|&pos| pos != NO_POS)
    }
}

/// The compiled artifact: immutable, shared behind an `Arc` inside the
/// server's one published snapshot, and replaced with it.
#[derive(Debug)]
pub struct CompiledPolicies {
    pub(crate) strategy: ConflictStrategy,
    /// Interned subject identities.
    pub(crate) subjects: NameInterner,
    /// Interned attribute names.
    pub(crate) attrs: NameInterner,
    pub(crate) auths: Vec<CompiledAuth>,
    pub(crate) docs: HashMap<String, CompiledDoc>,
    /// The source authorizations, parallel to `auths`, so static analysis
    /// can name the rules it reads coverage for.
    pub(crate) source: Vec<Authorization>,
    pub(crate) hierarchy: crate::subject::RoleHierarchy,
}

impl<'a> PolicySnapshot<'a> {
    /// Snapshots the inputs of compilation.
    #[must_use]
    pub fn new(
        store: &'a PolicyStore,
        strategy: ConflictStrategy,
        documents: &'a DocumentStore,
    ) -> Self {
        PolicySnapshot {
            store,
            strategy,
            documents,
        }
    }

    /// Compiles the snapshot into decision tables. Called once per
    /// snapshot publication (under the server's update lock), never on
    /// the request path.
    #[must_use]
    pub fn compile(&self) -> Arc<CompiledPolicies> {
        let source: Vec<Authorization> = self.store.authorizations().to_vec();
        let mut subjects = NameInterner::new();
        let mut attrs = NameInterner::new();

        // Compile subjects and scalar resolution data.
        let mut auths = Vec::with_capacity(source.len());
        for auth in &source {
            let subject = match &auth.subject {
                crate::authz::SubjectSpec::Anyone => CompiledSubject::Anyone,
                crate::authz::SubjectSpec::Identity(id) => {
                    CompiledSubject::Identity(subjects.intern(id))
                }
                crate::authz::SubjectSpec::InRole(role) => {
                    let mut doms = Vec::with_capacity(4);
                    doms.push(role.0.clone());
                    for senior in self.store.hierarchy.roles() {
                        if senior != *role && self.store.hierarchy.dominates(&senior, role) {
                            doms.push(senior.0.clone());
                        }
                    }
                    doms.sort_unstable();
                    CompiledSubject::RoleDominators(doms)
                }
                crate::authz::SubjectSpec::WithCredentials(expr) => {
                    CompiledSubject::Credentials(expr.clone())
                }
            };
            let mut relevance = 0u8;
            for p in PRIVILEGES {
                if PolicyEngine::relevant(auth, p) {
                    relevance |= privilege_bit(p);
                }
            }
            auths.push(CompiledAuth {
                id: auth.id,
                subject,
                sign: auth.sign,
                relevance,
                specificity: auth.subject.specificity(),
                granularity: auth.object.granularity(),
                priority: auth.priority,
            });
        }

        // Give every authorization its cover key, compiling each distinct
        // path to an automaton once.
        let mut covers = Covers {
            paths: Vec::with_capacity(8),
            keys: Vec::with_capacity(8),
            key_of: Vec::with_capacity(source.len()),
            names: NameInterner::new(),
        };
        let mut path_ids: HashMap<&str, u32> = HashMap::with_capacity(8);
        let mut key_ids: HashMap<(Option<u32>, Propagation), u32> = HashMap::with_capacity(8);
        for auth in &source {
            let path = match &auth.object {
                ObjectSpec::Portion { path, .. } | ObjectSpec::PortionAll(path) => {
                    Some(*path_ids.entry(path.source()).or_insert_with(|| {
                        let automaton = PathAutomaton::compile(path, &mut covers.names);
                        covers.paths.push((path, automaton));
                        u32::try_from(covers.paths.len() - 1).expect("too many paths")
                    }))
                }
                ObjectSpec::AllDocuments | ObjectSpec::Document(_) | ObjectSpec::Collection(_) => {
                    None
                }
            };
            let key = *key_ids.entry((path, auth.propagation)).or_insert_with(|| {
                covers.keys.push((path, auth.propagation));
                u32::try_from(covers.keys.len() - 1).expect("too many cover keys")
            });
            covers.key_of.push(key);
        }

        // Bucket authorizations by target document so compilation stays
        // O(auths + docs·coverage) instead of O(auths × docs).
        let mut by_doc: HashMap<&str, Vec<u32>> = HashMap::with_capacity(16);
        let mut global: Vec<u32> = Vec::with_capacity(4);
        for (i, auth) in source.iter().enumerate() {
            let i = u32::try_from(i).expect("policy base too large");
            match &auth.object {
                ObjectSpec::Document(name) | ObjectSpec::Portion { document: name, .. } => {
                    by_doc.entry(name).or_default().push(i);
                }
                ObjectSpec::Collection(c) => {
                    if let Some(members) = self.store.collection_members(c) {
                        for member in members {
                            by_doc.entry(member).or_default().push(i);
                        }
                    }
                }
                ObjectSpec::AllDocuments | ObjectSpec::PortionAll(_) => global.push(i),
            }
        }

        let mut docs = HashMap::with_capacity(self.documents.len());
        let mut slots = vec![UNSET; covers.keys.len()];
        for name in self.documents.names() {
            let doc = self.documents.get(name).expect("listed document");
            let mut cands: Vec<u32> = by_doc.get(name).cloned().unwrap_or_default();
            cands.extend(&global);
            cands.sort_unstable();
            cands.dedup();
            docs.insert(
                String::from(name),
                compile_doc(doc, &cands, &covers, &mut attrs, &mut slots),
            );
        }

        Arc::new(CompiledPolicies {
            strategy: self.strategy,
            subjects,
            attrs,
            auths,
            docs,
            source,
            hierarchy: self.store.hierarchy.clone(),
        })
    }
}

/// Expands propagation over a selected element set — the exact
/// semantics of [`PolicyEngine::covered_nodes`]'s propagation stage.
fn propagate(doc: &Document, propagation: Propagation, selected: &[NodeId]) -> Vec<NodeId> {
    let mut expanded: Vec<NodeId> = Vec::with_capacity(selected.len());
    match propagation {
        Propagation::None => expanded.extend(selected),
        Propagation::FirstLevel => {
            for &n in selected {
                expanded.push(n);
                expanded.extend(doc.children(n));
            }
        }
        Propagation::Cascade => {
            for &n in selected {
                expanded.extend(doc.descendants(n));
            }
        }
    }
    expanded.sort_unstable();
    expanded.dedup();
    expanded
}

/// How the policy base selects and propagates, shared by every document
/// of one compilation. A cover key is a distinct (path, or the whole
/// document; propagation): rules with one key cover exactly the same
/// nodes and attributes of any document.
struct Covers<'s> {
    /// Each distinct path with its automaton (`None` when the automaton
    /// refuses the path and [`websec_xml::Path::select`] runs instead).
    paths: Vec<(&'s Path, Option<PathAutomaton>)>,
    /// Each cover key: an index into `paths` (`None` for the whole
    /// document) and a propagation.
    keys: Vec<(Option<u32>, Propagation)>,
    /// Cover key per authorization.
    key_of: Vec<u32>,
    /// Element names the automata match.
    names: NameInterner,
}

/// The candidate rules of one document that share a cover key.
struct Group {
    /// Positions of the covered nodes, each once.
    nodes: Vec<u32>,
    /// Whether the group selects any attribute.
    selects_attrs: bool,
    /// Local indices of the members, ascending; empty while the group
    /// covers nothing.
    locals: Vec<u32>,
}

/// Marks an unset slot in the group and class tables of [`compile_doc`].
const UNSET: u32 = u32::MAX;

/// Compiles one document's tables from its candidate rules (ascending
/// indices into the policy base). `slots` maps cover keys to this
/// document's groups; it is all [`UNSET`] on entry and on return.
fn compile_doc(
    doc: &Document,
    cands: &[u32],
    covers: &Covers<'_>,
    attrs: &mut NameInterner,
    slots: &mut [u32],
) -> CompiledDoc {
    let node_ids = doc.all_nodes();
    let mut node_pos = vec![NO_POS; doc.arena_len()];
    for (pos, &n) in node_ids.iter().enumerate() {
        node_pos[n.index()] = u32::try_from(pos).expect("document too large");
    }

    // Per-document symbol table, computed lazily: only documents
    // actually touched by an automaton pay for it.
    let mut syms: Option<Vec<Option<u32>>> = None;

    // Select and propagate once per group, in the order of each group's
    // first member, so attribute names are interned in policy-base order.
    // Name/collection gating already happened in the bucketing pass, so
    // every candidate's base selection starts here.
    let mut groups: Vec<Group> = Vec::with_capacity(8);
    let mut group_of: Vec<u32> = Vec::with_capacity(cands.len());
    // `(position, attribute symbol, group)` per selected attribute.
    let mut selections: Vec<(u32, u32, u32)> = Vec::with_capacity(0);
    for &g in cands {
        let key = covers.key_of[g as usize] as usize;
        if slots[key] == UNSET {
            let (path, propagation) = covers.keys[key];
            let (selected, attr_pairs) = match path.map(|p| &covers.paths[p as usize]) {
                None => (vec![doc.root()], Vec::with_capacity(0)),
                Some((_, Some(auto))) => {
                    let table = syms.get_or_insert_with(|| covers.names.document_symbols(doc));
                    (auto.select_nodes(doc, table), Vec::with_capacity(0))
                }
                Some((path, None)) => match path.select(doc) {
                    Selection::Nodes(nodes) => (nodes, Vec::with_capacity(0)),
                    Selection::Attributes(pairs) => (Vec::with_capacity(0), pairs),
                },
            };
            let id = u32::try_from(groups.len()).expect("too many groups");
            selections.extend(
                attr_pairs
                    .iter()
                    .map(|(n, attr)| (node_pos[n.index()], attrs.intern(attr), id)),
            );
            groups.push(Group {
                nodes: propagate(doc, propagation, &selected)
                    .iter()
                    .map(|n| node_pos[n.index()])
                    .collect(),
                selects_attrs: !attr_pairs.is_empty(),
                locals: Vec::with_capacity(0),
            });
            slots[key] = id;
        }
        group_of.push(slots[key]);
    }
    for &g in cands {
        slots[covers.key_of[g as usize] as usize] = UNSET;
    }

    // Local indices, in policy-base order, for the rules that cover
    // something.
    let mut local_auths: Vec<u32> = Vec::with_capacity(cands.len());
    for (&g, &id) in cands.iter().zip(&group_of) {
        let group = &mut groups[id as usize];
        if group.nodes.is_empty() && !group.selects_attrs {
            continue;
        }
        group
            .locals
            .push(u32::try_from(local_auths.len()).expect("too many authorizations"));
        local_auths.push(g);
    }

    // Key each node by the list of groups covering it. List 0 is empty;
    // list l ≠ 0 is `lists[l] = (parent list, group)`: the parent
    // extended by one later group. A group moves each of its nodes from
    // its list to that list's child, found through `child` and reset
    // after each group.
    let mut node_list = vec![0u32; node_ids.len()];
    let mut lists: Vec<(u32, u32)> = Vec::with_capacity(8);
    lists.push((0, UNSET));
    let mut child: Vec<u32> = vec![UNSET];
    let mut touched: Vec<u32> = Vec::with_capacity(8);
    for (id, group) in groups.iter().enumerate() {
        let id = u32::try_from(id).expect("too many groups");
        for &pos in &group.nodes {
            let parent = node_list[pos as usize];
            if child[parent as usize] == UNSET {
                child[parent as usize] = u32::try_from(lists.len()).expect("too many classes");
                lists.push((parent, id));
                child.push(UNSET);
                touched.push(parent);
            }
            node_list[pos as usize] = child[parent as usize];
        }
        for parent in touched.drain(..) {
            child[parent as usize] = UNSET;
        }
    }

    // One class per distinct list, numbered in the document order of its
    // first node, its rule list expanded once.
    let mut class_of_list = vec![UNSET; lists.len()];
    let mut classes: Vec<Vec<u32>> = Vec::with_capacity(8);
    let mut node_class = Vec::with_capacity(node_ids.len());
    for &list in &node_list {
        if class_of_list[list as usize] == UNSET {
            class_of_list[list as usize] = u32::try_from(classes.len()).expect("too many classes");
            let mut rules: Vec<u32> = Vec::with_capacity(4);
            let mut l = list;
            while l != 0 {
                let (parent, id) = lists[l as usize];
                rules.extend(&groups[id as usize].locals);
                l = parent;
            }
            rules.sort_unstable();
            classes.push(rules);
        }
        node_class.push(class_of_list[list as usize]);
    }

    // One entry per selected `(node, attribute)` pair, its rules merged
    // from every group selecting it.
    selections.sort_unstable();
    let mut attr_entries: Vec<AttrEntry> = Vec::with_capacity(selections.len());
    for run in selections.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let mut auths: Vec<u32> = Vec::with_capacity(run.len());
        for &(_, _, id) in run {
            auths.extend(&groups[id as usize].locals);
        }
        auths.sort_unstable();
        attr_entries.push(AttrEntry {
            node_pos: run[0].0,
            attr_sym: run[0].1,
            auths,
        });
    }

    CompiledDoc {
        local_auths,
        node_ids,
        node_pos,
        node_class,
        classes,
        attr_entries,
    }
}

impl CompiledPolicies {
    /// The conflict strategy baked into the tables.
    #[must_use]
    pub fn strategy(&self) -> ConflictStrategy {
        self.strategy
    }

    /// Number of compiled documents.
    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of authorizations in the compiled policy base.
    #[must_use]
    pub fn auth_count(&self) -> usize {
        self.auths.len()
    }

    /// Matches every covering authorization of `cd` against the
    /// subject once, gated by relevance for `privilege`.
    fn match_auths(
        &self,
        cd: &CompiledDoc,
        profile: &SubjectProfile,
        privilege: Privilege,
    ) -> Vec<bool> {
        let bit = privilege_bit(privilege);
        let ident = self.subjects.get(&profile.identity);
        let mut matched = Vec::with_capacity(cd.local_auths.len());
        for &g in &cd.local_auths {
            let a = &self.auths[g as usize];
            let hit = a.relevance & bit != 0
                && match &a.subject {
                    CompiledSubject::Anyone => true,
                    CompiledSubject::Identity(sym) => ident == Some(*sym),
                    CompiledSubject::RoleDominators(doms) => profile
                        .roles
                        .iter()
                        .any(|r| doms.binary_search(&r.0).is_ok()),
                    CompiledSubject::Credentials(expr) => expr.eval(&profile.credentials),
                };
            matched.push(hit);
        }
        matched
    }

    /// Conflict resolution over the matched subset of a class —
    /// exactly [`ConflictStrategy::resolve`] specialized to the
    /// precomputed scalars (order-independent, like the original).
    fn resolve(&self, cd: &CompiledDoc, locals: &[u32], matched: &[bool]) -> Option<Sign> {
        let mut it = locals
            .iter()
            .filter(|&&l| matched[l as usize])
            .map(|&l| &self.auths[cd.local_auths[l as usize] as usize]);
        self.resolve_iter(&mut it)
    }

    fn resolve_iter(&self, applicable: &mut dyn Iterator<Item = &CompiledAuth>) -> Option<Sign> {
        // Single pass: track the best key seen and whether any denial /
        // any grant carries it.
        let mut seen = false;
        let mut any_minus = false;
        let mut any_plus = false;
        let mut top = i64::MIN;
        let mut top_minus = false;
        for a in applicable {
            seen = true;
            match a.sign {
                Sign::Minus => any_minus = true,
                Sign::Plus => any_plus = true,
            }
            let key = match self.strategy {
                ConflictStrategy::MostSpecificSubject => i64::from(a.specificity),
                ConflictStrategy::MostSpecificObject => i64::from(a.granularity),
                ConflictStrategy::ExplicitPriority => i64::from(a.priority),
                _ => 0,
            };
            if key > top {
                top = key;
                top_minus = a.sign == Sign::Minus;
            } else if key == top && a.sign == Sign::Minus {
                top_minus = true;
            }
        }
        if !seen {
            return None;
        }
        Some(match self.strategy {
            ConflictStrategy::DenialsTakePrecedence => {
                if any_minus {
                    Sign::Minus
                } else {
                    Sign::Plus
                }
            }
            ConflictStrategy::PermissionsTakePrecedence => {
                if any_plus {
                    Sign::Plus
                } else {
                    Sign::Minus
                }
            }
            ConflictStrategy::MostSpecificSubject
            | ConflictStrategy::MostSpecificObject
            | ConflictStrategy::ExplicitPriority => {
                if top_minus {
                    Sign::Minus
                } else {
                    Sign::Plus
                }
            }
        })
    }

    /// The explicit decision one attribute entry yields, from its matched
    /// rules plus the matched rules of its element's `class`: `None` when
    /// none of the entry's own rules matched (the interpreter creates
    /// `per_attr` entries only from matched attribute coverage), so the
    /// attribute inherits its element's decision.
    fn entry_decision(
        &self,
        cd: &CompiledDoc,
        entry: &AttrEntry,
        class: &[u32],
        matched: &[bool],
    ) -> Option<bool> {
        if !entry.auths.iter().any(|&l| matched[l as usize]) {
            return None;
        }
        let mut it = entry
            .auths
            .iter()
            .chain(class)
            .filter(|&&l| matched[l as usize])
            .map(|&l| &self.auths[cd.local_auths[l as usize] as usize]);
        self.resolve_iter(&mut it).map(|s| s == Sign::Plus)
    }

    /// Single-node access check against the compiled tables; `None`
    /// when the document was not part of the compiled snapshot.
    /// Equivalent to [`PolicyEngine::check`] on the source store.
    #[must_use]
    pub fn check(
        &self,
        profile: &SubjectProfile,
        doc_name: &str,
        node: NodeId,
        privilege: Privilege,
    ) -> Option<AccessDecision> {
        let cd = self.docs.get(doc_name)?;
        let matched = self.match_auths(cd, profile, privilege);
        let allowed = cd.pos(node).is_some_and(|pos| {
            let class = &cd.classes[cd.node_class[pos as usize] as usize];
            self.resolve(cd, class, &matched) == Some(Sign::Plus)
        });
        Some(if allowed {
            AccessDecision::Granted
        } else {
            AccessDecision::Denied
        })
    }

    /// One decision per equivalence class of `doc_name`, indexed by class
    /// id: whether [`Self::check`] grants every node of that class. The
    /// subject is matched against the document's rules once and each
    /// class is resolved once. `None` when the document was not part of
    /// the compiled snapshot.
    #[must_use]
    pub fn class_decisions(
        &self,
        profile: &SubjectProfile,
        doc_name: &str,
        privilege: Privilege,
    ) -> Option<Vec<bool>> {
        let cd = self.docs.get(doc_name)?;
        let matched = self.match_auths(cd, profile, privilege);
        Some(
            cd.classes
                .iter()
                .map(|class| self.resolve(cd, class, &matched) == Some(Sign::Plus))
                .collect(),
        )
    }

    /// Whether `attribute` of `node` is visible to the subject —
    /// equivalent to `DocumentDecision::attr_allowed` on the
    /// interpreted engine. `None` when the document is unknown.
    #[must_use]
    pub fn attr_allowed(
        &self,
        profile: &SubjectProfile,
        doc_name: &str,
        node: NodeId,
        attribute: &str,
        privilege: Privilege,
    ) -> Option<bool> {
        let cd = self.docs.get(doc_name)?;
        let matched = self.match_auths(cd, profile, privilege);
        let Some(pos) = cd.pos(node) else {
            return Some(false);
        };
        let class = &cd.classes[cd.node_class[pos as usize] as usize];
        let node_allowed = self.resolve(cd, class, &matched) == Some(Sign::Plus);
        let explicit = self.attrs.get(attribute).and_then(|sym| {
            let entry = cd
                .attr_entries
                .binary_search_by_key(&(pos, sym), |e| (e.node_pos, e.attr_sym))
                .ok()
                .map(|i| &cd.attr_entries[i])?;
            self.entry_decision(cd, entry, class, &matched)
        });
        Some(match explicit {
            Some(e) => e && node_allowed,
            None => node_allowed,
        })
    }

    /// Computes the subject's view of `doc` from the compiled tables —
    /// byte-for-byte equal to [`PolicyEngine::compute_view`] on the
    /// source store. `None` when `doc_name` was not part of the
    /// compiled snapshot (caller falls back to the interpreter). `doc`
    /// must be the same document the snapshot was compiled against:
    /// the tables address its nodes by id.
    #[must_use]
    pub fn compute_view(
        &self,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
    ) -> Option<Document> {
        let cd = self.docs.get(doc_name)?;
        let matched = self.match_auths(cd, profile, Privilege::Read);

        // One decision per equivalence class, then fan out to nodes.
        let mut class_allow = Vec::with_capacity(cd.classes.len());
        for class in &cd.classes {
            class_allow.push(self.resolve(cd, class, &matched) == Some(Sign::Plus));
        }
        let mut keep = NodeBitset::with_capacity(doc.arena_len());
        for (pos, &class) in cd.node_class.iter().enumerate() {
            if class_allow[class as usize] {
                keep.insert(cd.node_ids[pos]);
            }
        }

        // Attribute-level pruning, entries grouped by node.
        let mut keep_attrs: HashMap<NodeId, Vec<String>> = HashMap::with_capacity(0);
        let mut i = 0;
        while i < cd.attr_entries.len() {
            let pos = cd.attr_entries[i].node_pos;
            let mut j = i;
            while j < cd.attr_entries.len() && cd.attr_entries[j].node_pos == pos {
                j += 1;
            }
            let node = cd.node_ids[pos as usize];
            if keep.contains(node) {
                let class = &cd.classes[cd.node_class[pos as usize] as usize];
                let mut hidden: Vec<u32> = Vec::with_capacity(0);
                for entry in &cd.attr_entries[i..j] {
                    // Without an explicit decision the attribute inherits
                    // its kept element's.
                    if self.entry_decision(cd, entry, class, &matched) == Some(false) {
                        hidden.push(entry.attr_sym);
                    }
                }
                if !hidden.is_empty() {
                    let visible: Vec<String> = doc
                        .attributes(node)
                        .iter()
                        .filter(|(name, _)| {
                            self.attrs
                                .get(name)
                                .is_none_or(|sym| !hidden.contains(&sym))
                        })
                        .map(|(name, _)| name.clone())
                        .collect();
                    keep_attrs.insert(node, visible);
                }
            }
            i = j;
        }

        Some(doc.prune_to_view(&keep, &keep_attrs))
    }

    /// Projects the compiled tables back to the interpreter's
    /// [`PolicyEngine::policy_equivalence_classes`] shape (granting
    /// authorizations for `privilege`, per node) so the analyzer can
    /// verify the partition survived compilation. `None` for unknown
    /// documents.
    #[must_use]
    pub fn equivalence_classes(
        &self,
        doc_name: &str,
        privilege: Privilege,
    ) -> Option<BTreeMap<BTreeSet<AuthzId>, Vec<NodeId>>> {
        let cd = self.docs.get(doc_name)?;
        let bit = privilege_bit(privilege);
        let mut classes: BTreeMap<BTreeSet<AuthzId>, Vec<NodeId>> = BTreeMap::new();
        for (pos, &class) in cd.node_class.iter().enumerate() {
            let set: BTreeSet<AuthzId> = cd.classes[class as usize]
                .iter()
                .map(|&l| &self.auths[cd.local_auths[l as usize] as usize])
                .filter(|a| a.sign == Sign::Plus && a.relevance & bit != 0)
                .map(|a| a.id)
                .collect();
            classes.entry(set).or_default().push(cd.node_ids[pos]);
        }
        Some(classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::SubjectSpec;
    use crate::subject::{Credential, CredentialExpr, Role, SubjectProfile};
    use websec_xml::Path;

    fn doc() -> Document {
        Document::parse(
            "<hospital>\
               <patient id=\"p1\" ssn=\"123\"><name>Alice</name><record>flu</record></patient>\
               <patient id=\"p2\" ssn=\"456\"><name>Bob</name><record>injury</record></patient>\
               <admin><budget>100</budget></admin>\
             </hospital>",
        )
        .unwrap()
    }

    fn portion(path: &str) -> ObjectSpec {
        ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse(path).unwrap(),
        }
    }

    fn docs_with(d: &Document) -> DocumentStore {
        let mut s = DocumentStore::new();
        s.insert("h.xml", d.clone());
        s
    }

    const ALL_STRATEGIES: [ConflictStrategy; 5] = [
        ConflictStrategy::DenialsTakePrecedence,
        ConflictStrategy::PermissionsTakePrecedence,
        ConflictStrategy::MostSpecificSubject,
        ConflictStrategy::MostSpecificObject,
        ConflictStrategy::ExplicitPriority,
    ];

    /// Asserts compiled ≡ interpreted for every strategy, node,
    /// attribute and privilege on the given store and profiles.
    fn assert_equivalent(store: &PolicyStore, profiles: &[SubjectProfile]) {
        let d = doc();
        let documents = docs_with(&d);
        for strategy in ALL_STRATEGIES {
            let engine = PolicyEngine::new(strategy);
            let compiled = PolicySnapshot::new(store, strategy, &documents).compile();
            for profile in profiles {
                let interpreted = engine.compute_view(store, profile, "h.xml", &d);
                let fast = compiled
                    .compute_view(profile, "h.xml", &d)
                    .expect("h.xml compiled");
                assert_eq!(
                    interpreted.to_xml_string(),
                    fast.to_xml_string(),
                    "{strategy:?} / {}",
                    profile.identity
                );
                for privilege in PRIVILEGES {
                    let dec = engine.evaluate_document(store, profile, "h.xml", &d, privilege);
                    for node in d.all_nodes() {
                        assert_eq!(
                            compiled.check(profile, "h.xml", node, privilege),
                            Some(engine.check(store, profile, "h.xml", &d, node, privilege)),
                            "{strategy:?} {privilege:?} node {node:?}"
                        );
                        for (attr, _) in d.attributes(node) {
                            assert_eq!(
                                compiled.attr_allowed(profile, "h.xml", node, attr, privilege),
                                Some(dec.attr_allowed(node, attr)),
                                "{strategy:?} {privilege:?} {node:?}@{attr}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn document_grants_and_portion_denials() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Read)
                .deny(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("mallory".into()))
                .on(portion("//record"))
                .privilege(Privilege::Read)
                .deny(),
        );
        assert_equivalent(
            &store,
            &[SubjectProfile::new("alice"), SubjectProfile::new("mallory")],
        );
    }

    #[test]
    fn attribute_denials_and_grants() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//patient/@ssn"))
                .privilege(Privilege::Read)
                .deny(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("auditor".into()))
                .on(portion("//patient/@ssn"))
                .privilege(Privilege::Read)
                .grant(),
        );
        assert_equivalent(
            &store,
            &[SubjectProfile::new("x"), SubjectProfile::new("auditor")],
        );
    }

    #[test]
    fn roles_credentials_and_collections() {
        let mut store = PolicyStore::new();
        store
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("doctor"));
        store.add_collection_member("wards", "h.xml");
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(ObjectSpec::Collection("wards".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::WithCredentials(
                CredentialExpr::OfType("physician".into())
                    .and(CredentialExpr::AttrGe("years".into(), 5)),
            ))
            .on(portion("//patient"))
            .privilege(Privilege::Write)
            .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Browse)
                .deny(),
        );
        let chief = SubjectProfile::new("carol").with_role(Role::new("chief"));
        let nurse = SubjectProfile::new("nina").with_role(Role::new("nurse"));
        let senior = SubjectProfile::new("sam")
            .with_credential(Credential::new("physician", "sam").with_attr("years", 10i64));
        assert_equivalent(&store, &[chief, nurse, senior, SubjectProfile::new("z")]);
    }

    #[test]
    fn propagation_modes_and_positional_fallback() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("/hospital/patient[1]"))
                .privilege(Privilege::Read)
                .grant()
                .with_propagation(Propagation::FirstLevel),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//record[text()='flu']"))
                .privilege(Privilege::Read)
                .grant()
                .with_propagation(Propagation::None),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::PortionAll(Path::parse("//budget").unwrap()))
                .privilege(Privilege::Browse)
                .deny()
                .with_priority(7),
        );
        assert_equivalent(&store, &[SubjectProfile::new("x")]);
    }

    #[test]
    fn duplicate_selections_cover_like_single_rules() {
        let mut store = PolicyStore::new();
        for who in ["ann", "bob", "cy"] {
            store.add(
                Authorization::for_subject(SubjectSpec::Identity(who.into()))
                    .on(portion("//patient"))
                    .privilege(Privilege::Read)
                    .grant(),
            );
            store.add(
                Authorization::for_subject(SubjectSpec::Identity(who.into()))
                    .on(portion("//patient/@ssn"))
                    .privilege(Privilege::Read)
                    .deny(),
            );
            if who == "ann" {
                store.add(
                    Authorization::for_subject(SubjectSpec::Identity(who.into()))
                        .on(portion("/hospital/patient/@ssn"))
                        .privilege(Privilege::Read)
                        .grant(),
                );
            }
        }
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("bob".into()))
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::FirstLevel),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("cy".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::AllDocuments)
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::None),
        );
        let profiles: Vec<SubjectProfile> =
            ["ann", "bob", "cy", "dee"].map(SubjectProfile::new).into();
        assert_equivalent(&store, &profiles);

        let d = doc();
        let documents = docs_with(&d);
        let compiled =
            PolicySnapshot::new(&store, ConflictStrategy::default(), &documents).compile();
        let cd = &compiled.docs["h.xml"];
        // Root (the two whole-document rules); each patient and its
        // element children (both //patient groups and the document
        // grant); the text below them (no first-level denial); the rest.
        assert_eq!(
            cd.classes,
            vec![vec![8, 9], vec![0, 3, 5, 7, 8], vec![0, 3, 5, 8], vec![8]]
        );
        // Both ssn paths select each patient's ssn; the merged rule list
        // is ascending although the second path's rule sits between the
        // first path's rules.
        let ssn: Vec<&Vec<u32>> = cd.attr_entries.iter().map(|e| &e.auths).collect();
        assert_eq!(ssn, [&vec![1, 2, 4, 6], &vec![1, 2, 4, 6]]);
    }

    #[test]
    fn closed_policy_and_unknown_documents() {
        let store = PolicyStore::new();
        let d = doc();
        let documents = docs_with(&d);
        let compiled =
            PolicySnapshot::new(&store, ConflictStrategy::default(), &documents).compile();
        let view = compiled
            .compute_view(&SubjectProfile::new("x"), "h.xml", &d)
            .unwrap();
        let oracle = PolicyEngine::new(ConflictStrategy::default()).compute_view(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
        );
        assert_eq!(view.to_xml_string(), oracle.to_xml_string());
        assert!(compiled
            .compute_view(&SubjectProfile::new("x"), "missing.xml", &d)
            .is_none());
        assert!(compiled
            .check(
                &SubjectProfile::new("x"),
                "missing.xml",
                d.root(),
                Privilege::Read
            )
            .is_none());
    }

    #[test]
    fn equivalence_classes_match_interpreter() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("auditor")))
                .on(portion("//patient[@id='p1']"))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Read)
                .deny(),
        );
        let d = doc();
        let documents = docs_with(&d);
        let compiled =
            PolicySnapshot::new(&store, ConflictStrategy::default(), &documents).compile();
        for privilege in [Privilege::Browse, Privilege::Read, Privilege::Write] {
            assert_eq!(
                compiled.equivalence_classes("h.xml", privilege).unwrap(),
                PolicyEngine::policy_equivalence_classes(&store, "h.xml", &d, privilege),
                "{privilege:?}"
            );
        }
    }

    #[test]
    fn epoch_and_counts_exposed() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::AllDocuments)
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let documents = docs_with(&d);
        let compiled =
            PolicySnapshot::new(&store, ConflictStrategy::ExplicitPriority, &documents).compile();
        assert_eq!(compiled.doc_count(), 1);
        assert_eq!(compiled.auth_count(), 1);
        assert_eq!(compiled.strategy(), ConflictStrategy::ExplicitPriority);
    }
}
