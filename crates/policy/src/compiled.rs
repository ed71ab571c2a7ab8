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
//! A selection is a function of (document, path, propagation) alone, so
//! each document's tables keep the document they were compiled from and
//! what each of its cover keys selected. [`PolicySnapshot::compile_against`]
//! reuses those selections from the artifact it replaces wherever the
//! document is still the same allocation ([`Arc::ptr_eq`]) and the key is
//! unchanged: a policy change runs selections only for its new keys, and a
//! written document re-runs its own. Cascade propagation is a union of
//! pre-order subtree ranges.
//!
//! A rule's compiled form (subject matcher, relevance mask, resolution-key
//! fields, cover key, and the documents it is a candidate for) is likewise
//! a function of that one rule, and of the role hierarchy for a role
//! subject. The tables share each rule's [`Arc`] with the policy base, so
//! compiling against the previous artifact takes the form of every rule it
//! compiled from the very same allocation, and derives forms only for new
//! rules (and for role rules after a hierarchy edit). Interned identities
//! carry over with them.
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

use crate::authz::{Authorization, AuthzId, ObjectSpec, Privilege, Propagation, Sign, SubjectSpec};
use crate::conflict::ConflictStrategy;
use crate::engine::{shared_rule_positions, AccessDecision, PolicyEngine, PolicyStore};
use crate::subject::{CredentialExpr, RoleHierarchy, SubjectProfile};
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
/// [`ObjectSpec`] again. Cheap to clone, as compiling against a previous
/// artifact copies the form of every rule it keeps.
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
    RoleDominators(Arc<[String]>),
    Credentials(Arc<CredentialExpr>),
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
    /// Indices into [`CompiledPolicies::source`] of the rules that name
    /// this document, by name or through a collection, ascending. With the
    /// rules that name every document, they are its candidates.
    specific: Vec<u32>,
    /// The document the tables address by node id. Holding it keeps its
    /// identity exact: while these tables live, no other document can
    /// take its address, so [`Arc::ptr_eq`] tells whether a later
    /// snapshot still holds it unwritten.
    doc: Arc<Document>,
    /// What each group's cover key selects in `doc`.
    selections: Selections,
    /// Indices into [`CompiledPolicies::auths`] of every authorization
    /// that covers at least one node or attribute of this document, in
    /// policy-base order.
    pub(crate) local_auths: Vec<u32>,
    /// The group of each local authorization, parallel to `local_auths`.
    local_group: Vec<u32>,
    /// Live nodes in document order (the interpreter's `all_nodes`
    /// order, which equivalence-class reconstruction must preserve).
    pub(crate) node_ids: Vec<NodeId>,
    /// Position in `node_ids` per arena slot ([`NodeId::index`]);
    /// [`NO_POS`] for slots that hold no live node.
    pub(crate) node_pos: Vec<u32>,
    /// Equivalence-class id per node, parallel to `node_ids`.
    pub(crate) node_class: Vec<u32>,
    /// Position of each class's first node.
    pub(crate) class_first: Vec<u32>,
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

/// What the cover keys of one document's groups select, flat and in group
/// order: group `g` covers `nodes[groups[g - 1].nodes_end..groups[g].nodes_end]`
/// and selects the attributes in the matching range of `attrs`.
#[derive(Debug, Clone)]
struct Selections {
    groups: Vec<SelectionEnd>,
    /// Covered node positions, ascending and each once per group.
    nodes: Vec<u32>,
    /// Selected attributes as `(node position, index into the node's
    /// attributes)`, in selection order per group.
    attrs: Vec<(u32, u32)>,
}

/// One group's entry in [`Selections`].
#[derive(Debug, Clone, Copy)]
struct SelectionEnd {
    /// The group's cover key, an index into [`CompiledPolicies::covers`].
    key: u32,
    nodes_end: u32,
    attrs_end: u32,
}

impl Selections {
    /// The covered positions and selected attributes of group `g`.
    fn group(&self, g: usize) -> (&[u32], &[(u32, u32)]) {
        let (nodes_start, attrs_start) = match g.checked_sub(1) {
            Some(prev) => (self.groups[prev].nodes_end, self.groups[prev].attrs_end),
            None => (0, 0),
        };
        let end = self.groups[g];
        (
            &self.nodes[nodes_start as usize..end.nodes_end as usize],
            &self.attrs[attrs_start as usize..end.attrs_end as usize],
        )
    }

    /// Closes the group whose nodes and attributes were appended last.
    fn close(&mut self, key: u32) {
        self.groups.push(SelectionEnd {
            key,
            nodes_end: u32::try_from(self.nodes.len()).expect("too many covered nodes"),
            attrs_end: u32::try_from(self.attrs.len()).expect("too many selected attributes"),
        });
    }
}

/// The work of one compilation: every rule's form and every distinct
/// cover key of a document (one selection) is derived here or taken from
/// the artifact compiled against ([`PolicySnapshot::compile_against`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Rules whose compiled form was derived: new rules, and role rules
    /// after a hierarchy edit.
    pub rules_compiled: usize,
    /// Rules whose compiled form was taken from the previous artifact.
    pub rules_reused: usize,
    /// Selections run: a path selection plus its propagation.
    pub selections_run: usize,
    /// Selections taken from the previous artifact.
    pub selections_reused: usize,
}

/// The compiled artifact: immutable, shared behind an `Arc` inside the
/// server's one published snapshot, and replaced with it.
#[derive(Debug)]
pub struct CompiledPolicies {
    pub(crate) strategy: ConflictStrategy,
    /// Interned subject identities, shared with the artifact compiled
    /// against until a new identity is interned.
    pub(crate) subjects: Arc<NameInterner>,
    /// Interned attribute names.
    pub(crate) attrs: NameInterner,
    /// Each rule's compiled form, parallel to `source`.
    pub(crate) auths: Vec<CompiledAuth>,
    pub(crate) docs: HashMap<String, CompiledDoc>,
    /// The source authorizations, shared with the policy base, so static
    /// analysis can name the rules it reads coverage for and a later
    /// compilation can tell which rules it already compiled.
    pub(crate) source: Vec<Arc<Authorization>>,
    pub(crate) hierarchy: RoleHierarchy,
    /// The collection membership the candidates were bucketed under.
    collections: Arc<BTreeMap<String, BTreeSet<String>>>,
    /// Indices into `source` of the rules that name every document,
    /// ascending.
    global: Vec<u32>,
    /// Cover key per rule, an index into `keys`.
    key_of: Vec<u32>,
    /// Each cover key: an index into `paths` (`None` for the whole
    /// document) and a propagation.
    keys: Vec<(Option<u32>, Propagation)>,
    /// Each distinct path: the index into `source` of a rule selecting it.
    paths: Vec<u32>,
    stats: CompileStats,
}

/// The path an object selects within a document, if it names one.
fn object_path(object: &ObjectSpec) -> Option<&Path> {
    match object {
        ObjectSpec::Portion { path, .. } | ObjectSpec::PortionAll(path) => Some(path),
        ObjectSpec::AllDocuments | ObjectSpec::Document(_) | ObjectSpec::Collection(_) => None,
    }
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

    /// Compiles the snapshot into decision tables from nothing:
    /// [`Self::compile_against`] with no previous artifact.
    #[must_use]
    pub fn compile(&self) -> Arc<CompiledPolicies> {
        self.compile_against(None)
    }

    /// Compiles the snapshot into decision tables, reusing what `previous`
    /// (normally the artifact these tables replace) derived from the same
    /// inputs: the form of every rule it compiled from the very same
    /// allocation, and the selections of every document it compiled that
    /// the snapshot still holds unwritten, for every cover key it shares.
    /// The result equals a compilation from nothing; only
    /// [`CompiledPolicies::compile_stats`] tells them apart. Called once
    /// per snapshot publication (under the server's update lock), never on
    /// the request path.
    #[must_use]
    pub fn compile_against(&self, previous: Option<&CompiledPolicies>) -> Arc<CompiledPolicies> {
        let source = self.store.shared_authorizations();
        // Each rule's position in `previous` when it compiled the very same
        // allocation, and each previous rule's new position.
        let mut reused = vec![UNSET; source.len()];
        let mut moved = vec![UNSET; previous.map_or(0, |prev| prev.source.len())];
        if let Some(prev) = previous {
            for (i, j) in shared_rule_positions(&prev.source, source).enumerate() {
                if let Some(j) = j {
                    reused[i] = u32::try_from(j).expect("policy base too large");
                    moved[j] = u32::try_from(i).expect("policy base too large");
                }
            }
        }
        let mut stats = CompileStats::default();
        let (auths, subjects) = self.rule_forms(previous, &reused, &mut stats);
        let mut covers = Covers::new(source, previous, &reused);

        // Bucket the new rules by target document, so compilation stays
        // O(auths + docs·coverage) instead of O(auths × docs); the rules
        // compiled before keep their previous buckets. A document the
        // previous artifact did not compile, or any document after a
        // collection membership change, is bucketed from every rule.
        let fresh = Buckets::of(
            self.store,
            (0..source.len()).filter(|&i| reused[i] == UNSET),
        );
        let mut everything: Option<Buckets<'_>> = None;
        let same_collections =
            previous.is_some_and(|prev| prev.collections == *self.store.collections());
        let mut global = previous.map_or_else(Vec::new, |prev| moved_rules(&prev.global, &moved));
        extend_sorted(&mut global, &fresh.global);

        let mut docs = HashMap::with_capacity(self.documents.len());
        let mut attrs = NameInterner::new();
        let mut key_slots = KeySlots {
            group: vec![UNSET; covers.keys.len()],
            previous_group: vec![UNSET; previous.map_or(0, |prev| prev.keys.len())],
        };
        for name in self.documents.names() {
            let doc = self.documents.get_shared(name).expect("listed document");
            let previous_doc = previous.and_then(|prev| prev.docs.get(name));
            let specific = match previous_doc.filter(|_| same_collections) {
                Some(cd) => {
                    let mut specific = moved_rules(&cd.specific, &moved);
                    extend_sorted(&mut specific, fresh.of_document(name));
                    specific
                }
                None if previous.is_none() => fresh.of_document(name).to_vec(),
                None => everything
                    .get_or_insert_with(|| Buckets::of(self.store, 0..source.len()))
                    .of_document(name)
                    .to_vec(),
            };
            let mut cands = specific.clone();
            extend_sorted(&mut cands, &global);
            let unwritten = previous_doc.filter(|cd| Arc::ptr_eq(&cd.doc, doc));
            docs.insert(
                String::from(name),
                compile_doc(
                    doc,
                    specific,
                    unwritten,
                    &cands,
                    &mut covers,
                    &mut attrs,
                    &mut key_slots,
                    &mut stats,
                ),
            );
        }

        Arc::new(CompiledPolicies {
            strategy: self.strategy,
            subjects,
            attrs,
            auths,
            docs,
            source: source.to_vec(),
            hierarchy: self.store.hierarchy.clone(),
            collections: Arc::clone(self.store.collections()),
            global,
            key_of: covers.key_of,
            keys: covers.keys,
            paths: covers.path_rule,
            stats,
        })
    }

    /// Each rule's compiled form: the previous artifact's for a rule it
    /// compiled from the very same allocation (under the same hierarchy,
    /// for a role subject), else derived here. Identities are interned into
    /// the previous artifact's table, which is copied only when a new one
    /// arrives; once the table holds more than twice as many identities as
    /// the base has identity rules (and more than 16), it is rebuilt from
    /// the live rules, so revoked identities do not accumulate.
    fn rule_forms(
        &self,
        previous: Option<&CompiledPolicies>,
        reused: &[u32],
        stats: &mut CompileStats,
    ) -> (Vec<CompiledAuth>, Arc<NameInterner>) {
        let source = self.store.shared_authorizations();
        let hierarchy = &self.store.hierarchy;
        let same_hierarchy = previous.is_some_and(|prev| prev.hierarchy == *hierarchy);
        let mut subjects = previous.map_or_else(Arc::default, |prev| Arc::clone(&prev.subjects));
        let mut identities = 0;
        let mut auths = Vec::with_capacity(source.len());
        for (auth, &j) in source.iter().zip(reused) {
            let kept = previous
                .filter(|_| j != UNSET)
                .map(|prev| &prev.auths[j as usize])
                .filter(|form| {
                    same_hierarchy || !matches!(form.subject, CompiledSubject::RoleDominators(_))
                });
            let form = match kept {
                Some(form) => {
                    stats.rules_reused += 1;
                    form.clone()
                }
                None => {
                    stats.rules_compiled += 1;
                    compile_auth(auth, hierarchy, &mut subjects)
                }
            };
            identities += usize::from(matches!(form.subject, CompiledSubject::Identity(_)));
            auths.push(form);
        }
        if subjects.len() > 2 * identities.max(8) {
            let mut live = NameInterner::new();
            for (form, auth) in auths.iter_mut().zip(source) {
                if let SubjectSpec::Identity(id) = &auth.subject {
                    form.subject = CompiledSubject::Identity(live.intern(id));
                }
            }
            subjects = Arc::new(live);
        }
        (auths, subjects)
    }
}

/// Derives the compiled form of `auth`, interning its identity (if it
/// names one) into `subjects`.
fn compile_auth(
    auth: &Authorization,
    hierarchy: &RoleHierarchy,
    subjects: &mut Arc<NameInterner>,
) -> CompiledAuth {
    let subject = match &auth.subject {
        SubjectSpec::Anyone => CompiledSubject::Anyone,
        SubjectSpec::Identity(id) => CompiledSubject::Identity(match subjects.get(id) {
            Some(sym) => sym,
            None => Arc::make_mut(subjects).intern(id),
        }),
        SubjectSpec::InRole(role) => {
            let mut doms = Vec::with_capacity(4);
            doms.push(role.0.clone());
            for senior in hierarchy.roles() {
                if senior != *role && hierarchy.dominates(&senior, role) {
                    doms.push(senior.0.clone());
                }
            }
            doms.sort_unstable();
            CompiledSubject::RoleDominators(doms.into())
        }
        SubjectSpec::WithCredentials(expr) => CompiledSubject::Credentials(Arc::new(expr.clone())),
    };
    let mut relevance = 0u8;
    for p in PRIVILEGES {
        if PolicyEngine::relevant(auth, p) {
            relevance |= privilege_bit(p);
        }
    }
    CompiledAuth {
        id: auth.id,
        subject,
        sign: auth.sign,
        relevance,
        specificity: auth.subject.specificity(),
        granularity: auth.object.granularity(),
        priority: auth.priority,
    }
}

/// Rules bucketed by the documents they are candidates for: each named
/// document's own rules (by name, or through a collection's members), and
/// the rules that name every document, all as ascending indices into the
/// policy base.
#[derive(Default)]
struct Buckets<'s> {
    by_doc: HashMap<&'s str, Vec<u32>>,
    global: Vec<u32>,
}

impl<'s> Buckets<'s> {
    /// Buckets the rules of `store` at the ascending positions `rules`.
    fn of(store: &'s PolicyStore, rules: impl Iterator<Item = usize>) -> Self {
        let source = store.shared_authorizations();
        let mut buckets = Buckets::default();
        for i in rules {
            let rule = u32::try_from(i).expect("policy base too large");
            match &source[i].object {
                ObjectSpec::Document(name) | ObjectSpec::Portion { document: name, .. } => {
                    buckets.by_doc.entry(name).or_default().push(rule);
                }
                ObjectSpec::Collection(c) => {
                    for member in store.collection_members(c).into_iter().flatten() {
                        buckets.by_doc.entry(member).or_default().push(rule);
                    }
                }
                ObjectSpec::AllDocuments | ObjectSpec::PortionAll(_) => buckets.global.push(rule),
            }
        }
        buckets
    }

    /// The rules that name `document` itself.
    fn of_document(&self, document: &str) -> &[u32] {
        self.by_doc.get(document).map_or(&[], Vec::as_slice)
    }
}

/// The previous positions `rules` (ascending) that the new base still
/// holds, at their new positions: still ascending, as a merge walk matched
/// them.
fn moved_rules(rules: &[u32], moved: &[u32]) -> Vec<u32> {
    rules
        .iter()
        .map(|&j| moved[j as usize])
        .filter(|&i| i != UNSET)
        .collect()
}

/// Adds the ascending positions `more` to the ascending `rules`.
fn extend_sorted(rules: &mut Vec<u32>, more: &[u32]) {
    if !more.is_empty() {
        rules.extend_from_slice(more);
        rules.sort_unstable();
    }
}

/// How the policy base selects and propagates, shared by every document
/// of one compilation. A cover key is a distinct (path, or the whole
/// document; propagation): rules with one key cover exactly the same
/// nodes and attributes of any document.
struct Covers<'s> {
    /// Each distinct path with its automaton, once compiled (`Some(None)`
    /// when the automaton refuses the path and [`websec_xml::Path::select`]
    /// runs instead).
    paths: Vec<(&'s Path, Option<Option<PathAutomaton>>)>,
    /// The index of each path's first rule in the policy base.
    path_rule: Vec<u32>,
    /// Each cover key: an index into `paths` (`None` for the whole
    /// document) and a propagation.
    keys: Vec<(Option<u32>, Propagation)>,
    /// Cover key per authorization.
    key_of: Vec<u32>,
    /// Per cover key, the previous artifact's id of the same key, or
    /// [`UNSET`].
    previous_key: Vec<u32>,
    /// Element names the automata match.
    names: NameInterner,
}

impl<'s> Covers<'s> {
    /// The cover keys of `source`, numbered in the order of their first
    /// rule as compiling from nothing numbers them. A rule `previous`
    /// compiled (`reused`) keeps its key there; only a new rule's path and
    /// propagation are hashed, among the previous artifact's keys and the
    /// other new rules'.
    fn new(
        source: &'s [Arc<Authorization>],
        previous: Option<&CompiledPolicies>,
        reused: &[u32],
    ) -> Self {
        let (prev_keys, prev_paths) = previous.map_or((&[][..], &[][..]), |prev| {
            (prev.keys.as_slice(), prev.paths.as_slice())
        });
        // Each rule's key in one numbering: the previous artifact's keys
        // and paths first, then the new ones (a new path by its first rule).
        let mut new_keys: Vec<(Option<u32>, Propagation)> = Vec::with_capacity(0);
        let mut new_paths = 0;
        let mut key_ids: HashMap<(Option<u32>, Propagation), u32> = HashMap::with_capacity(0);
        let mut path_ids: HashMap<&str, u32> = HashMap::with_capacity(0);
        let mut indexed = false;
        let mut either_key = Vec::with_capacity(source.len());
        for (auth, &j) in source.iter().zip(reused) {
            if let Some(prev) = previous.filter(|_| j != UNSET) {
                either_key.push(prev.key_of[j as usize]);
                continue;
            }
            if !indexed {
                indexed = true;
                if let Some(prev) = previous {
                    for (id, &rule) in (0..).zip(&prev.paths) {
                        let path = object_path(&prev.source[rule as usize].object);
                        path_ids.insert(path.expect("a path's rule names it").source(), id);
                    }
                    key_ids.extend(prev.keys.iter().copied().zip(0..));
                }
            }
            let path = object_path(&auth.object).map(|path| {
                *path_ids.entry(path.source()).or_insert_with(|| {
                    new_paths += 1;
                    u32::try_from(prev_paths.len() + new_paths - 1).expect("too many paths")
                })
            });
            let key = *key_ids.entry((path, auth.propagation)).or_insert_with(|| {
                new_keys.push((path, auth.propagation));
                u32::try_from(prev_keys.len() + new_keys.len() - 1).expect("too many cover keys")
            });
            either_key.push(key);
        }

        // Number the keys and paths the rules use, in rule order.
        let mut key_id = vec![UNSET; prev_keys.len() + new_keys.len()];
        let mut path_id = vec![UNSET; prev_paths.len() + new_paths];
        let mut covers = Covers {
            paths: Vec::with_capacity(8),
            path_rule: Vec::with_capacity(8),
            keys: Vec::with_capacity(8),
            key_of: Vec::with_capacity(source.len()),
            previous_key: Vec::with_capacity(8),
            names: NameInterner::new(),
        };
        for (i, &key) in (0..).zip(&either_key) {
            if key_id[key as usize] == UNSET {
                let previous_key = (key as usize) < prev_keys.len();
                let (path, propagation) = if previous_key {
                    prev_keys[key as usize]
                } else {
                    new_keys[key as usize - prev_keys.len()]
                };
                let path = path.map(|p| {
                    if path_id[p as usize] == UNSET {
                        path_id[p as usize] =
                            u32::try_from(covers.paths.len()).expect("too many paths");
                        let path = object_path(&source[i as usize].object);
                        covers
                            .paths
                            .push((path.expect("the key's rule names it"), None));
                        covers.path_rule.push(i);
                    }
                    path_id[p as usize]
                });
                key_id[key as usize] =
                    u32::try_from(covers.keys.len()).expect("too many cover keys");
                covers.keys.push((path, propagation));
                covers
                    .previous_key
                    .push(if previous_key { key } else { UNSET });
            }
            covers.key_of.push(key_id[key as usize]);
        }
        covers
    }
}

/// The group of each cover key within the document [`compile_doc`] is
/// compiling; every entry is [`UNSET`] between documents.
struct KeySlots {
    /// Cover key → this document's group.
    group: Vec<u32>,
    /// Cover key of the previous artifact → group of the previous tables
    /// of this document.
    previous_group: Vec<u32>,
}

/// Marks an unset slot in the group and class tables of [`compile_doc`].
const UNSET: u32 = u32::MAX;

/// Compiles one document's tables from its candidate rules (ascending
/// indices into the policy base), of which `specific` name the document
/// itself. `unwritten` is the previous artifact's tables of this very
/// document, whose layout and selections are reused.
#[allow(clippy::too_many_arguments)]
fn compile_doc(
    doc: &Arc<Document>,
    specific: Vec<u32>,
    unwritten: Option<&CompiledDoc>,
    cands: &[u32],
    covers: &mut Covers<'_>,
    attrs: &mut NameInterner,
    key_slots: &mut KeySlots,
    stats: &mut CompileStats,
) -> CompiledDoc {
    let (node_ids, node_pos) = match unwritten {
        Some(prev) => (prev.node_ids.clone(), prev.node_pos.clone()),
        None => {
            let node_ids = doc.all_nodes();
            let mut node_pos = vec![NO_POS; doc.arena_len()];
            for (pos, &n) in node_ids.iter().enumerate() {
                node_pos[n.index()] = u32::try_from(pos).expect("document too large");
            }
            (node_ids, node_pos)
        }
    };
    if let Some(prev) = unwritten {
        for (g, end) in prev.selections.groups.iter().enumerate() {
            key_slots.previous_group[end.key as usize] = u32::try_from(g).expect("too many groups");
        }
    }

    let mut layout = Layout {
        doc,
        node_ids: &node_ids,
        node_pos: &node_pos,
        syms: None,
        ends: None,
    };

    // Select and propagate once per group (or take the selection from the
    // previous tables), in the order of each group's first member, so
    // attribute names are interned in policy-base order. Name/collection
    // gating already happened in the bucketing pass, so every candidate's
    // base selection starts here.
    let mut selections = Selections {
        groups: Vec::with_capacity(cands.len()),
        nodes: Vec::with_capacity(node_ids.len()),
        attrs: Vec::with_capacity(0),
    };
    let mut group_of: Vec<u32> = Vec::with_capacity(cands.len());
    // `(position, attribute symbol, group)` per selected attribute.
    let mut selected_attrs: Vec<(u32, u32, u32)> = Vec::with_capacity(0);
    for &g in cands {
        let key = covers.key_of[g as usize];
        if key_slots.group[key as usize] == UNSET {
            let id = selections.groups.len();
            let previous = covers.previous_key[key as usize];
            let reusable = unwritten
                .filter(|_| previous != UNSET)
                .map(|prev| (prev, key_slots.previous_group[previous as usize]))
                .filter(|&(_, group)| group != UNSET);
            if let Some((prev, group)) = reusable {
                let (nodes, pairs) = prev.selections.group(group as usize);
                selections.nodes.extend_from_slice(nodes);
                selections.attrs.extend_from_slice(pairs);
                stats.selections_reused += 1;
            } else {
                layout.select(covers, key, &mut selections);
                stats.selections_run += 1;
            }
            selections.close(key);
            let id = u32::try_from(id).expect("too many groups");
            for &(pos, index) in selections.group(id as usize).1 {
                let (name, _) = &doc.attributes(node_ids[pos as usize])[index as usize];
                selected_attrs.push((pos, attrs.intern(name), id));
            }
            key_slots.group[key as usize] = id;
        }
        group_of.push(key_slots.group[key as usize]);
    }
    for &g in cands {
        key_slots.group[covers.key_of[g as usize] as usize] = UNSET;
    }
    if let Some(prev) = unwritten {
        for end in &prev.selections.groups {
            key_slots.previous_group[end.key as usize] = UNSET;
        }
    }
    // The selections live as long as the tables.
    selections.nodes.shrink_to_fit();

    // Local indices, in policy-base order, for the rules that cover
    // something, with the group of each; each group's members among them,
    // ascending (empty while the group covers nothing).
    let mut locals: Vec<Vec<u32>> = vec![Vec::with_capacity(0); selections.groups.len()];
    let mut local_auths: Vec<u32> = Vec::with_capacity(cands.len());
    let mut local_group: Vec<u32> = Vec::with_capacity(cands.len());
    for (&g, &id) in cands.iter().zip(&group_of) {
        let (nodes, pairs) = selections.group(id as usize);
        if nodes.is_empty() && pairs.is_empty() {
            continue;
        }
        locals[id as usize]
            .push(u32::try_from(local_auths.len()).expect("too many authorizations"));
        local_auths.push(g);
        local_group.push(id);
    }

    // The partition depends only on the groups' covered nodes, so when the
    // previous tables of this document had the same cover keys in the same
    // order, their classes are these tables' classes: only each class's
    // rule list is rebuilt.
    let same_groups = unwritten.filter(|prev| {
        prev.selections.groups.len() == selections.groups.len()
            && prev
                .selections
                .groups
                .iter()
                .zip(&selections.groups)
                .all(|(old, new)| covers.previous_key[new.key as usize] == old.key)
    });
    let (node_class, class_first, classes) = match same_groups {
        Some(prev) => (
            prev.node_class.clone(),
            prev.class_first.clone(),
            regroup(prev, &locals),
        ),
        None => partition(&selections, &locals, node_ids.len()),
    };

    // One entry per selected `(node, attribute)` pair, its rules merged
    // from every group selecting it.
    selected_attrs.sort_unstable();
    let mut attr_entries: Vec<AttrEntry> = Vec::with_capacity(selected_attrs.len());
    for run in selected_attrs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let mut auths: Vec<u32> = Vec::with_capacity(run.len());
        for &(_, _, id) in run {
            auths.extend(&locals[id as usize]);
        }
        auths.sort_unstable();
        attr_entries.push(AttrEntry {
            node_pos: run[0].0,
            attr_sym: run[0].1,
            auths,
        });
    }

    CompiledDoc {
        specific,
        doc: Arc::clone(doc),
        selections,
        local_auths,
        local_group,
        node_ids,
        node_pos,
        node_class,
        class_first,
        classes,
        attr_entries,
    }
}

/// Partitions `nodes` node positions into classes by the list of groups
/// covering each, and expands each class's rule list from the groups'
/// members (`locals`). Returns each node's class, each class's first
/// position and each class's rules.
fn partition(
    selections: &Selections,
    locals: &[Vec<u32>],
    nodes: usize,
) -> (Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    // Key each node by the list of groups covering it. List 0 is empty;
    // list l ≠ 0 is `lists[l] = (parent list, group)`: the parent
    // extended by one later group. A group moves each of its nodes from
    // its list to that list's child, found through `child` and reset
    // after each group.
    let mut node_list = vec![0u32; nodes];
    let mut lists: Vec<(u32, u32)> = Vec::with_capacity(8);
    lists.push((0, UNSET));
    let mut child: Vec<u32> = vec![UNSET];
    let mut touched: Vec<u32> = Vec::with_capacity(8);
    for id in 0..selections.groups.len() {
        let group = u32::try_from(id).expect("too many groups");
        for &pos in selections.group(id).0 {
            let parent = node_list[pos as usize];
            if child[parent as usize] == UNSET {
                child[parent as usize] = u32::try_from(lists.len()).expect("too many classes");
                lists.push((parent, group));
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
    let mut class_first: Vec<u32> = Vec::with_capacity(8);
    let mut node_class = Vec::with_capacity(nodes);
    for (pos, &list) in node_list.iter().enumerate() {
        if class_of_list[list as usize] == UNSET {
            class_of_list[list as usize] = u32::try_from(classes.len()).expect("too many classes");
            let mut rules: Vec<u32> = Vec::with_capacity(4);
            let mut l = list;
            while l != 0 {
                let (parent, id) = lists[l as usize];
                rules.extend(&locals[id as usize]);
                l = parent;
            }
            rules.sort_unstable();
            classes.push(rules);
            class_first.push(u32::try_from(pos).expect("document too large"));
        }
        node_class.push(class_of_list[list as usize]);
    }
    (node_class, class_first, classes)
}

/// The class rule lists of `prev`'s partition under new group members
/// (`locals`), for tables whose groups have the cover keys of `prev`'s in
/// the same order: each class takes the members of the groups its
/// previous rules belonged to, every group that covers a node having at
/// least one member.
fn regroup(prev: &CompiledDoc, locals: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut last_class = vec![UNSET; locals.len()];
    let mut classes = Vec::with_capacity(prev.classes.len());
    for (class, rules) in prev.classes.iter().enumerate() {
        let class = u32::try_from(class).expect("too many classes");
        let mut expanded: Vec<u32> = Vec::with_capacity(rules.len());
        for &l in rules {
            let group = prev.local_group[l as usize] as usize;
            if last_class[group] != class {
                last_class[group] = class;
                expanded.extend(&locals[group]);
            }
        }
        expanded.sort_unstable();
        classes.push(expanded);
    }
    classes
}

/// A document with its live nodes in document order, as selection and
/// propagation address it.
struct Layout<'d> {
    doc: &'d Document,
    node_ids: &'d [NodeId],
    node_pos: &'d [u32],
    /// The document's symbol table, with the number of names it was built
    /// over, and its subtree ends: built on first use, so only documents an
    /// automaton or a cascade runs over pay for them.
    syms: Option<(usize, Vec<Option<u32>>)>,
    ends: Option<Vec<u32>>,
}

impl Layout<'_> {
    /// Runs the selection of cover key `key` over the document, appending
    /// what it covers and selects to `out`. A path's automaton is compiled
    /// on first use.
    fn select(&mut self, covers: &mut Covers<'_>, key: u32, out: &mut Selections) {
        let doc = self.doc;
        let (path, propagation) = covers.keys[key as usize];
        let selected = match path {
            None => Selection::Nodes(vec![doc.root()]),
            Some(p) => {
                let (path, automaton) = &mut covers.paths[p as usize];
                let automaton = automaton
                    .get_or_insert_with(|| PathAutomaton::compile(path, &mut covers.names));
                match automaton {
                    Some(auto) => {
                        let names = covers.names.len();
                        if self.syms.as_ref().map(|(built, _)| *built) != Some(names) {
                            self.syms = Some((names, covers.names.document_symbols(doc)));
                        }
                        let table = &self.syms.as_ref().expect("symbols just built").1;
                        Selection::Nodes(auto.select_nodes(doc, table))
                    }
                    None => path.select(doc),
                }
            }
        };
        match selected {
            Selection::Nodes(nodes) => self.propagate(propagation, &nodes, out),
            Selection::Attributes(pairs) => self.attributes(&pairs, out),
        }
    }

    /// Appends the positions `propagation` expands the `selected` elements
    /// to, ascending and each once, to `out` — the exact semantics of
    /// [`PolicyEngine::covered_nodes`]'s propagation stage. A cascade is
    /// the union of the selected subtrees, each one range of positions.
    fn propagate(&mut self, propagation: Propagation, selected: &[NodeId], out: &mut Selections) {
        let out = &mut out.nodes;
        let start = out.len();
        let live = |n: NodeId| Some(self.node_pos[n.index()]).filter(|&pos| pos != NO_POS);
        out.extend(selected.iter().filter_map(|&n| live(n)));
        match propagation {
            Propagation::None => {}
            Propagation::FirstLevel => {
                for &n in selected {
                    if live(n).is_some() {
                        out.extend(self.doc.children(n).filter_map(live));
                    }
                }
            }
            Propagation::Cascade => {
                if self.ends.is_none() {
                    self.ends = Some(self.subtree_ends());
                }
                let ends = self.ends.as_ref().expect("subtree ends just built");
                out[start..].sort_unstable();
                let roots = out.len();
                let mut covered_to = 0;
                for r in start..roots {
                    let pos = out[r];
                    if pos >= covered_to {
                        covered_to = ends[pos as usize];
                        out.extend(pos..covered_to);
                    }
                }
                out.drain(start..roots);
                return;
            }
        }
        out[start..].sort_unstable();
        let mut kept = start;
        for r in start..out.len() {
            if kept == start || out[r] != out[kept - 1] {
                out[kept] = out[r];
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// Appends the selected `(element, attribute)` pairs to `out` as
    /// (element position, index into the element's attributes).
    fn attributes(&self, pairs: &[(NodeId, String)], out: &mut Selections) {
        for (node, attr) in pairs {
            let index = self
                .doc
                .attributes(*node)
                .iter()
                .position(|(name, _)| name == attr)
                .expect("a selected attribute is present");
            out.attrs.push((
                self.node_pos[node.index()],
                u32::try_from(index).expect("too many attributes"),
            ));
        }
    }

    /// One past the last position of each node's subtree: document order
    /// lists a subtree as one range starting at its root.
    fn subtree_ends(&self) -> Vec<u32> {
        let mut ends = vec![1u32; self.node_ids.len()];
        for pos in (1..self.node_ids.len()).rev() {
            if let Some(parent) = self.doc.parent(self.node_ids[pos]) {
                let size = ends[pos];
                ends[self.node_pos[parent.index()] as usize] += size;
            }
        }
        for (pos, end) in ends.iter_mut().enumerate() {
            *end += u32::try_from(pos).expect("document too large");
        }
        ends
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

    /// The rule forms and selections this compilation derived and reused.
    #[must_use]
    pub fn compile_stats(&self) -> CompileStats {
        self.stats
    }

    /// Number of identities in the table subject matching reads: the
    /// identities the policy base names, plus revoked ones until the table
    /// is rebuilt (it never exceeds twice the identity rules, or 16).
    #[must_use]
    pub fn interned_subjects(&self) -> usize {
        self.subjects.len()
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

    fn identity_grant(who: &str) -> Authorization {
        Authorization::for_subject(SubjectSpec::Identity(who.into()))
            .on(portion("//patient"))
            .privilege(Privilege::Read)
            .grant()
    }

    #[test]
    fn compiling_against_reuses_rule_forms_and_the_identity_table() {
        let mut store = PolicyStore::new();
        let ids: Vec<AuthzId> = ["ann", "bob", "cy"]
            .map(|who| store.add(identity_grant(who)))
            .into();
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(portion("//record"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let documents = docs_with(&d);
        let strategy = ConflictStrategy::default();
        let counts = |c: &CompiledPolicies| {
            let stats = c.compile_stats();
            (stats.rules_compiled, stats.rules_reused)
        };
        let first = PolicySnapshot::new(&store, strategy, &documents).compile();
        assert_eq!(counts(&first), (4, 0));

        store.revoke(ids[0]);
        let second =
            PolicySnapshot::new(&store, strategy, &documents).compile_against(Some(&first));
        assert_eq!(counts(&second), (0, 3), "a revocation compiles no rule");
        assert!(
            Arc::ptr_eq(&first.subjects, &second.subjects),
            "a revocation copies no identity"
        );

        store.add(identity_grant("dee"));
        let third =
            PolicySnapshot::new(&store, strategy, &documents).compile_against(Some(&second));
        assert_eq!(counts(&third), (1, 3), "an add compiles the new rule only");
        assert!(third.subjects.get("dee").is_some());
        assert!(
            third.subjects.get("ann").is_some(),
            "a revoked identity stays interned until the table is rebuilt"
        );

        store
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("doctor"));
        let fourth =
            PolicySnapshot::new(&store, strategy, &documents).compile_against(Some(&third));
        assert_eq!(
            counts(&fourth),
            (1, 3),
            "a hierarchy edit recompiles the role rule"
        );

        let profiles = [
            SubjectProfile::new("ann"),
            SubjectProfile::new("dee"),
            SubjectProfile::new("carol").with_role(Role::new("chief")),
        ];
        let engine = PolicyEngine::new(strategy);
        for profile in &profiles {
            assert_eq!(
                fourth
                    .compute_view(profile, "h.xml", &d)
                    .unwrap()
                    .to_xml_string(),
                engine
                    .compute_view(&store, profile, "h.xml", &d)
                    .to_xml_string(),
                "{}",
                profile.identity
            );
        }
    }

    #[test]
    fn the_identity_table_stays_bounded_by_the_live_identity_rules() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let documents = docs_with(&d);
        let strategy = ConflictStrategy::default();
        let mut previous = PolicySnapshot::new(&store, strategy, &documents).compile();
        let mut held = store.add(identity_grant("f0"));
        for k in 1..200 {
            store.revoke(held);
            held = store.add(identity_grant(&format!("f{k}")));
            previous =
                PolicySnapshot::new(&store, strategy, &documents).compile_against(Some(&previous));
            assert!(previous.interned_subjects() <= 16, "step {k}");
            assert_eq!(previous.auth_count(), store.len());
        }
        let engine = PolicyEngine::new(strategy);
        for who in ["f198", "f199"] {
            let profile = SubjectProfile::new(who);
            assert_eq!(
                previous
                    .compute_view(&profile, "h.xml", &d)
                    .unwrap()
                    .to_xml_string(),
                engine
                    .compute_view(&store, &profile, "h.xml", &d)
                    .to_xml_string(),
                "{who}"
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
