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
//! The interpreted engine ([`crate::engine::PolicyEngine`]) remains the
//! semantic oracle: `CompiledPolicies::compute_view` must be
//! byte-for-byte equal to `PolicyEngine::compute_view`, and each
//! authorization's coverage read from the tables (classes plus
//! attribute entries, [`crate::compiled_view`]) must equal
//! [`PolicyEngine::covered_nodes`], which the seeded
//! `compiled_decisions` integration suite and the unit tests below pin.
//! The tables are the one coverage source of static analysis: the
//! analyzer's WS001/WS002 and the WS013–WS018 verifier read them, not
//! the interpreter.

use crate::authz::{Authorization, AuthzId, ObjectSpec, Privilege, Propagation, Sign};
use crate::conflict::ConflictStrategy;
use crate::engine::{AccessDecision, PolicyEngine, PolicyStore};
use crate::subject::{CredentialExpr, SubjectProfile};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use websec_xml::{
    Document, DocumentStore, NameInterner, NodeBitset, NodeId, PathAutomaton, Selection,
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
    pub(crate) node_pos: HashMap<NodeId, u32>,
    /// Equivalence-class id per node, parallel to `node_ids`.
    pub(crate) node_class: Vec<u32>,
    /// Class → covering local authorization indices (sorted).
    pub(crate) classes: Vec<Vec<u32>>,
    /// Attribute-specific coverage, sorted by `(node_pos, attr_sym)`.
    pub(crate) attr_entries: Vec<AttrEntry>,
}

/// The compiled artifact: immutable, shared behind an `Arc` inside the
/// server's one published snapshot, invalidated exactly like every other
/// snapshot derivative by the `{generation, epoch}` token.
#[derive(Debug)]
pub struct CompiledPolicies {
    pub(crate) strategy: ConflictStrategy,
    pub(crate) epoch: u64,
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
        let mut names = NameInterner::new();

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

        // Compile each unique path once (shared across documents).
        let mut automata: HashMap<&str, Option<PathAutomaton>> = HashMap::with_capacity(8);
        for auth in &source {
            if let ObjectSpec::Portion { path, .. } | ObjectSpec::PortionAll(path) = &auth.object {
                automata
                    .entry(path.source())
                    .or_insert_with(|| PathAutomaton::compile(path, &mut names));
            }
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
        for name in self.documents.names() {
            let doc = self.documents.get(name).expect("listed document");
            let mut cands: Vec<u32> = by_doc.get(name).cloned().unwrap_or_default();
            cands.extend(&global);
            cands.sort_unstable();
            cands.dedup();
            docs.insert(
                String::from(name),
                compile_doc(doc, &cands, &source, &names, &mut attrs, &automata),
            );
        }

        Arc::new(CompiledPolicies {
            strategy: self.strategy,
            epoch: self.store.epoch(),
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

fn compile_doc(
    doc: &Document,
    cands: &[u32],
    source: &[Authorization],
    names: &NameInterner,
    attrs: &mut NameInterner,
    automata: &HashMap<&str, Option<PathAutomaton>>,
) -> CompiledDoc {
    let node_ids = doc.all_nodes();
    let mut node_pos = HashMap::with_capacity(node_ids.len());
    for (pos, &n) in node_ids.iter().enumerate() {
        node_pos.insert(n, u32::try_from(pos).expect("document too large"));
    }

    // Per-document symbol table, computed lazily: only documents
    // actually touched by an automaton pay for it.
    let mut syms: Option<Vec<Option<u32>>> = None;

    let mut local_auths: Vec<u32> = Vec::with_capacity(cands.len());
    let mut node_cover: Vec<Vec<u32>> = vec![Vec::with_capacity(0); node_ids.len()];
    let mut attr_cover: HashMap<(u32, u32), Vec<u32>> = HashMap::with_capacity(0);

    for &g in cands {
        let auth = &source[g as usize];
        // Name/collection gating already happened in the bucketing
        // pass, so every candidate's base selection starts here.
        let (selected, attr_pairs): (Vec<NodeId>, Vec<(NodeId, String)>) = match &auth.object {
            ObjectSpec::AllDocuments | ObjectSpec::Document(_) | ObjectSpec::Collection(_) => {
                (vec![doc.root()], vec![])
            }
            ObjectSpec::Portion { path, .. } | ObjectSpec::PortionAll(path) => {
                let compiled = automata.get(path.source()).and_then(Option::as_ref);
                match compiled {
                    Some(auto) => {
                        let table =
                            syms.get_or_insert_with(|| names.document_symbols(doc));
                        (auto.select_nodes(doc, table), vec![])
                    }
                    None => match path.select(doc) {
                        Selection::Nodes(nodes) => (nodes, vec![]),
                        Selection::Attributes(pairs) => (vec![], pairs),
                    },
                }
            }
        };
        let covered = propagate(doc, auth.propagation, &selected);
        if covered.is_empty() && attr_pairs.is_empty() {
            continue;
        }
        let local = u32::try_from(local_auths.len()).expect("too many authorizations");
        local_auths.push(g);
        for n in covered {
            node_cover[node_pos[&n] as usize].push(local);
        }
        for (n, attr) in attr_pairs {
            attr_cover
                .entry((node_pos[&n], attrs.intern(&attr)))
                .or_insert_with(|| Vec::with_capacity(1))
                .push(local);
        }
    }

    // Partition nodes into equivalence classes by covering set.
    let mut class_ids: HashMap<Vec<u32>, u32> = HashMap::with_capacity(8);
    let mut classes: Vec<Vec<u32>> = Vec::with_capacity(8);
    let mut node_class = Vec::with_capacity(node_ids.len());
    for cover in node_cover {
        let id = match class_ids.get(&cover) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(classes.len()).expect("too many classes");
                classes.push(cover.clone());
                class_ids.insert(cover, id);
                id
            }
        };
        node_class.push(id);
    }

    let mut attr_entries: Vec<AttrEntry> = attr_cover
        .into_iter()
        .map(|((node_pos, attr_sym), auths)| AttrEntry {
            node_pos,
            attr_sym,
            auths,
        })
        .collect();
    attr_entries.sort_unstable_by_key(|e| (e.node_pos, e.attr_sym));

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
    /// The policy-base epoch this artifact was compiled from.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

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

    fn resolve_iter<'b>(
        &self,
        applicable: &mut dyn Iterator<Item = &'b CompiledAuth>,
    ) -> Option<Sign> {
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
        let allowed = cd.node_pos.get(&node).is_some_and(|&pos| {
            let class = &cd.classes[cd.node_class[pos as usize] as usize];
            self.resolve(cd, class, &matched) == Some(Sign::Plus)
        });
        Some(if allowed {
            AccessDecision::Granted
        } else {
            AccessDecision::Denied
        })
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
        let Some(&pos) = cd.node_pos.get(&node) else {
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
            let mut it = entry
                .auths
                .iter()
                .chain(class.iter())
                .filter(|&&l| matched[l as usize])
                .map(|&l| &self.auths[cd.local_auths[l as usize] as usize]);
            // An entry only yields an explicit decision when at least
            // one *attribute-specific* authorization matched (the
            // interpreter creates `per_attr` entries only from matched
            // attribute coverage).
            if !entry.auths.iter().any(|&l| matched[l as usize]) {
                return None;
            }
            self.resolve_iter(&mut it).map(|s| s == Sign::Plus)
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
                    if !entry.auths.iter().any(|&l| matched[l as usize]) {
                        continue; // no explicit decision: inherits "visible"
                    }
                    let mut it = entry
                        .auths
                        .iter()
                        .chain(class.iter())
                        .filter(|&&l| matched[l as usize])
                        .map(|&l| &self.auths[cd.local_auths[l as usize] as usize]);
                    if self.resolve_iter(&mut it) != Some(Sign::Plus) {
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

        Some(doc.prune_to_view_bits(&keep, &keep_attrs))
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
                    let dec =
                        engine.evaluate_document(store, profile, "h.xml", &d, privilege);
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
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).grant());
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(portion("/hospital/admin")).privilege(Privilege::Read).deny());
        store.add(Authorization::for_subject(SubjectSpec::Identity("mallory".into())).on(portion("//record")).privilege(Privilege::Read).deny());
        assert_equivalent(
            &store,
            &[
                SubjectProfile::new("alice"),
                SubjectProfile::new("mallory"),
            ],
        );
    }

    #[test]
    fn attribute_denials_and_grants() {
        let mut store = PolicyStore::new();
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).grant());
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(portion("//patient/@ssn")).privilege(Privilege::Read).deny());
        store.add(Authorization::for_subject(SubjectSpec::Identity("auditor".into())).on(portion("//patient/@ssn")).privilege(Privilege::Read).grant());
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
        store.add(Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor"))).on(ObjectSpec::Collection("wards".into())).privilege(Privilege::Read).grant());
        store.add(Authorization::for_subject(SubjectSpec::WithCredentials(
                CredentialExpr::OfType("physician".into())
                    .and(CredentialExpr::AttrGe("years".into(), 5)),
            )).on(portion("//patient")).privilege(Privilege::Write).grant());
        store.add(Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor"))).on(portion("/hospital/admin")).privilege(Privilege::Browse).deny());
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
            Authorization::for_subject(SubjectSpec::Anyone).on(portion("/hospital/patient[1]")).privilege(Privilege::Read).grant()
            .with_propagation(Propagation::FirstLevel),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone).on(portion("//record[text()='flu']")).privilege(Privilege::Read).grant()
            .with_propagation(Propagation::None),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::PortionAll(Path::parse("//budget").unwrap())).privilege(Privilege::Browse).deny()
            .with_priority(7),
        );
        assert_equivalent(&store, &[SubjectProfile::new("x")]);
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
        assert!(compiled.check(&SubjectProfile::new("x"), "missing.xml", d.root(), Privilege::Read).is_none());
    }

    #[test]
    fn equivalence_classes_match_interpreter() {
        let mut store = PolicyStore::new();
        store.add(Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor"))).on(portion("//patient")).privilege(Privilege::Read).grant());
        store.add(Authorization::for_subject(SubjectSpec::InRole(Role::new("auditor"))).on(portion("//patient[@id='p1']")).privilege(Privilege::Read).grant());
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(portion("/hospital/admin")).privilege(Privilege::Read).deny());
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
        store.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::AllDocuments).privilege(Privilege::Read).grant());
        let d = doc();
        let documents = docs_with(&d);
        let compiled =
            PolicySnapshot::new(&store, ConflictStrategy::ExplicitPriority, &documents).compile();
        assert_eq!(compiled.epoch(), store.epoch());
        assert_eq!(compiled.doc_count(), 1);
        assert_eq!(compiled.auth_count(), 1);
        assert_eq!(compiled.strategy(), ConflictStrategy::ExplicitPriority);
    }
}
