//! Policy evaluation: per-node decisions, Author-X views, and the
//! policy-equivalence classes used by secure dissemination.

use crate::authz::{Authorization, AuthzId, ObjectSpec, Privilege, Propagation, Sign};
use crate::conflict::ConflictStrategy;
use crate::subject::{RoleHierarchy, SubjectProfile};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use websec_xml::{Document, NodeBitset, NodeId, Selection};

/// A policy base: authorizations plus the role hierarchy and collection
/// membership needed to interpret them.
///
/// Each authorization is held behind an [`Arc`] and never changes once
/// added, so a clone shares every rule and the clone's `add` and `revoke`
/// leave the others shared: a snapshot copy and the drop of a replaced one
/// copy and free no rule. Rules are kept in policy-base order, which is
/// ascending [`AuthzId`] order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyStore {
    authorizations: Vec<Arc<Authorization>>,
    /// Role seniority used for `SubjectSpec::InRole`.
    pub hierarchy: RoleHierarchy,
    collections: Arc<BTreeMap<String, BTreeSet<String>>>,
    next_id: u32,
}

impl PolicyStore {
    /// Creates an empty policy base.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an authorization, assigning it a fresh id (any id set by the
    /// caller is overwritten).
    pub fn add(&mut self, mut authorization: Authorization) -> AuthzId {
        let id = AuthzId(self.next_id);
        self.next_id += 1;
        authorization.id = id;
        self.authorizations.push(Arc::new(authorization));
        id
    }

    /// Removes an authorization by id; returns whether it existed.
    pub fn revoke(&mut self, id: AuthzId) -> bool {
        let before = self.authorizations.len();
        self.authorizations.retain(|a| a.id != id);
        self.authorizations.len() != before
    }

    /// Removes every authorization matching `predicate`, returning how many
    /// were removed. Inside one `StackServer::update` the whole sweep is one
    /// publication, so concurrent readers see either none or all of it —
    /// the revocation primitive concurrent serving tests lean on.
    pub fn revoke_matching(&mut self, predicate: impl Fn(&Authorization) -> bool) -> usize {
        let before = self.authorizations.len();
        self.authorizations.retain(|a| !predicate(a));
        before - self.authorizations.len()
    }

    /// The current authorizations, in policy-base order.
    pub fn authorizations(
        &self,
    ) -> impl ExactSizeIterator<Item = &Authorization> + DoubleEndedIterator + Clone {
        self.authorizations.iter().map(|a| &**a)
    }

    /// The current authorizations as the shared handles every clone of
    /// this store holds, in policy-base order: two handles are the very
    /// same rule exactly when [`Arc::ptr_eq`] says so.
    #[must_use]
    pub fn shared_authorizations(&self) -> &[Arc<Authorization>] {
        &self.authorizations
    }

    /// True when `other` holds exactly this base: the very same rules in
    /// the same order ([`Arc::ptr_eq`], not a copy), the same role
    /// hierarchy and the same collection membership. The twin of
    /// `DocumentStore::shares_documents`: while `self` is alive none of
    /// its rules is freed, so a rule `other` holds at the same address is
    /// that rule, and a rule added since is a new allocation. A base built
    /// separately shares no rule, whatever it holds.
    #[must_use]
    pub fn shares_base(&self, other: &PolicyStore) -> bool {
        self.authorizations.len() == other.authorizations.len()
            && self
                .authorizations
                .iter()
                .zip(&other.authorizations)
                .all(|(a, b)| Arc::ptr_eq(a, b))
            && self.hierarchy == other.hierarchy
            && self.collections == other.collections
    }

    /// The authorization with id `id`, if the base holds it.
    #[must_use]
    pub fn get(&self, id: AuthzId) -> Option<&Authorization> {
        let i = self
            .authorizations
            .binary_search_by_key(&id, |a| a.id)
            .ok()?;
        Some(&self.authorizations[i])
    }

    /// Number of authorizations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.authorizations.len()
    }

    /// True when the base is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.authorizations.is_empty()
    }

    /// Registers `document` as a member of `collection`.
    pub fn add_collection_member(&mut self, collection: &str, document: &str) {
        Arc::make_mut(&mut self.collections)
            .entry(collection.to_string())
            .or_default()
            .insert(document.to_string());
    }

    /// True when `document` is a registered member of `collection`.
    #[must_use]
    pub fn collection_contains(&self, collection: &str, document: &str) -> bool {
        self.collections
            .get(collection)
            .is_some_and(|m| m.contains(document))
    }

    /// The members of `collection`, or `None` when it was never registered.
    #[must_use]
    pub fn collection_members(&self, collection: &str) -> Option<&BTreeSet<String>> {
        self.collections.get(collection)
    }

    /// Every collection with its members, shared with the clones of this
    /// store that did not change membership since.
    pub(crate) fn collections(&self) -> &Arc<BTreeMap<String, BTreeSet<String>>> {
        &self.collections
    }
}

/// For each rule of `after`, in order, its position in `before` when
/// `before` holds that very allocation ([`Arc::ptr_eq`]), else `None`.
/// Both lists are in policy-base order, as [`PolicyStore`] keeps them, so
/// one merge walk by id finds every shared rule. Equal ids alone prove
/// nothing: a store built separately numbers its rules from 0 too, and a
/// re-granted rule is a new allocation.
pub(crate) fn shared_rule_positions<'a>(
    before: &'a [Arc<Authorization>],
    after: &'a [Arc<Authorization>],
) -> impl Iterator<Item = Option<usize>> + 'a {
    let mut next = 0;
    after.iter().map(move |rule| {
        while before.get(next).is_some_and(|b| b.id < rule.id) {
            next += 1;
        }
        let shared = before.get(next).is_some_and(|b| Arc::ptr_eq(b, rule));
        shared.then(|| {
            next += 1;
            next - 1
        })
    })
}

/// Outcome of an access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Access is permitted.
    Granted,
    /// Access is denied (explicitly or by the closed-policy default).
    Denied,
}

/// Per-document evaluation result for one subject and privilege.
#[derive(Debug)]
pub struct DocumentDecision {
    node_allowed: HashMap<NodeId, bool>,
    /// `(element, attribute)` decisions where an attribute-specific
    /// authorization applied.
    attr_decisions: HashMap<(NodeId, String), bool>,
}

impl DocumentDecision {
    /// Is `node` readable under this decision?
    #[must_use]
    pub fn is_allowed(&self, node: NodeId) -> bool {
        self.node_allowed.get(&node).copied().unwrap_or(false)
    }

    /// Is `attribute` of `node` visible? Attributes inherit the element's
    /// decision unless an attribute-specific authorization overrides it.
    #[must_use]
    pub fn attr_allowed(&self, node: NodeId, attribute: &str) -> bool {
        match self.attr_decisions.get(&(node, attribute.to_string())) {
            Some(&explicit) => explicit && self.is_allowed(node),
            None => self.is_allowed(node),
        }
    }

    /// Count of allowed nodes (used by the flexible-enforcement exposure
    /// metric and by tests).
    #[must_use]
    pub fn allowed_count(&self) -> usize {
        self.node_allowed.values().filter(|&&ok| ok).count()
    }

    /// The view of `doc` this decision leaves: the pruning that keeps
    /// exactly the allowed nodes and visible attributes, with the denied
    /// ancestors of allowed nodes as name-only shells. Of a Read decision,
    /// it is [`PolicyEngine::compute_view`]'s view.
    #[must_use]
    pub fn view(&self, doc: &Document) -> Document {
        let keep: NodeBitset = self
            .node_allowed
            .iter()
            .filter_map(|(&n, &ok)| ok.then_some(n))
            .collect();
        // Attribute pruning: for kept elements, keep attributes whose
        // (possibly inherited) decision is positive.
        let mut keep_attrs: HashMap<NodeId, Vec<String>> = HashMap::new();
        for node in keep.iter() {
            let attrs = doc.attributes(node);
            if attrs.is_empty() {
                continue;
            }
            let visible: Vec<String> = attrs
                .iter()
                .filter(|(name, _)| self.attr_allowed(node, name))
                .map(|(name, _)| name.clone())
                .collect();
            if visible.len() != attrs.len() {
                keep_attrs.insert(node, visible);
            }
        }
        doc.prune_to_view(&keep, &keep_attrs)
    }
}

/// What one authorization covers in one document: the element and text
/// nodes, and the `(element, attribute)` pairs its path selects.
pub type CoveredNodes = (Vec<NodeId>, Vec<(NodeId, String)>);

/// The evaluation engine: a conflict-resolution strategy applied to a policy
/// base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyEngine {
    /// Conflict resolution strategy.
    pub strategy: ConflictStrategy,
}

impl PolicyEngine {
    /// Creates an engine with the given strategy.
    #[must_use]
    pub fn new(strategy: ConflictStrategy) -> Self {
        PolicyEngine { strategy }
    }

    /// Expands one authorization's object spec to the set of covered nodes
    /// of `doc` (named `doc_name`), or `None` when the spec does not apply
    /// to this document at all. Attribute-targeting portions return the
    /// element set separately from the `(node, attr)` pairs.
    ///
    /// The interpreter's coverage semantics, and the oracle for the
    /// compiled tables' coverage: public so that tests can pin each
    /// authorization's coverage read from
    /// [`crate::compiled::CompiledPolicies`] to it. Static analysis reads
    /// coverage from the tables, not from here.
    pub fn covered_nodes(
        store: &PolicyStore,
        auth: &Authorization,
        doc_name: &str,
        doc: &Document,
    ) -> Option<CoveredNodes> {
        let whole_doc = || (vec![doc.root()], Vec::new());
        let base: CoveredNodes = match &auth.object {
            ObjectSpec::AllDocuments => whole_doc(),
            ObjectSpec::Document(name) => {
                if name != doc_name {
                    return None;
                }
                whole_doc()
            }
            ObjectSpec::Collection(c) => {
                if !store.collection_contains(c, doc_name) {
                    return None;
                }
                whole_doc()
            }
            ObjectSpec::Portion { document, path } => {
                if document != doc_name {
                    return None;
                }
                match path.select(doc) {
                    Selection::Nodes(nodes) => (nodes, Vec::new()),
                    Selection::Attributes(pairs) => (Vec::new(), pairs),
                }
            }
            ObjectSpec::PortionAll(path) => match path.select(doc) {
                Selection::Nodes(nodes) => (nodes, Vec::new()),
                Selection::Attributes(pairs) => (Vec::new(), pairs),
            },
        };

        // Apply propagation to the element set.
        let (selected, attrs) = base;
        let mut expanded: Vec<NodeId> = Vec::new();
        match auth.propagation {
            Propagation::None => expanded.extend(&selected),
            Propagation::FirstLevel => {
                for &n in &selected {
                    expanded.push(n);
                    expanded.extend(doc.children(n));
                }
            }
            Propagation::Cascade => {
                for &n in &selected {
                    expanded.extend(doc.descendants(n));
                }
            }
        }
        expanded.sort_unstable();
        expanded.dedup();
        Some((expanded, attrs))
    }

    /// True when `auth` bears on a request for `privilege`:
    /// a grant of `q` supports requests for `p ≤ q`; a denial of `q` blocks
    /// requests for `p ≥ q` (denying Read also blocks Write, not Browse).
    pub fn relevant(auth: &Authorization, privilege: Privilege) -> bool {
        match auth.sign {
            Sign::Plus => auth.privilege.implies(privilege),
            Sign::Minus => privilege.implies(auth.privilege),
        }
    }

    /// Evaluates the policy base over a whole document for one subject and
    /// privilege, producing per-node and per-attribute decisions.
    #[must_use]
    pub fn evaluate_document(
        &self,
        store: &PolicyStore,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
        privilege: Privilege,
    ) -> DocumentDecision {
        // Gather, per node, the applicable authorizations.
        let mut per_node: HashMap<NodeId, Vec<&Authorization>> = HashMap::new();
        let mut per_attr: HashMap<(NodeId, String), Vec<&Authorization>> = HashMap::new();

        for auth in store.authorizations() {
            if !Self::relevant(auth, privilege) {
                continue;
            }
            if !auth.subject.matches(profile, &store.hierarchy) {
                continue;
            }
            let Some((nodes, attrs)) = Self::covered_nodes(store, auth, doc_name, doc) else {
                continue;
            };
            for n in nodes {
                per_node.entry(n).or_default().push(auth);
            }
            for pair in attrs {
                per_attr.entry(pair).or_default().push(auth);
            }
        }

        let mut node_allowed = HashMap::new();
        for node in doc.all_nodes() {
            let applicable = per_node.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            let decision = self
                .strategy
                .resolve(applicable)
                .map(|s| s == Sign::Plus)
                .unwrap_or(false); // closed policy: no authorization => deny
            node_allowed.insert(node, decision);
        }

        let mut attr_decisions = HashMap::new();
        for ((node, attr), auths) in per_attr {
            // Attribute decisions also consider element-level authorizations
            // covering the element: the attribute-specific ones are simply
            // more applicable rules at a finer granularity.
            let mut applicable = auths;
            if let Some(elem_auths) = per_node.get(&node) {
                applicable.extend(elem_auths.iter().copied());
            }
            let decision = self
                .strategy
                .resolve(&applicable)
                .map(|s| s == Sign::Plus)
                .unwrap_or(false);
            attr_decisions.insert((node, attr), decision);
        }

        DocumentDecision {
            node_allowed,
            attr_decisions,
        }
    }

    /// Single-node access check (convenience wrapper over
    /// [`Self::evaluate_document`]).
    #[must_use]
    pub fn check(
        &self,
        store: &PolicyStore,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
        node: NodeId,
        privilege: Privilege,
    ) -> AccessDecision {
        let decision = self.evaluate_document(store, profile, doc_name, doc, privilege);
        if decision.is_allowed(node) {
            AccessDecision::Granted
        } else {
            AccessDecision::Denied
        }
    }

    /// Computes the subject's **view** of the document: the pruning that
    /// keeps exactly the readable nodes and visible attributes (Author-X).
    #[must_use]
    pub fn compute_view(
        &self,
        store: &PolicyStore,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
    ) -> Document {
        self.evaluate_document(store, profile, doc_name, doc, Privilege::Read)
            .view(doc)
    }

    /// Computes, per node, the set of **granting** authorizations for
    /// `privilege` irrespective of subject — the policy-equivalence classes
    /// that `websec-dissem` encrypts with one key each ("all the entry
    /// portions to which the same policies apply are encrypted with the same
    /// key").
    #[must_use]
    pub fn policy_equivalence_classes(
        store: &PolicyStore,
        doc_name: &str,
        doc: &Document,
        privilege: Privilege,
    ) -> BTreeMap<BTreeSet<AuthzId>, Vec<NodeId>> {
        let mut node_policies: HashMap<NodeId, BTreeSet<AuthzId>> = HashMap::new();
        for auth in store.authorizations() {
            if auth.sign != Sign::Plus || !auth.privilege.implies(privilege) {
                continue;
            }
            let Some((nodes, _attrs)) = Self::covered_nodes(store, auth, doc_name, doc) else {
                continue;
            };
            for n in nodes {
                node_policies.entry(n).or_default().insert(auth.id);
            }
        }
        let mut classes: BTreeMap<BTreeSet<AuthzId>, Vec<NodeId>> = BTreeMap::new();
        for node in doc.all_nodes() {
            let set = node_policies.remove(&node).unwrap_or_default();
            classes.entry(set).or_default().push(node);
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::SubjectSpec;
    use crate::subject::{Credential, CredentialExpr, Role};
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

    #[test]
    fn revoke_matching_sweeps_every_match() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Document("other.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("clerk".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let removed = store
            .revoke_matching(|a| matches!(&a.subject, SubjectSpec::Identity(id) if id == "doctor"));
        assert_eq!(removed, 2);
        assert_eq!(store.len(), 1);
        // A sweep that matches nothing removes nothing.
        assert_eq!(store.revoke_matching(|_| false), 0);
        assert_eq!(store.len(), 1);
    }

    fn read_grant(who: &str) -> Authorization {
        Authorization::for_subject(SubjectSpec::Identity(who.into()))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant()
    }

    #[test]
    fn clones_share_every_rule_and_edits_keep_the_others_shared() {
        let mut store = PolicyStore::new();
        let ids: Vec<AuthzId> = ["a", "b", "c", "d"]
            .map(|who| store.add(read_grant(who)))
            .into();
        let positions = |before: &PolicyStore, after: &PolicyStore| {
            shared_rule_positions(
                before.shared_authorizations(),
                after.shared_authorizations(),
            )
            .collect::<Vec<_>>()
        };
        let copy = store.clone();
        assert_eq!(
            positions(&store, &copy),
            [Some(0), Some(1), Some(2), Some(3)]
        );

        // A revocation and an add leave every other rule the very same
        // allocation; the new rule is nobody else's.
        let mut edited = store.clone();
        assert!(edited.revoke(ids[1]));
        edited.add(read_grant("e"));
        assert_eq!(
            positions(&store, &edited),
            [Some(0), Some(2), Some(3), None]
        );
        assert_eq!(
            positions(&edited, &store),
            [Some(0), None, Some(1), Some(2)]
        );

        // Re-granting a revoked rule's content makes a new rule: new id,
        // new allocation.
        let content = store.get(ids[2]).expect("held").clone();
        let mut regranted = store.clone();
        regranted.revoke(ids[2]);
        let id = regranted.add(content);
        assert_ne!(id, ids[2]);
        assert_eq!(
            positions(&store, &regranted),
            [Some(0), Some(1), Some(3), None]
        );

        // A store built separately numbers its rules alike but shares none.
        let mut twin = PolicyStore::new();
        for who in ["a", "b", "c", "d"] {
            twin.add(read_grant(who));
        }
        assert_eq!(twin.authorizations().map(|a| a.id).collect::<Vec<_>>(), ids);
        assert_eq!(positions(&store, &twin), [None; 4]);

        // `shares_base` asks the same of the whole base: every rule, the
        // hierarchy and collection membership.
        assert!(store.shares_base(&copy) && copy.shares_base(&store));
        assert!(!store.shares_base(&edited) && !store.shares_base(&regranted));
        assert!(
            store == twin && !store.shares_base(&twin),
            "equal, not shared"
        );
        let mut ranked = store.clone();
        ranked
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("intern"));
        assert!(!store.shares_base(&ranked));
        let mut grouped = store.clone();
        grouped.add_collection_member("wards", "h.xml");
        assert!(!store.shares_base(&grouped));
    }

    #[test]
    fn closed_policy_denies_by_default() {
        let store = PolicyStore::new();
        let engine = PolicyEngine::default();
        let d = doc();
        let profile = SubjectProfile::new("alice");
        assert_eq!(
            engine.check(&store, &profile, "h.xml", &d, d.root(), Privilege::Read),
            AccessDecision::Denied
        );
    }

    #[test]
    fn document_grant_cascades() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let profile = SubjectProfile::new("anyone");
        let decision = engine.evaluate_document(&store, &profile, "h.xml", &d, Privilege::Read);
        assert_eq!(decision.allowed_count(), d.node_count());
    }

    #[test]
    fn wrong_document_name_does_not_apply() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("other.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let decision = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        assert_eq!(decision.allowed_count(), 0);
    }

    #[test]
    fn portion_grant_with_denial_override() {
        let mut store = PolicyStore::new();
        // Grant the whole document, deny the admin subtree.
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
        let engine = PolicyEngine::default();
        let d = doc();
        let view = engine.compute_view(&store, &SubjectProfile::new("x"), "h.xml", &d);
        let s = view.to_xml_string();
        assert!(!s.contains("budget"), "{s}");
        assert!(s.contains("Alice"));
    }

    #[test]
    fn role_based_grant_respects_hierarchy() {
        let mut store = PolicyStore::new();
        store
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("doctor"));
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let chief = SubjectProfile::new("carol").with_role(Role::new("chief"));
        let nurse = SubjectProfile::new("nina").with_role(Role::new("nurse"));
        assert_eq!(
            engine.check(&store, &chief, "h.xml", &d, d.root(), Privilege::Read),
            AccessDecision::Granted
        );
        assert_eq!(
            engine.check(&store, &nurse, "h.xml", &d, d.root(), Privilege::Read),
            AccessDecision::Denied
        );
    }

    #[test]
    fn credential_based_grant() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::WithCredentials(
                CredentialExpr::OfType("physician".into())
                    .and(CredentialExpr::AttrGe("years".into(), 5)),
            ))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let senior = SubjectProfile::new("a")
            .with_credential(Credential::new("physician", "a").with_attr("years", 10i64));
        let junior = SubjectProfile::new("b")
            .with_credential(Credential::new("physician", "b").with_attr("years", 2i64));
        assert_eq!(
            engine.check(&store, &senior, "h.xml", &d, d.root(), Privilege::Read),
            AccessDecision::Granted
        );
        assert_eq!(
            engine.check(&store, &junior, "h.xml", &d, d.root(), Privilege::Read),
            AccessDecision::Denied
        );
    }

    #[test]
    fn propagation_modes() {
        let d = doc();
        let engine = PolicyEngine::default();
        let patient1_path = "/hospital/patient[@id='p1']";

        // No propagation: only the patient element itself.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion(patient1_path))
                .privilege(Privilege::Read)
                .grant()
                .with_propagation(Propagation::None),
        );
        let dec = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        assert_eq!(dec.allowed_count(), 1);

        // First level: patient + name + record (not their text children).
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion(patient1_path))
                .privilege(Privilege::Read)
                .grant()
                .with_propagation(Propagation::FirstLevel),
        );
        let dec = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        assert_eq!(dec.allowed_count(), 3);

        // Cascade: the whole subtree (patient, name, text, record, text).
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion(patient1_path))
                .privilege(Privilege::Read)
                .grant(),
        );
        let dec = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        assert_eq!(dec.allowed_count(), 5);
    }

    #[test]
    fn attribute_level_denial() {
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
        let engine = PolicyEngine::default();
        let d = doc();
        let view = engine.compute_view(&store, &SubjectProfile::new("x"), "h.xml", &d);
        let s = view.to_xml_string();
        assert!(!s.contains("ssn"), "{s}");
        assert!(s.contains("id=\"p1\""), "{s}");
    }

    #[test]
    fn attribute_decision_requires_visible_element() {
        let mut store = PolicyStore::new();
        // Only an attribute grant, element itself not readable.
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//patient/@id"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let dec = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        let patient = Path::parse("//patient[@id='p1']").unwrap().select_nodes(&d)[0];
        assert!(!dec.is_allowed(patient));
        assert!(!dec.attr_allowed(patient, "id"));
    }

    #[test]
    fn write_grant_implies_read() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Write)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Granted
        );
        // But a Read grant does not imply Write.
        let mut store2 = PolicyStore::new();
        store2.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        assert_eq!(
            engine.check(
                &store2,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Write
            ),
            AccessDecision::Denied
        );
    }

    #[test]
    fn read_denial_blocks_write_request() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Admin)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("mallory".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .deny(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let mallory = SubjectProfile::new("mallory");
        assert_eq!(
            engine.check(&store, &mallory, "h.xml", &d, d.root(), Privilege::Write),
            AccessDecision::Denied
        );
        // Browse is below Read, so the Read denial does not block it.
        assert_eq!(
            engine.check(&store, &mallory, "h.xml", &d, d.root(), Privilege::Browse),
            AccessDecision::Granted
        );
    }

    #[test]
    fn collection_grant() {
        let mut store = PolicyStore::new();
        store.add_collection_member("wards", "h.xml");
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Collection("wards".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Granted
        );
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "other.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Denied
        );
    }

    #[test]
    fn equivalence_classes_partition_document() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("admin")))
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let classes =
            PolicyEngine::policy_equivalence_classes(&store, "h.xml", &d, Privilege::Read);
        let total: usize = classes.values().map(Vec::len).sum();
        assert_eq!(total, d.node_count());
        // Classes: {} (root etc.), {doctor-auth}, {admin-auth}.
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn equivalence_classes_overlapping_policies() {
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
        let d = doc();
        let classes =
            PolicyEngine::policy_equivalence_classes(&store, "h.xml", &d, Privilege::Read);
        // {} , {doctor}, {doctor, auditor} — patient p1's subtree is covered
        // by both.
        assert_eq!(classes.len(), 3);
        assert!(classes.keys().any(|k| k.len() == 2));
    }

    #[test]
    fn revoke_removes_grant() {
        let mut store = PolicyStore::new();
        let id = store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::AllDocuments)
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Granted
        );
        assert!(store.revoke(id));
        assert!(!store.revoke(id));
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Denied
        );
    }

    #[test]
    fn portion_all_spans_documents() {
        // A PortionAll grant applies to every document the engine sees.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::PortionAll(Path::parse("//patient").unwrap()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        for name in ["h.xml", "other.xml", "third.xml"] {
            let dec = engine.evaluate_document(
                &store,
                &SubjectProfile::new("x"),
                name,
                &d,
                Privilege::Read,
            );
            assert!(dec.allowed_count() > 0, "document {name}");
        }
    }

    #[test]
    fn browse_privilege_is_distinct() {
        // A Browse-only grant exposes structure checks but not Read.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Browse)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Browse
            ),
            AccessDecision::Granted
        );
        assert_eq!(
            engine.check(
                &store,
                &SubjectProfile::new("x"),
                "h.xml",
                &d,
                d.root(),
                Privilege::Read
            ),
            AccessDecision::Denied
        );
    }

    #[test]
    fn content_dependent_policy() {
        // Content-dependent: only records whose text is 'flu' are readable.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("//record[text()='flu']"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let engine = PolicyEngine::default();
        let d = doc();
        let dec = engine.evaluate_document(
            &store,
            &SubjectProfile::new("x"),
            "h.xml",
            &d,
            Privilege::Read,
        );
        // record + its text node.
        assert_eq!(dec.allowed_count(), 2);
    }
}
