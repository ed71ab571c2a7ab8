//! Read-only introspection over [`CompiledPolicies`] for static analysis.
//!
//! The compiled decision plane (interned tables + per-document
//! equivalence classes, see [`crate::compiled`]) is deliberately opaque
//! at runtime: the serving layer only asks it questions
//! ([`CompiledPolicies::check`], [`CompiledPolicies::compute_view`]).
//! Static analysis instead needs to *enumerate* the plane — which
//! source authorizations cover which equivalence classes and which
//! attributes, which are dead, which pairs collide inside a class. The
//! policy verifier (`websec_analyzer::policy_verify`, WS013–WS018) reads
//! coverage only through this module, which exposes exactly that
//! enumeration surface, keyed back to source [`Authorization`]s so
//! diagnostics can speak in terms the policy author wrote, without
//! widening the mutable surface of the compiled artifact itself.
//!
//! Everything here is deterministic: documents are visited in sorted
//! name order and authorizations in policy-base order, so analyzer
//! reports built on top byte-diff cleanly across runs.

use std::collections::BTreeSet;
use std::sync::Arc;

use websec_xml::NodeId;

use crate::authz::{Authorization, AuthzId};
use crate::compiled::CompiledPolicies;
use crate::conflict::ConflictStrategy;
use crate::subject::RoleHierarchy;

/// One equivalence class of a compiled document: the nodes that share an
/// identical covering-authorization set, named by the source
/// authorizations that cover them (in policy-base order) and by its first
/// node. [`CompiledPolicies::node_classes`] lists the members.
#[derive(Debug, Clone)]
pub struct ClassView<'a> {
    /// Class index within the document (stable within one compiled artifact).
    pub class: u32,
    /// Source authorizations covering every node of this class, in
    /// policy-base order.
    pub auths: Vec<&'a Authorization>,
    /// The class's first node in document order: a class only exists
    /// because at least one node landed in it.
    pub first_node: NodeId,
}

/// One attribute of a compiled document that some authorization's path
/// selects: the `(node, attribute)` pair, the equivalence class of the
/// owning element, and the source authorizations that address the
/// attribute itself (in policy-base order). An attribute decision merges
/// these with the owning element's class.
#[derive(Debug, Clone)]
pub struct AttrView<'a> {
    /// The element carrying the attribute.
    pub node: NodeId,
    /// The attribute name.
    pub attribute: &'a str,
    /// Class index of `node` within the document.
    pub class: u32,
    /// Source authorizations selecting this attribute, in policy-base
    /// order. Non-empty by construction.
    pub auths: Vec<&'a Authorization>,
}

impl CompiledPolicies {
    /// Names of every compiled document, sorted, so analyzer passes
    /// iterate the plane in a deterministic order.
    pub fn document_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.docs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Equivalence classes of `doc` with their covering source
    /// authorizations, or `None` when the document is not compiled.
    pub fn classes_of(&self, doc: &str) -> Option<Vec<ClassView<'_>>> {
        let cd = self.docs.get(doc)?;
        Some(
            cd.classes
                .iter()
                .zip(&cd.class_first)
                .enumerate()
                .map(|(class, (locals, &first))| ClassView {
                    class: class as u32,
                    auths: locals
                        .iter()
                        .map(|&l| &*self.source[cd.local_auths[l as usize] as usize])
                        .collect(),
                    first_node: cd.node_ids[first as usize],
                })
                .collect(),
        )
    }

    /// Each live node of `doc` with its class index, in document order, or
    /// `None` when the document is not compiled. Every live node has
    /// exactly one class.
    pub fn node_classes(&self, doc: &str) -> Option<impl Iterator<Item = (NodeId, u32)> + '_> {
        let cd = self.docs.get(doc)?;
        Some(
            cd.node_ids
                .iter()
                .copied()
                .zip(cd.node_class.iter().copied()),
        )
    }

    /// Attribute-specific coverage of `doc`, one entry per selected
    /// `(node, attribute)` pair in the tables' order (owning node's
    /// document position, then attribute), or `None` when the document
    /// is not compiled.
    pub fn attrs_of(&self, doc: &str) -> Option<Vec<AttrView<'_>>> {
        let cd = self.docs.get(doc)?;
        Some(
            cd.attr_entries
                .iter()
                .map(|entry| AttrView {
                    node: cd.node_ids[entry.node_pos as usize],
                    attribute: self.attrs.resolve(entry.attr_sym),
                    class: cd.node_class[entry.node_pos as usize],
                    auths: entry
                        .auths
                        .iter()
                        .map(|&l| &*self.source[cd.local_auths[l as usize] as usize])
                        .collect(),
                })
                .collect(),
        )
    }

    /// Ids of every authorization that covers at least one node *or*
    /// attribute of `doc` (the liveness oracle for WS015), or `None`
    /// when the document is not compiled.
    pub fn covered_auth_ids(&self, doc: &str) -> Option<BTreeSet<AuthzId>> {
        let cd = self.docs.get(doc)?;
        let classes = cd.classes.iter().flatten();
        let attributes = cd.attr_entries.iter().flat_map(|entry| &entry.auths);
        Some(
            classes
                .chain(attributes)
                .map(|&l| self.auths[cd.local_auths[l as usize] as usize].id)
                .collect(),
        )
    }

    /// The source policy base this artifact was compiled from, in
    /// policy-base order: the very rules the policy base holds.
    pub fn source_authorizations(&self) -> &[Arc<Authorization>] {
        &self.source
    }

    /// The role hierarchy the artifact was compiled with.
    pub fn hierarchy(&self) -> &RoleHierarchy {
        &self.hierarchy
    }

    /// The resolution key [`crate::conflict::ConflictStrategy`] compares
    /// when two relevant authorizations of opposite sign cover the same
    /// node: subject specificity under `MostSpecificSubject`, object
    /// granularity under `MostSpecificObject`, explicit priority under
    /// `ExplicitPriority`, and a constant for the precedence strategies
    /// (every pair ties; the sign rule alone decides).
    pub fn resolution_key(&self, auth: &Authorization) -> i64 {
        match self.strategy {
            ConflictStrategy::MostSpecificSubject => i64::from(auth.subject.specificity()),
            ConflictStrategy::MostSpecificObject => i64::from(auth.object.granularity()),
            ConflictStrategy::ExplicitPriority => i64::from(auth.priority),
            ConflictStrategy::DenialsTakePrecedence
            | ConflictStrategy::PermissionsTakePrecedence => 0,
        }
    }

    /// Whether the active strategy compares a per-authorization key at
    /// all (key ties under these strategies make a grant/deny overlap
    /// genuinely ambiguous rather than resolved by the sign rule).
    pub fn strategy_is_keyed(&self) -> bool {
        matches!(
            self.strategy,
            ConflictStrategy::MostSpecificSubject
                | ConflictStrategy::MostSpecificObject
                | ConflictStrategy::ExplicitPriority
        )
    }
}
