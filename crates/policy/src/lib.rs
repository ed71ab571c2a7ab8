//! # websec-policy
//!
//! Credential- and role-based access control for web databases, after §3.1 of
//! the paper: "traditional identity-based mechanisms for performing access
//! control are not enough. Rather a more flexible way of qualifying subjects
//! is needed, for instance based on the notion of role or credential."
//!
//! The model follows the Author-X line of work the paper cites:
//!
//! * **Subjects** ([`subject`]) are qualified by identity, by roles arranged
//!   in a hierarchy, and by issuer-signed **credentials** — typed attribute
//!   bundles evaluated by a small expression language.
//! * **Authorizations** ([`authz`]) pair a subject specification with an
//!   object specification at any granularity: all documents, one document, a
//!   collection, or a path-selected portion down to single attributes; they
//!   carry a sign (permission/denial) and a propagation mode.
//! * The **engine** ([`engine`]) evaluates a policy base over a document,
//!   resolves conflicts ([`conflict`]) and produces per-node decisions and
//!   Author-X style **views** (the authorized pruning of a document).
//! * [`admin`] adds System-R-style decentralized administration: owners
//!   and delegated administrators are the only subjects who may change the
//!   policy base for a document.
//! * [`mls`] adds multilevel labels with context-dependent declassification
//!   ("one could declassify an RDF document, once the war is over", §5).
//! * [`flexible`] implements the paper's closing idea of a tunable
//!   enforcement level ("during some situations we may need one hundred
//!   percent security while during some other situations say thirty percent
//!   security may be sufficient").

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admin;
pub mod authz;
pub mod compiled;
pub mod compiled_view;
pub mod conflict;
pub mod engine;
pub mod flexible;
pub mod mls;
pub mod subject;

pub use admin::{AdminError, AdministeredStore};
pub use authz::{
    Authorization, AuthorizationBuilder, AuthzId, ObjectSpec, Privilege, Propagation, Sign,
    SubjectSpec,
};
pub use compiled::{CompileStats, CompiledPolicies, PolicySnapshot};
pub use compiled_view::{AttrView, ClassView};
pub use conflict::ConflictStrategy;
pub use engine::{
    shared_rule_positions, AccessDecision, CoveredNodes, DocumentDecision, PolicyEngine,
    PolicyStore,
};
pub use flexible::{FlexibleEnforcer, InvalidLevel};
pub use mls::{Clearance, Level, SecurityContext};
pub use subject::{
    AttrValue, Credential, CredentialExpr, CredentialIssuer, Role, RoleHierarchy, SubjectProfile,
};
