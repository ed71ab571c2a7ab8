//! Authorizations: subject spec × object spec × privilege × sign × propagation.
//!
//! Object specifications realize the paper's "wide spectrum of access
//! granularity levels, ranging from sets of documents, to single documents,
//! to specific portions within a document", including content-dependent
//! policies (path predicates) and content-independent ones (plain paths).

use crate::subject::{CredentialExpr, Role, RoleHierarchy, SubjectProfile};
use websec_xml::Path;

/// Identifier of an authorization within a policy base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AuthzId(pub u32);

/// Who an authorization applies to.
#[derive(Debug, Clone)]
pub enum SubjectSpec {
    /// Every subject (public access).
    Anyone,
    /// A specific authenticated identity.
    Identity(String),
    /// Subjects activating the role (or a senior role).
    InRole(Role),
    /// Subjects whose credentials satisfy the expression.
    WithCredentials(CredentialExpr),
}

impl SubjectSpec {
    /// Does `profile` match this specification?
    #[must_use]
    pub fn matches(&self, profile: &SubjectProfile, hierarchy: &RoleHierarchy) -> bool {
        match self {
            SubjectSpec::Anyone => true,
            SubjectSpec::Identity(id) => &profile.identity == id,
            SubjectSpec::InRole(role) => profile.activates(role, hierarchy),
            SubjectSpec::WithCredentials(expr) => expr.eval(&profile.credentials),
        }
    }

    /// Specificity rank used by the most-specific-subject conflict strategy:
    /// identity (3) > credentials (2) > role (1) > anyone (0).
    #[must_use]
    pub fn specificity(&self) -> u8 {
        match self {
            SubjectSpec::Anyone => 0,
            SubjectSpec::InRole(_) => 1,
            SubjectSpec::WithCredentials(_) => 2,
            SubjectSpec::Identity(_) => 3,
        }
    }
}

/// What an authorization applies to.
#[derive(Debug, Clone)]
pub enum ObjectSpec {
    /// Every document in the store.
    AllDocuments,
    /// One named document, whole.
    Document(String),
    /// A named collection of documents, whole.
    Collection(String),
    /// A path-selected portion of one named document.
    Portion {
        /// Document name.
        document: String,
        /// Selecting path (may target attributes).
        path: Path,
    },
    /// A path-selected portion of every document.
    PortionAll(Path),
}

impl ObjectSpec {
    /// Granularity rank used by the most-specific-object strategy:
    /// portion (3) > document (2) > collection (1) > all (0).
    #[must_use]
    pub fn granularity(&self) -> u8 {
        match self {
            ObjectSpec::AllDocuments => 0,
            ObjectSpec::Collection(_) => 1,
            ObjectSpec::Document(_) => 2,
            ObjectSpec::Portion { .. } | ObjectSpec::PortionAll(_) => 3,
        }
    }
}

/// Access privileges. `Admin` implies `Write` implies `Read`; `Browse`
/// (following links / listing structure without content) is implied by
/// `Read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Privilege {
    /// See structure only.
    Browse,
    /// Read content.
    Read,
    /// Modify content.
    Write,
    /// Administer policies for the object.
    Admin,
}

impl Privilege {
    /// True when holding `self` implies holding `other`.
    #[must_use]
    pub fn implies(self, other: Privilege) -> bool {
        self >= other
    }
}

/// Permission or denial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// Grants the privilege.
    Plus,
    /// Denies the privilege.
    Minus,
}

/// How far an authorization on an element extends into its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Propagation {
    /// Only the selected nodes.
    None,
    /// Selected nodes and their direct children.
    FirstLevel,
    /// The whole subtree (default for document-granularity objects).
    Cascade,
}

/// A complete authorization rule.
#[derive(Debug, Clone)]
pub struct Authorization {
    /// Identifier within the policy base.
    pub id: AuthzId,
    /// Who.
    pub subject: SubjectSpec,
    /// What.
    pub object: ObjectSpec,
    /// Which privilege.
    pub privilege: Privilege,
    /// Grant or deny.
    pub sign: Sign,
    /// Subtree extension.
    pub propagation: Propagation,
    /// Explicit priority (higher wins) for the explicit-priority strategy.
    pub priority: i32,
}

impl Authorization {
    /// Starts building an authorization for the given subject. The
    /// builder reads as the paper's tuple does —
    /// `Authorization::for_subject(s).on(o).privilege(p).grant()` — and
    /// replaces the old positional four-argument constructors, whose
    /// `(id, subject, object, privilege)` order was a recurring source
    /// of transposition bugs.
    #[must_use]
    pub fn for_subject(subject: SubjectSpec) -> AuthorizationBuilder {
        AuthorizationBuilder {
            id: 0,
            subject,
            object: None,
            privilege: None,
            propagation: Propagation::Cascade,
            priority: 0,
        }
    }

    /// Overrides the propagation mode (builder style).
    #[must_use]
    pub fn with_propagation(mut self, propagation: Propagation) -> Self {
        self.propagation = propagation;
        self
    }

    /// Overrides the priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

/// Builder returned by [`Authorization::for_subject`]. Set the object
/// with [`Self::on`] and the privilege with [`Self::privilege`], then
/// finish with [`Self::grant`], [`Self::deny`] or [`Self::sign`].
///
/// The terminal methods **panic** if the object or privilege was never
/// set — an authorization without either is a programming error, not a
/// runtime condition.
#[derive(Debug, Clone)]
pub struct AuthorizationBuilder {
    id: u32,
    subject: SubjectSpec,
    object: Option<ObjectSpec>,
    privilege: Option<Privilege>,
    propagation: Propagation,
    priority: i32,
}

impl AuthorizationBuilder {
    /// Sets the protected object.
    #[must_use]
    pub fn on(mut self, object: ObjectSpec) -> Self {
        self.object = Some(object);
        self
    }

    /// Sets the privilege.
    #[must_use]
    pub fn privilege(mut self, privilege: Privilege) -> Self {
        self.privilege = Some(privilege);
        self
    }

    /// Sets an explicit identifier. Rarely needed: [`PolicyStore::add`]
    /// assigns sequential ids, overwriting whatever is set here.
    ///
    /// [`PolicyStore::add`]: crate::engine::PolicyStore::add
    #[must_use]
    pub fn id(mut self, id: u32) -> Self {
        self.id = id;
        self
    }

    /// Overrides the propagation mode (default [`Propagation::Cascade`]).
    #[must_use]
    pub fn propagation(mut self, propagation: Propagation) -> Self {
        self.propagation = propagation;
        self
    }

    /// Overrides the priority (default 0).
    #[must_use]
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Finishes as a permission.
    #[must_use]
    pub fn grant(self) -> Authorization {
        self.sign(Sign::Plus)
    }

    /// Finishes as a denial.
    #[must_use]
    pub fn deny(self) -> Authorization {
        self.sign(Sign::Minus)
    }

    /// Finishes with an explicit sign.
    ///
    /// # Panics
    /// If [`Self::on`] or [`Self::privilege`] was never called.
    #[must_use]
    pub fn sign(self, sign: Sign) -> Authorization {
        Authorization {
            id: AuthzId(self.id),
            subject: self.subject,
            object: self.object.expect("AuthorizationBuilder: object not set"),
            privilege: self
                .privilege
                .expect("AuthorizationBuilder: privilege not set"),
            sign,
            propagation: self.propagation,
            priority: self.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::Credential;

    #[test]
    fn privilege_implication() {
        assert!(Privilege::Admin.implies(Privilege::Write));
        assert!(Privilege::Write.implies(Privilege::Read));
        assert!(Privilege::Read.implies(Privilege::Browse));
        assert!(!Privilege::Browse.implies(Privilege::Read));
        assert!(!Privilege::Read.implies(Privilege::Write));
        assert!(Privilege::Read.implies(Privilege::Read));
    }

    #[test]
    fn subject_spec_matching() {
        let h = RoleHierarchy::new();
        let profile = SubjectProfile::new("alice")
            .with_role(Role::new("doctor"))
            .with_credential(Credential::new("physician", "alice"));

        assert!(SubjectSpec::Anyone.matches(&profile, &h));
        assert!(SubjectSpec::Identity("alice".into()).matches(&profile, &h));
        assert!(!SubjectSpec::Identity("bob".into()).matches(&profile, &h));
        assert!(SubjectSpec::InRole(Role::new("doctor")).matches(&profile, &h));
        assert!(!SubjectSpec::InRole(Role::new("admin")).matches(&profile, &h));
        assert!(
            SubjectSpec::WithCredentials(CredentialExpr::OfType("physician".into()))
                .matches(&profile, &h)
        );
    }

    #[test]
    fn specificity_ordering() {
        assert!(
            SubjectSpec::Identity("a".into()).specificity()
                > SubjectSpec::WithCredentials(CredentialExpr::HasAttr("x".into())).specificity()
        );
        assert!(
            SubjectSpec::InRole(Role::new("r")).specificity() > SubjectSpec::Anyone.specificity()
        );
    }

    #[test]
    fn granularity_ordering() {
        let portion = ObjectSpec::Portion {
            document: "d".into(),
            path: Path::parse("/a").unwrap(),
        };
        assert!(portion.granularity() > ObjectSpec::Document("d".into()).granularity());
        assert!(
            ObjectSpec::Document("d".into()).granularity()
                > ObjectSpec::Collection("c".into()).granularity()
        );
        assert!(
            ObjectSpec::Collection("c".into()).granularity()
                > ObjectSpec::AllDocuments.granularity()
        );
    }

    #[test]
    fn builders() {
        let a = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(1)
            .grant()
            .with_propagation(Propagation::None)
            .with_priority(5);
        assert_eq!(a.sign, Sign::Plus);
        assert_eq!(a.propagation, Propagation::None);
        assert_eq!(a.priority, 5);
        let d = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(2)
            .deny();
        assert_eq!(d.sign, Sign::Minus);
    }
}
