//! Administration of the policy base: ownership and delegated granting.
//!
//! The paper's §3.1 starting point is the System R model, whose defining
//! feature is *decentralized administration*: owners administer their
//! objects and may delegate that right. [`AdministeredStore`] wraps a
//! [`PolicyStore`] so that every policy change is itself access-controlled:
//! the owner of a document may always administer it; other subjects may do
//! so only under an admin delegation (optionally re-delegable, the
//! GRANT-OPTION analogue).

use crate::authz::{Authorization, AuthzId, ObjectSpec};
use crate::engine::PolicyStore;
use crate::subject::{RoleHierarchy, SubjectProfile};
use std::collections::BTreeMap;

/// Why an administrative action was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminError {
    /// The actor has no administrative right over the target document(s).
    NotAuthorized {
        /// The first document the actor may not administer.
        document: String,
    },
    /// The authorization id does not exist.
    UnknownAuthorization,
    /// Only per-document objects can be administered by non-owners
    /// (AllDocuments-scoped rules need every-document rights).
    UnadministrableObject,
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::NotAuthorized { document } => {
                write!(f, "no administrative right over '{document}'")
            }
            AdminError::UnknownAuthorization => write!(f, "unknown authorization"),
            AdminError::UnadministrableObject => {
                write!(f, "object spec spans documents the actor cannot administer")
            }
        }
    }
}

impl std::error::Error for AdminError {}

/// An admin delegation: `delegate` may administer `document`; with
/// `grant_option` they may delegate further.
#[derive(Debug, Clone)]
struct Delegation {
    document: String,
    delegate: String,
    grant_option: bool,
}

/// A policy store with administration control.
pub struct AdministeredStore {
    /// The underlying policy base.
    pub store: PolicyStore,
    owners: BTreeMap<String, String>,
    delegations: Vec<Delegation>,
    /// Which actor added each authorization (audit + revoke-by-granter).
    granted_by: BTreeMap<AuthzId, String>,
}

impl AdministeredStore {
    /// Creates an empty administered store.
    #[must_use]
    pub fn new() -> Self {
        AdministeredStore {
            store: PolicyStore::new(),
            owners: BTreeMap::new(),
            delegations: Vec::new(),
            granted_by: BTreeMap::new(),
        }
    }

    /// Registers `owner` as the owner of `document`.
    pub fn register_owner(&mut self, document: &str, owner: &str) {
        self.owners.insert(document.to_string(), owner.to_string());
    }

    /// May `actor` administer `document`?
    #[must_use]
    pub fn can_administer(&self, actor: &str, document: &str) -> bool {
        if self.owners.get(document).is_some_and(|o| o == actor) {
            return true;
        }
        self.delegations
            .iter()
            .any(|d| d.document == document && d.delegate == actor)
    }

    /// May `actor` *delegate* administration of `document`?
    #[must_use]
    pub fn can_delegate(&self, actor: &str, document: &str) -> bool {
        if self.owners.get(document).is_some_and(|o| o == actor) {
            return true;
        }
        self.delegations
            .iter()
            .any(|d| d.document == document && d.delegate == actor && d.grant_option)
    }

    /// Delegates administration of `document` from `actor` to `delegate`.
    pub fn delegate_admin(
        &mut self,
        actor: &str,
        document: &str,
        delegate: &str,
        grant_option: bool,
    ) -> Result<(), AdminError> {
        if !self.can_delegate(actor, document) {
            return Err(AdminError::NotAuthorized {
                document: document.to_string(),
            });
        }
        self.delegations.push(Delegation {
            document: document.to_string(),
            delegate: delegate.to_string(),
            grant_option,
        });
        Ok(())
    }

    /// The documents an object spec touches, when administrable.
    fn target_documents(object: &ObjectSpec) -> Result<Vec<String>, AdminError> {
        match object {
            ObjectSpec::Document(d) => Ok(vec![d.clone()]),
            ObjectSpec::Portion { document, .. } => Ok(vec![document.clone()]),
            ObjectSpec::AllDocuments | ObjectSpec::Collection(_) | ObjectSpec::PortionAll(_) => {
                Err(AdminError::UnadministrableObject)
            }
        }
    }

    /// Adds an authorization on behalf of `actor`, checking administrative
    /// rights over every target document.
    pub fn try_add(
        &mut self,
        actor: &SubjectProfile,
        authorization: Authorization,
    ) -> Result<AuthzId, AdminError> {
        for document in Self::target_documents(&authorization.object)? {
            if !self.can_administer(&actor.identity, &document) {
                return Err(AdminError::NotAuthorized { document });
            }
        }
        let id = self.store.add(authorization);
        self.granted_by.insert(id, actor.identity.clone());
        Ok(id)
    }

    /// Revokes an authorization on behalf of `actor`: allowed for the
    /// original granter and for anyone administering the target.
    pub fn try_revoke(&mut self, actor: &SubjectProfile, id: AuthzId) -> Result<(), AdminError> {
        let Some(auth) = self.store.get(id) else {
            return Err(AdminError::UnknownAuthorization);
        };
        let documents = Self::target_documents(&auth.object)?;
        let is_granter = self
            .granted_by
            .get(&id)
            .is_some_and(|g| g == &actor.identity);
        let administers_all = documents
            .iter()
            .all(|d| self.can_administer(&actor.identity, d));
        if !is_granter && !administers_all {
            return Err(AdminError::NotAuthorized {
                document: documents.into_iter().next().unwrap_or_default(),
            });
        }
        self.store.revoke(id);
        self.granted_by.remove(&id);
        Ok(())
    }

    /// Granter of an authorization (audit trail).
    #[must_use]
    pub fn granter(&self, id: AuthzId) -> Option<&str> {
        self.granted_by.get(&id).map(String::as_str)
    }

    /// Role hierarchy passthrough.
    pub fn hierarchy_mut(&mut self) -> &mut RoleHierarchy {
        &mut self.store.hierarchy
    }
}

impl Default for AdministeredStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{Privilege, SubjectSpec};

    fn grant_for(doc: &str) -> Authorization {
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document(doc.into()))
            .privilege(Privilege::Read)
            .grant()
    }

    #[test]
    fn owner_administers() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        let alice = SubjectProfile::new("alice");
        let id = admin.try_add(&alice, grant_for("h.xml")).unwrap();
        assert_eq!(admin.granter(id), Some("alice"));
        assert_eq!(admin.store.len(), 1);
    }

    #[test]
    fn non_owner_rejected() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        let mallory = SubjectProfile::new("mallory");
        let err = admin.try_add(&mallory, grant_for("h.xml")).unwrap_err();
        assert_eq!(
            err,
            AdminError::NotAuthorized {
                document: "h.xml".into()
            }
        );
        assert_eq!(admin.store.len(), 0);
    }

    #[test]
    fn delegation_enables_administration() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        admin
            .delegate_admin("alice", "h.xml", "bob", false)
            .unwrap();
        let bob = SubjectProfile::new("bob");
        assert!(admin.try_add(&bob, grant_for("h.xml")).is_ok());
        // Without grant option bob cannot re-delegate.
        assert!(admin
            .delegate_admin("bob", "h.xml", "carol", false)
            .is_err());
    }

    #[test]
    fn grant_option_chains() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        admin.delegate_admin("alice", "h.xml", "bob", true).unwrap();
        admin
            .delegate_admin("bob", "h.xml", "carol", false)
            .unwrap();
        let carol = SubjectProfile::new("carol");
        assert!(admin.try_add(&carol, grant_for("h.xml")).is_ok());
    }

    #[test]
    fn delegation_is_per_document() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("a.xml", "alice");
        admin.register_owner("b.xml", "alice");
        admin
            .delegate_admin("alice", "a.xml", "bob", false)
            .unwrap();
        let bob = SubjectProfile::new("bob");
        assert!(admin.try_add(&bob, grant_for("a.xml")).is_ok());
        assert!(admin.try_add(&bob, grant_for("b.xml")).is_err());
    }

    #[test]
    fn revoke_by_granter_or_admin() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        admin
            .delegate_admin("alice", "h.xml", "bob", false)
            .unwrap();
        let bob = SubjectProfile::new("bob");
        let alice = SubjectProfile::new("alice");
        let mallory = SubjectProfile::new("mallory");
        let id = admin.try_add(&bob, grant_for("h.xml")).unwrap();
        // A stranger cannot revoke.
        assert!(admin.try_revoke(&mallory, id).is_err());
        // The owner can revoke bob's grant.
        admin.try_revoke(&alice, id).unwrap();
        assert_eq!(admin.store.len(), 0);
        assert_eq!(
            admin.try_revoke(&alice, id).unwrap_err(),
            AdminError::UnknownAuthorization
        );
    }

    #[test]
    fn granter_can_revoke_own_grant() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        admin
            .delegate_admin("alice", "h.xml", "bob", false)
            .unwrap();
        let bob = SubjectProfile::new("bob");
        let id = admin.try_add(&bob, grant_for("h.xml")).unwrap();
        admin.try_revoke(&bob, id).unwrap();
        assert_eq!(admin.store.len(), 0);
    }

    #[test]
    fn global_objects_unadministrable_by_delegates() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        let alice = SubjectProfile::new("alice");
        let auth = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .grant();
        assert_eq!(
            admin.try_add(&alice, auth).unwrap_err(),
            AdminError::UnadministrableObject
        );
    }

    #[test]
    fn portion_objects_route_to_document_admin() {
        let mut admin = AdministeredStore::new();
        admin.register_owner("h.xml", "alice");
        let alice = SubjectProfile::new("alice");
        let auth = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Portion {
                document: "h.xml".into(),
                path: websec_xml::Path::parse("//patient").unwrap(),
            })
            .privilege(Privilege::Read)
            .grant();
        assert!(admin.try_add(&alice, auth).is_ok());
    }
}
