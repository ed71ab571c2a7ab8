//! Subjects: identities, roles and signed credentials.
//!
//! The web population is "greater and more dynamic than the one accessing
//! conventional DBMSs" (§3.1), so subjects are qualified three ways:
//!
//! * a plain **identity** string (the legacy System-R style mechanism);
//! * **roles** with a seniority hierarchy (senior roles inherit the
//!   authorizations of the roles they dominate);
//! * **credentials**: typed attribute bundles signed by an issuer, matched by
//!   policies through the [`CredentialExpr`] predicate language — the
//!   Author-X subject model.

use std::collections::{BTreeMap, BTreeSet};
use websec_crypto::sig::{self, Keypair, PublicKey, SignError, Signature};
use websec_crypto::SecureRng;

/// A credential attribute value: string or integer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttrValue {
    /// Free-text value.
    Str(String),
    /// Integer value (ages, years of service, ...).
    Int(i64),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Int(i) => write!(f, "{i}"),
        }
    }
}

/// An issuer-signed credential: a named type (e.g. `physician`) plus typed
/// attributes, bound to a holder identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Credential {
    /// Credential type, e.g. `"physician"` or `"insurance_agent"`.
    pub ctype: String,
    /// Identity of the holder.
    pub holder: String,
    /// Attribute map.
    pub attributes: BTreeMap<String, AttrValue>,
    /// Issuer name (key lookup handle).
    pub issuer: String,
    /// Issuer signature over [`Credential::canonical_bytes`].
    pub signature: Option<Signature>,
}

impl Credential {
    /// Creates an unsigned credential.
    #[must_use]
    pub fn new(ctype: &str, holder: &str) -> Self {
        Credential {
            ctype: ctype.to_string(),
            holder: holder.to_string(),
            attributes: BTreeMap::new(),
            issuer: String::new(),
            signature: None,
        }
    }

    /// Adds an attribute (builder style).
    #[must_use]
    pub fn with_attr(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.attributes.insert(name.to_string(), value.into());
        self
    }

    /// Looks up an attribute.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attributes.get(name)
    }

    /// Canonical byte encoding covered by the issuer signature: type, holder,
    /// issuer and sorted attributes, length-prefixed to prevent splicing.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut push = |s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        push(&self.ctype);
        push(&self.holder);
        push(&self.issuer);
        for (k, v) in &self.attributes {
            push(k);
            match v {
                AttrValue::Str(s) => {
                    push("s");
                    push(s);
                }
                AttrValue::Int(i) => {
                    push("i");
                    push(&i.to_string());
                }
            }
        }
        out
    }
}

/// A credential issuer: a named signing authority.
pub struct CredentialIssuer {
    name: String,
    keypair: Keypair,
}

impl CredentialIssuer {
    /// Creates an issuer able to sign `2^height` credentials.
    #[must_use]
    pub fn new(name: &str, rng: &mut SecureRng, height: u32) -> Self {
        CredentialIssuer {
            name: name.to_string(),
            keypair: Keypair::generate(rng, height),
        }
    }

    /// The issuer's verification key.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// The issuer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Signs `credential`, stamping this issuer's name into it.
    pub fn issue(&mut self, mut credential: Credential) -> Result<Credential, SignError> {
        credential.issuer = self.name.clone();
        let bytes = credential.canonical_bytes();
        credential.signature = Some(self.keypair.sign(&bytes)?);
        Ok(credential)
    }
}

/// Verifies a credential against the issuer's public key.
#[must_use]
pub fn verify_credential(credential: &Credential, issuer_key: &PublicKey) -> bool {
    match &credential.signature {
        Some(sig) => sig::verify(issuer_key, &credential.canonical_bytes(), sig),
        None => false,
    }
}

/// Predicate language over a subject's credentials.
///
/// Expressions are evaluated against every credential the subject holds; the
/// subject satisfies the expression if *some* credential does (except for
/// [`CredentialExpr::Not`], which requires that *no* credential satisfies the
/// inner expression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CredentialExpr {
    /// Subject holds a credential of this type.
    OfType(String),
    /// Attribute equals the value.
    AttrEq(String, AttrValue),
    /// Integer attribute is ≥ the bound.
    AttrGe(String, i64),
    /// Integer attribute is ≤ the bound.
    AttrLe(String, i64),
    /// Attribute is present, any value.
    HasAttr(String),
    /// Both sub-expressions hold (possibly via different credentials).
    And(Box<CredentialExpr>, Box<CredentialExpr>),
    /// Either sub-expression holds.
    Or(Box<CredentialExpr>, Box<CredentialExpr>),
    /// The sub-expression does not hold.
    Not(Box<CredentialExpr>),
}

impl CredentialExpr {
    /// Convenience conjunction.
    #[must_use]
    pub fn and(self, other: CredentialExpr) -> CredentialExpr {
        CredentialExpr::And(Box::new(self), Box::new(other))
    }

    /// Convenience disjunction.
    #[must_use]
    pub fn or(self, other: CredentialExpr) -> CredentialExpr {
        CredentialExpr::Or(Box::new(self), Box::new(other))
    }

    /// Convenience negation.
    #[must_use]
    pub fn negate(self) -> CredentialExpr {
        CredentialExpr::Not(Box::new(self))
    }

    /// Evaluates the expression over a credential set.
    #[must_use]
    pub fn eval(&self, credentials: &[Credential]) -> bool {
        match self {
            CredentialExpr::OfType(t) => credentials.iter().any(|c| &c.ctype == t),
            CredentialExpr::AttrEq(name, want) => credentials
                .iter()
                .any(|c| c.attr(name).is_some_and(|v| v == want)),
            CredentialExpr::AttrGe(name, bound) => credentials
                .iter()
                .any(|c| matches!(c.attr(name), Some(AttrValue::Int(v)) if v >= bound)),
            CredentialExpr::AttrLe(name, bound) => credentials
                .iter()
                .any(|c| matches!(c.attr(name), Some(AttrValue::Int(v)) if v <= bound)),
            CredentialExpr::HasAttr(name) => credentials.iter().any(|c| c.attr(name).is_some()),
            CredentialExpr::And(a, b) => a.eval(credentials) && b.eval(credentials),
            CredentialExpr::Or(a, b) => a.eval(credentials) || b.eval(credentials),
            CredentialExpr::Not(e) => !e.eval(credentials),
        }
    }
}

/// A role name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Role(pub String);

impl Role {
    /// Creates a role from a name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Role(name.to_string())
    }
}

/// A role hierarchy: `senior ⊒ junior` edges with transitive closure.
///
/// An authorization granted to a role applies to every subject activating
/// that role *or any senior of it*.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RoleHierarchy {
    /// senior → direct juniors.
    juniors: BTreeMap<Role, BTreeSet<Role>>,
}

impl RoleHierarchy {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `senior` to dominate `junior`.
    ///
    /// # Panics
    /// Panics if the edge would create a cycle.
    pub fn add_seniority(&mut self, senior: Role, junior: Role) {
        assert!(
            senior != junior && !self.dominates(&junior, &senior),
            "seniority edge {senior:?} -> {junior:?} would create a cycle"
        );
        self.juniors.entry(senior).or_default().insert(junior);
    }

    /// True when `senior` dominates `junior` (reflexive, transitive).
    #[must_use]
    pub fn dominates(&self, senior: &Role, junior: &Role) -> bool {
        if senior == junior {
            return true;
        }
        let mut stack = vec![senior.clone()];
        let mut seen = BTreeSet::new();
        while let Some(r) = stack.pop() {
            if !seen.insert(r.clone()) {
                continue;
            }
            if let Some(js) = self.juniors.get(&r) {
                if js.contains(junior) {
                    return true;
                }
                stack.extend(js.iter().cloned());
            }
        }
        false
    }

    /// Every role mentioned by a seniority edge, sorted.
    #[must_use]
    pub fn roles(&self) -> BTreeSet<Role> {
        let mut out = BTreeSet::new();
        for (senior, juniors) in &self.juniors {
            out.insert(senior.clone());
            out.extend(juniors.iter().cloned());
        }
        out
    }

    /// The direct `(senior, junior)` edges, sorted (read-only view for
    /// static analysis).
    #[must_use]
    pub fn seniority_pairs(&self) -> Vec<(&Role, &Role)> {
        let mut out = Vec::new();
        for (senior, juniors) in &self.juniors {
            for junior in juniors {
                out.push((senior, junior));
            }
        }
        out
    }

    /// All roles dominated by `role` (including itself).
    #[must_use]
    pub fn dominated_by(&self, role: &Role) -> BTreeSet<Role> {
        let mut out = BTreeSet::new();
        let mut stack = vec![role.clone()];
        while let Some(r) = stack.pop() {
            if !out.insert(r.clone()) {
                continue;
            }
            if let Some(js) = self.juniors.get(&r) {
                stack.extend(js.iter().cloned());
            }
        }
        out
    }
}

/// Everything known about a requesting subject at evaluation time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectProfile {
    /// Authenticated identity.
    pub identity: String,
    /// Activated roles.
    pub roles: Vec<Role>,
    /// Held (and, where required, verified) credentials.
    pub credentials: Vec<Credential>,
}

impl SubjectProfile {
    /// Creates a profile for `identity` with no roles or credentials.
    #[must_use]
    pub fn new(identity: &str) -> Self {
        SubjectProfile {
            identity: identity.to_string(),
            roles: Vec::new(),
            credentials: Vec::new(),
        }
    }

    /// Adds an activated role (builder style).
    #[must_use]
    pub fn with_role(mut self, role: Role) -> Self {
        self.roles.push(role);
        self
    }

    /// Adds a credential (builder style).
    #[must_use]
    pub fn with_credential(mut self, credential: Credential) -> Self {
        self.credentials.push(credential);
        self
    }

    /// True when the profile activates `role` or any role senior to it.
    #[must_use]
    pub fn activates(&self, role: &Role, hierarchy: &RoleHierarchy) -> bool {
        self.roles.iter().any(|r| hierarchy.dominates(r, role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credential_attrs() {
        let c = Credential::new("physician", "alice")
            .with_attr("department", "oncology")
            .with_attr("years", 12i64);
        assert_eq!(
            c.attr("department"),
            Some(&AttrValue::Str("oncology".into()))
        );
        assert_eq!(c.attr("years"), Some(&AttrValue::Int(12)));
        assert_eq!(c.attr("missing"), None);
    }

    #[test]
    fn canonical_bytes_change_with_content() {
        let a = Credential::new("t", "h").with_attr("a", 1i64);
        let b = Credential::new("t", "h").with_attr("a", 2i64);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_resist_splicing() {
        // ("ab","c") must encode differently from ("a","bc").
        let a = Credential::new("ab", "c");
        let b = Credential::new("a", "bc");
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn issue_and_verify() {
        let mut rng = SecureRng::seeded(1);
        let mut issuer = CredentialIssuer::new("hospital-ca", &mut rng, 2);
        let cred = issuer
            .issue(Credential::new("physician", "alice").with_attr("years", 5i64))
            .unwrap();
        assert_eq!(cred.issuer, "hospital-ca");
        assert!(verify_credential(&cred, &issuer.public_key()));
    }

    #[test]
    fn tampered_credential_rejected() {
        let mut rng = SecureRng::seeded(2);
        let mut issuer = CredentialIssuer::new("ca", &mut rng, 2);
        let mut cred = issuer
            .issue(Credential::new("physician", "alice").with_attr("years", 5i64))
            .unwrap();
        cred.attributes
            .insert("years".to_string(), AttrValue::Int(50));
        assert!(!verify_credential(&cred, &issuer.public_key()));
    }

    #[test]
    fn unsigned_credential_rejected() {
        let mut rng = SecureRng::seeded(3);
        let issuer = CredentialIssuer::new("ca", &mut rng, 1);
        let cred = Credential::new("physician", "alice");
        assert!(!verify_credential(&cred, &issuer.public_key()));
    }

    #[test]
    fn wrong_issuer_rejected() {
        let mut rng = SecureRng::seeded(4);
        let mut ca1 = CredentialIssuer::new("ca1", &mut rng, 1);
        let ca2 = CredentialIssuer::new("ca2", &mut rng, 1);
        let cred = ca1.issue(Credential::new("t", "h")).unwrap();
        assert!(!verify_credential(&cred, &ca2.public_key()));
    }

    fn creds() -> Vec<Credential> {
        vec![
            Credential::new("physician", "alice")
                .with_attr("department", "oncology")
                .with_attr("years", 12i64),
            Credential::new("researcher", "alice").with_attr("clearance", "irb"),
        ]
    }

    #[test]
    fn expr_of_type() {
        assert!(CredentialExpr::OfType("physician".into()).eval(&creds()));
        assert!(!CredentialExpr::OfType("nurse".into()).eval(&creds()));
    }

    #[test]
    fn expr_attr_comparisons() {
        let cs = creds();
        assert!(CredentialExpr::AttrEq("department".into(), "oncology".into()).eval(&cs));
        assert!(!CredentialExpr::AttrEq("department".into(), "cardiology".into()).eval(&cs));
        assert!(CredentialExpr::AttrGe("years".into(), 10).eval(&cs));
        assert!(!CredentialExpr::AttrGe("years".into(), 13).eval(&cs));
        assert!(CredentialExpr::AttrLe("years".into(), 12).eval(&cs));
        assert!(CredentialExpr::HasAttr("clearance".into()).eval(&cs));
        // Ge on a string attribute never matches.
        assert!(!CredentialExpr::AttrGe("department".into(), 0).eval(&cs));
    }

    #[test]
    fn expr_boolean_combinators() {
        let cs = creds();
        let physician = CredentialExpr::OfType("physician".into());
        let nurse = CredentialExpr::OfType("nurse".into());
        assert!(physician
            .clone()
            .and(CredentialExpr::HasAttr("clearance".into()))
            .eval(&cs));
        assert!(physician.clone().or(nurse.clone()).eval(&cs));
        assert!(!nurse.clone().eval(&cs));
        assert!(nurse.negate().eval(&cs));
    }

    #[test]
    fn role_hierarchy_dominance() {
        let mut h = RoleHierarchy::new();
        let chief = Role::new("chief");
        let doctor = Role::new("doctor");
        let intern = Role::new("intern");
        h.add_seniority(chief.clone(), doctor.clone());
        h.add_seniority(doctor.clone(), intern.clone());
        assert!(h.dominates(&chief, &intern)); // transitive
        assert!(h.dominates(&doctor, &intern));
        assert!(h.dominates(&intern, &intern)); // reflexive
        assert!(!h.dominates(&intern, &chief));
        assert_eq!(h.dominated_by(&chief).len(), 3);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn role_hierarchy_rejects_cycle() {
        let mut h = RoleHierarchy::new();
        let a = Role::new("a");
        let b = Role::new("b");
        h.add_seniority(a.clone(), b.clone());
        h.add_seniority(b, a);
    }

    #[test]
    fn profile_activation() {
        let mut h = RoleHierarchy::new();
        let chief = Role::new("chief");
        let doctor = Role::new("doctor");
        h.add_seniority(chief.clone(), doctor.clone());
        let profile = SubjectProfile::new("alice").with_role(chief.clone());
        assert!(profile.activates(&doctor, &h)); // senior activates junior's grants
        assert!(profile.activates(&chief, &h));
        let junior_profile = SubjectProfile::new("bob").with_role(doctor);
        assert!(!junior_profile.activates(&chief, &h));
    }
}
