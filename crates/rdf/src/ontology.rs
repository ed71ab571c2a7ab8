//! Ontology-driven security (§3.2/§5 of the paper).
//!
//! "Ontologies may be expressed in RDF … access to the ontologies may
//! depend on the roles of the user, and/or on the credentials he or she may
//! possess. On the other hand, one could use ontologies to specify security
//! policies. That is, ontologies may help in securing the semantic web."
//! And in §5: "ontologies may have security levels attached to them."
//!
//! Two mechanisms over the RDFS machinery:
//!
//! * [`ClassAuthorization`] — authorizations scoped to *instances of an
//!   ontology class*, resolved through the RDFS closure: protecting
//!   `Patient` automatically protects every instance of its subclasses.
//! * [`ClassLabel`] — multilevel labels attached to classes; a triple's
//!   effective level includes the labels of every (entailed) class of its
//!   subject.

use crate::schema::Schema;
use crate::store::{rdf, PatternTerm, Triple, TriplePattern, TripleStore};
use crate::term::Term;
use std::collections::BTreeSet;
use websec_policy::mls::{ContextLabel, Level, SecurityContext};
use websec_policy::{RoleHierarchy, Sign, SubjectProfile, SubjectSpec};

/// Authorization over all instances of a class (closure-aware).
#[derive(Debug, Clone)]
pub struct ClassAuthorization {
    /// Who the rule applies to.
    pub subject: SubjectSpec,
    /// Instances of this class (or any of its subclasses) are covered.
    pub class: Term,
    /// Grant or deny.
    pub sign: Sign,
}

/// A multilevel label on an ontology class.
#[derive(Debug, Clone)]
pub struct ClassLabel {
    /// The labelled class.
    pub class: Term,
    /// Its context-dependent label.
    pub label: ContextLabel,
}

/// Ontology-security overlay for a triple store.
#[derive(Default)]
pub struct OntologyGuard {
    class_authorizations: Vec<ClassAuthorization>,
    class_labels: Vec<ClassLabel>,
    /// Role hierarchy for subject matching.
    pub hierarchy: RoleHierarchy,
}

impl OntologyGuard {
    /// Creates an empty overlay.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class-scoped authorization.
    pub fn add_authorization(&mut self, authorization: ClassAuthorization) {
        self.class_authorizations.push(authorization);
    }

    /// Attaches a label to a class.
    pub fn add_label(&mut self, label: ClassLabel) {
        self.class_labels.push(label);
    }

    /// All (entailed) classes of `resource` in `closure`.
    #[must_use]
    pub fn classes_of(closure: &TripleStore, resource: &Term) -> BTreeSet<Term> {
        closure
            .query(&TriplePattern::new(
                PatternTerm::Const(resource.clone()),
                PatternTerm::Const(Term::iri(rdf::TYPE)),
                PatternTerm::Any,
            ))
            .into_iter()
            .map(|t| t.o)
            .collect()
    }

    /// Effective level of `triple` from its subject's class labels: the
    /// maximum over all classes the subject (transitively) belongs to.
    #[must_use]
    pub fn triple_level(
        &self,
        closure: &TripleStore,
        triple: &Triple,
        context: &SecurityContext,
    ) -> Level {
        let classes = Self::classes_of(closure, &triple.s);
        self.class_labels
            .iter()
            .filter(|cl| classes.contains(&cl.class))
            .map(|cl| cl.label.effective(context))
            .max()
            .unwrap_or(Level::Unclassified)
    }

    /// Does the overlay allow `profile` to see `triple`? Open default;
    /// class-scoped denials take precedence over class-scoped grants.
    #[must_use]
    pub fn allows(&self, closure: &TripleStore, profile: &SubjectProfile, triple: &Triple) -> bool {
        let classes = Self::classes_of(closure, &triple.s);
        for auth in &self.class_authorizations {
            if auth.sign == Sign::Minus
                && auth.subject.matches(profile, &self.hierarchy)
                && classes.contains(&auth.class)
            {
                return false;
            }
        }
        true
    }

    /// Filters a query over `store` through the overlay: evaluates on the
    /// closure (semantic enforcement is the only sound mode for
    /// class-scoped rules) and applies class authorizations and labels.
    #[must_use]
    pub fn query(
        &self,
        store: &TripleStore,
        profile: &SubjectProfile,
        clearance: Level,
        context: &SecurityContext,
        pattern: &TriplePattern,
    ) -> Vec<Triple> {
        let closure = Schema::closure(store);
        closure
            .query(pattern)
            .into_iter()
            .filter(|t| self.allows(&closure, profile, t))
            .filter(|t| self.triple_level(&closure, t, context) <= clearance)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::rdfs;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// Medical ontology: Oncologist ⊑ Doctor ⊑ Person; alice is an
    /// Oncologist; acme-bot is a Crawler.
    fn medical_store() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert(&t("Oncologist", rdfs::SUB_CLASS_OF, "Doctor"));
        st.insert(&t("Doctor", rdfs::SUB_CLASS_OF, "Person"));
        st.insert(&t("alice", rdf::TYPE, "Oncologist"));
        st.insert(&t("alice", "treats", "patient-9"));
        st.insert(&t("acme-bot", rdf::TYPE, "Crawler"));
        st.insert(&t("acme-bot", "fetches", "page-1"));
        st
    }

    #[test]
    fn classes_resolved_through_closure() {
        let store = medical_store();
        let closure = Schema::closure(&store);
        let classes = OntologyGuard::classes_of(&closure, &Term::iri("alice"));
        assert!(classes.contains(&Term::iri("Oncologist")));
        assert!(classes.contains(&Term::iri("Doctor")));
        assert!(classes.contains(&Term::iri("Person")));
    }

    #[test]
    fn class_denial_covers_subclass_instances() {
        let store = medical_store();
        let mut guard = OntologyGuard::new();
        // Deny everything about Doctors — alice is only *typed* Oncologist,
        // but the closure knows she is a Doctor.
        guard.add_authorization(ClassAuthorization {
            subject: SubjectSpec::Anyone,
            class: Term::iri("Doctor"),
            sign: Sign::Minus,
        });
        let results = guard.query(
            &store,
            &SubjectProfile::new("u"),
            Level::TopSecret,
            &SecurityContext::new(),
            &TriplePattern::new(
                PatternTerm::Const(Term::iri("alice")),
                PatternTerm::Any,
                PatternTerm::Any,
            ),
        );
        assert!(results.is_empty(), "{results:?}");
        // Unrelated instances still visible.
        let bot = guard.query(
            &store,
            &SubjectProfile::new("u"),
            Level::TopSecret,
            &SecurityContext::new(),
            &TriplePattern::new(
                PatternTerm::Const(Term::iri("acme-bot")),
                PatternTerm::Any,
                PatternTerm::Any,
            ),
        );
        assert_eq!(bot.len(), 2);
    }

    #[test]
    fn class_denial_scoped_to_subject() {
        let store = medical_store();
        let mut guard = OntologyGuard::new();
        guard.add_authorization(ClassAuthorization {
            subject: SubjectSpec::Identity("mallory".into()),
            class: Term::iri("Doctor"),
            sign: Sign::Minus,
        });
        let probe = TriplePattern::new(
            PatternTerm::Const(Term::iri("alice")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        let ctx = SecurityContext::new();
        assert!(guard
            .query(
                &store,
                &SubjectProfile::new("mallory"),
                Level::TopSecret,
                &ctx,
                &probe
            )
            .is_empty());
        assert!(!guard
            .query(
                &store,
                &SubjectProfile::new("colleague"),
                Level::TopSecret,
                &ctx,
                &probe
            )
            .is_empty());
    }

    #[test]
    fn class_labels_classify_instances() {
        let store = medical_store();
        let mut guard = OntologyGuard::new();
        // §5: "ontologies may have security levels attached to them".
        guard.add_label(ClassLabel {
            class: Term::iri("Doctor"),
            label: ContextLabel::fixed(Level::Secret),
        });
        let probe = TriplePattern::new(
            PatternTerm::Const(Term::iri("alice")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        let ctx = SecurityContext::new();
        // Public clearance sees nothing about alice.
        assert!(guard
            .query(
                &store,
                &SubjectProfile::new("u"),
                Level::Unclassified,
                &ctx,
                &probe
            )
            .is_empty());
        // Secret clearance sees all.
        assert!(!guard
            .query(
                &store,
                &SubjectProfile::new("u"),
                Level::Secret,
                &ctx,
                &probe
            )
            .is_empty());
    }

    #[test]
    fn contextual_class_declassification() {
        let store = medical_store();
        let mut guard = OntologyGuard::new();
        guard.add_label(ClassLabel {
            class: Term::iri("Doctor"),
            label: ContextLabel::fixed(Level::Secret)
                .unless_condition("emergency", Level::Unclassified),
        });
        let probe = TriplePattern::new(
            PatternTerm::Const(Term::iri("alice")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        // During an emergency the roster is classified...
        let emergency = SecurityContext::new().with_condition("emergency");
        assert!(guard
            .query(
                &store,
                &SubjectProfile::new("u"),
                Level::Unclassified,
                &emergency,
                &probe
            )
            .is_empty());
        // ...afterwards it is public.
        let normal = SecurityContext::new();
        assert!(!guard
            .query(
                &store,
                &SubjectProfile::new("u"),
                Level::Unclassified,
                &normal,
                &probe
            )
            .is_empty());
    }

    #[test]
    fn entailed_answers_returned_when_allowed() {
        let store = medical_store();
        let guard = OntologyGuard::new();
        // (alice type Person) is entailed, not stored.
        let results = guard.query(
            &store,
            &SubjectProfile::new("u"),
            Level::TopSecret,
            &SecurityContext::new(),
            &TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::Const(Term::iri(rdf::TYPE)),
                PatternTerm::Const(Term::iri("Person")),
            ),
        );
        assert_eq!(results.len(), 1);
    }
}
