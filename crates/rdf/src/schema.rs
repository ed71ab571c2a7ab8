//! RDFS vocabulary and entailment closure.
//!
//! Implements the core RDFS entailment rules needed to show why syntactic
//! filtering fails (§3.2): `subClassOf`/`subPropertyOf` transitivity, type
//! propagation through `subClassOf`, property propagation through
//! `subPropertyOf`, and `domain`/`range` type inference.

use crate::store::{Triple, TripleStore};
use crate::term::Term;

/// Well-known RDFS IRIs.
pub mod rdfs {
    /// `rdfs:subClassOf`.
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `rdfs:subPropertyOf`.
    pub const SUB_PROPERTY_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
    /// `rdfs:domain`.
    pub const DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
    /// `rdfs:range`.
    pub const RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";
}

use crate::store::rdf;

/// A thin wrapper marking a store as schema-bearing and providing closure
/// computation.
#[derive(Debug, Default, Clone)]
pub struct Schema;

impl Schema {
    /// Computes the RDFS closure of `store`: returns a new store containing
    /// the input triples plus everything entailed by the rules:
    ///
    /// * `(A subClassOf B), (B subClassOf C) ⇒ (A subClassOf C)`
    /// * `(x type A), (A subClassOf B) ⇒ (x type B)`
    /// * `(p subPropertyOf q), (q subPropertyOf r) ⇒ (p subPropertyOf r)`
    /// * `(x p y), (p subPropertyOf q) ⇒ (x q y)`
    /// * `(p domain C), (x p y) ⇒ (x type C)`
    /// * `(p range C), (x p y) ⇒ (y type C)`
    ///
    /// Fixpoint iteration; terminates because the term universe is finite.
    #[must_use]
    pub fn closure(store: &TripleStore) -> TripleStore {
        let mut closed = store.clone();
        let type_ = Term::iri(rdf::TYPE);
        let sub_class = Term::iri(rdfs::SUB_CLASS_OF);
        let sub_prop = Term::iri(rdfs::SUB_PROPERTY_OF);
        let domain = Term::iri(rdfs::DOMAIN);
        let range = Term::iri(rdfs::RANGE);

        loop {
            let mut new_triples: Vec<Triple> = Vec::new();
            let all = closed.all();

            // Index schema triples from the current closure.
            let subclass_pairs: Vec<(&Term, &Term)> = all
                .iter()
                .filter(|t| t.p == sub_class)
                .map(|t| (&t.s, &t.o))
                .collect();
            let subprop_pairs: Vec<(&Term, &Term)> = all
                .iter()
                .filter(|t| t.p == sub_prop)
                .map(|t| (&t.s, &t.o))
                .collect();
            let domain_pairs: Vec<(&Term, &Term)> = all
                .iter()
                .filter(|t| t.p == domain)
                .map(|t| (&t.s, &t.o))
                .collect();
            let range_pairs: Vec<(&Term, &Term)> = all
                .iter()
                .filter(|t| t.p == range)
                .map(|t| (&t.s, &t.o))
                .collect();

            // Transitivity of subClassOf / subPropertyOf.
            for (a, b) in &subclass_pairs {
                for (b2, c) in &subclass_pairs {
                    if b == b2 {
                        new_triples.push(Triple::new(
                            (*a).clone(),
                            sub_class.clone(),
                            (*c).clone(),
                        ));
                    }
                }
            }
            for (a, b) in &subprop_pairs {
                for (b2, c) in &subprop_pairs {
                    if b == b2 {
                        new_triples.push(Triple::new((*a).clone(), sub_prop.clone(), (*c).clone()));
                    }
                }
            }

            for t in &all {
                // Type propagation.
                if t.p == type_ {
                    for (sub, sup) in &subclass_pairs {
                        if *sub == &t.o {
                            new_triples.push(Triple::new(
                                t.s.clone(),
                                type_.clone(),
                                (*sup).clone(),
                            ));
                        }
                    }
                }
                // Property propagation.
                for (sub, sup) in &subprop_pairs {
                    if *sub == &t.p {
                        new_triples.push(Triple::new(t.s.clone(), (*sup).clone(), t.o.clone()));
                    }
                }
                // Domain / range typing.
                for (prop, class) in &domain_pairs {
                    if *prop == &t.p {
                        new_triples.push(Triple::new(t.s.clone(), type_.clone(), (*class).clone()));
                    }
                }
                for (prop, class) in &range_pairs {
                    if *prop == &t.p {
                        new_triples.push(Triple::new(t.o.clone(), type_.clone(), (*class).clone()));
                    }
                }
            }

            let mut grew = false;
            for t in new_triples {
                if closed.insert(&t) {
                    grew = true;
                }
            }
            if !grew {
                return closed;
            }
        }
    }

    /// Convenience: the entailed-but-not-stored triples.
    #[must_use]
    pub fn entailed_only(store: &TripleStore) -> Vec<Triple> {
        Self::closure(store)
            .all()
            .into_iter()
            .filter(|t| !store.contains(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn subclass_transitivity() {
        let mut st = TripleStore::new();
        st.insert(&t("Cardiologist", rdfs::SUB_CLASS_OF, "Doctor"));
        st.insert(&t("Doctor", rdfs::SUB_CLASS_OF, "Person"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("Cardiologist", rdfs::SUB_CLASS_OF, "Person")));
    }

    #[test]
    fn type_propagation() {
        let mut st = TripleStore::new();
        st.insert(&t("Cardiologist", rdfs::SUB_CLASS_OF, "Doctor"));
        st.insert(&t("alice", rdf::TYPE, "Cardiologist"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("alice", rdf::TYPE, "Doctor")));
    }

    #[test]
    fn deep_hierarchy_propagates() {
        let mut st = TripleStore::new();
        for i in 0..6 {
            st.insert(&t(
                &format!("C{i}"),
                rdfs::SUB_CLASS_OF,
                &format!("C{}", i + 1),
            ));
        }
        st.insert(&t("x", rdf::TYPE, "C0"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("x", rdf::TYPE, "C6")));
    }

    #[test]
    fn subproperty_propagation() {
        let mut st = TripleStore::new();
        st.insert(&t("treats", rdfs::SUB_PROPERTY_OF, "interactsWith"));
        st.insert(&t("alice", "treats", "bob"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("alice", "interactsWith", "bob")));
    }

    #[test]
    fn domain_range_typing() {
        let mut st = TripleStore::new();
        st.insert(&t("treats", rdfs::DOMAIN, "Doctor"));
        st.insert(&t("treats", rdfs::RANGE, "Patient"));
        st.insert(&t("alice", "treats", "bob"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("alice", rdf::TYPE, "Doctor")));
        assert!(closed.contains(&t("bob", rdf::TYPE, "Patient")));
    }

    #[test]
    fn combined_rules_chain() {
        // subPropertyOf + domain: (x p y), p ⊑ q, q domain C ⇒ x type C.
        let mut st = TripleStore::new();
        st.insert(&t("p", rdfs::SUB_PROPERTY_OF, "q"));
        st.insert(&t("q", rdfs::DOMAIN, "C"));
        st.insert(&t("x", "p", "y"));
        let closed = Schema::closure(&st);
        assert!(closed.contains(&t("x", rdf::TYPE, "C")));
    }

    #[test]
    fn entailed_only_excludes_stored() {
        let mut st = TripleStore::new();
        st.insert(&t("A", rdfs::SUB_CLASS_OF, "B"));
        st.insert(&t("x", rdf::TYPE, "A"));
        let extra = Schema::entailed_only(&st);
        assert!(extra.contains(&t("x", rdf::TYPE, "B")));
        assert!(!extra.contains(&t("x", rdf::TYPE, "A")));
    }

    #[test]
    fn closure_idempotent() {
        let mut st = TripleStore::new();
        st.insert(&t("A", rdfs::SUB_CLASS_OF, "B"));
        st.insert(&t("x", rdf::TYPE, "A"));
        let once = Schema::closure(&st);
        let twice = Schema::closure(&once);
        assert_eq!(once.len(), twice.len());
    }
}
