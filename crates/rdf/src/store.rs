//! Triple store: indexes, pattern queries, BGP joins, containers,
//! reification.

use crate::term::{Dictionary, Term, TermId};
use std::collections::{BTreeSet, HashMap};

/// Well-known RDF vocabulary IRIs.
pub mod rdf {
    /// `rdf:type`.
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdf:subject` (reification).
    pub const SUBJECT: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#subject";
    /// `rdf:predicate` (reification).
    pub const PREDICATE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#predicate";
    /// `rdf:object` (reification).
    pub const OBJECT: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#object";
    /// `rdf:Statement` (reification).
    pub const STATEMENT: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement";
    /// `rdf:Bag`.
    pub const BAG: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Bag";
    /// `rdf:Seq`.
    pub const SEQ: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Seq";
    /// `rdf:Alt`.
    pub const ALT: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Alt";
    /// Membership property prefix (`rdf:_1`, `rdf:_2`, …).
    pub const MEMBER_PREFIX: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#_";
}

/// A concrete triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject.
    pub s: Term,
    /// Predicate.
    pub p: Term,
    /// Object.
    pub o: Term,
}

impl Triple {
    /// Constructs a triple.
    #[must_use]
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Triple { s, p, o }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

/// One position of a triple pattern: a constant, a named variable, or a
/// wildcard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternTerm {
    /// Must equal this term.
    Const(Term),
    /// Binds the term to a variable name (joins across patterns).
    Var(String),
    /// Matches anything without binding.
    Any,
}

impl PatternTerm {
    /// Convenience constant.
    #[must_use]
    pub fn c(t: Term) -> Self {
        PatternTerm::Const(t)
    }

    /// Convenience variable.
    #[must_use]
    pub fn v(name: &str) -> Self {
        PatternTerm::Var(name.to_string())
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Predicate position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl TriplePattern {
    /// Constructs a pattern.
    #[must_use]
    pub fn new(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> Self {
        TriplePattern { s, p, o }
    }

    /// Does `triple` match this pattern (ignoring variable bindings)?
    #[must_use]
    pub fn matches(&self, triple: &Triple) -> bool {
        let pos = |pt: &PatternTerm, t: &Term| match pt {
            PatternTerm::Const(c) => c == t,
            _ => true,
        };
        pos(&self.s, &triple.s) && pos(&self.p, &triple.p) && pos(&self.o, &triple.o)
    }
}

/// Container kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// Unordered collection.
    Bag,
    /// Ordered collection.
    Seq,
    /// Alternatives (first is default).
    Alt,
}

impl ContainerKind {
    fn type_iri(self) -> &'static str {
        match self {
            ContainerKind::Bag => rdf::BAG,
            ContainerKind::Seq => rdf::SEQ,
            ContainerKind::Alt => rdf::ALT,
        }
    }
}

/// An indexed, dictionary-encoded triple store.
#[derive(Default, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    spo: BTreeSet<(TermId, TermId, TermId)>,
    pos: BTreeSet<(TermId, TermId, TermId)>,
    osp: BTreeSet<(TermId, TermId, TermId)>,
    next_blank: u32,
}

/// Prints the terms, the SPO index and the blank-node counter: the POS
/// and OSP indexes are permutations of SPO, so each triple prints once.
impl std::fmt::Debug for TripleStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripleStore")
            .field("terms", &self.dict)
            .field("spo", &self.spo)
            .field("next_blank", &self.next_blank)
            .finish()
    }
}

impl TripleStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a triple; returns whether it was new.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.dict.intern(&triple.s);
        let p = self.dict.intern(&triple.p);
        let o = self.dict.intern(&triple.o);
        let new = self.spo.insert((s, p, o));
        if new {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        new
    }

    /// Removes a triple; returns whether it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&triple.s),
            self.dict.lookup(&triple.p),
            self.dict.lookup(&triple.o),
        ) else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&triple.s),
            self.dict.lookup(&triple.p),
            self.dict.lookup(&triple.o),
        ) else {
            return false;
        };
        self.spo.contains(&(s, p, o))
    }

    /// Number of triples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Allocates a fresh blank node.
    pub fn fresh_blank(&mut self) -> Term {
        let b = Term::Blank(self.next_blank);
        self.next_blank += 1;
        b
    }

    /// All triples (document order of the SPO index).
    #[must_use]
    pub fn all(&self) -> Vec<Triple> {
        self.spo
            .iter()
            .map(|&(s, p, o)| Triple {
                s: self.dict.term(s).clone(),
                p: self.dict.term(p).clone(),
                o: self.dict.term(o).clone(),
            })
            .collect()
    }

    /// Pattern query: triples matching constants in the pattern (variables
    /// and wildcards match anything). Uses the best index for the bound
    /// positions.
    #[must_use]
    pub fn query(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let lookup = |pt: &PatternTerm| -> Option<Option<TermId>> {
            match pt {
                // A constant not in the dictionary matches nothing.
                PatternTerm::Const(t) => self.dict.lookup(t).map(Some),
                _ => Some(None),
            }
        };
        let (Some(s), Some(p), Some(o)) =
            (lookup(&pattern.s), lookup(&pattern.p), lookup(&pattern.o))
        else {
            return Vec::new();
        };

        let mut out = Vec::new();
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    out.push((s, p, o));
                }
            }
            (Some(s), p, o) => {
                for &(s2, p2, o2) in self.spo.range((s, 0, 0)..=(s, u32::MAX, u32::MAX)) {
                    if p.is_none_or(|p| p == p2) && o.is_none_or(|o| o == o2) {
                        out.push((s2, p2, o2));
                    }
                }
            }
            (None, Some(p), o) => {
                for &(p2, o2, s2) in self.pos.range((p, 0, 0)..=(p, u32::MAX, u32::MAX)) {
                    if o.is_none_or(|o| o == o2) {
                        out.push((s2, p2, o2));
                    }
                }
            }
            (None, None, Some(o)) => {
                for &(o2, s2, p2) in self.osp.range((o, 0, 0)..=(o, u32::MAX, u32::MAX)) {
                    out.push((s2, p2, o2));
                }
            }
            (None, None, None) => out.extend(self.spo.iter().copied()),
        }
        out.into_iter()
            .map(|(s, p, o)| Triple {
                s: self.dict.term(s).clone(),
                p: self.dict.term(p).clone(),
                o: self.dict.term(o).clone(),
            })
            .collect()
    }

    /// Basic graph pattern: joins the patterns on shared variables with a
    /// naive bind-and-filter strategy; returns one binding map per solution.
    #[must_use]
    pub fn query_bgp(&self, patterns: &[TriplePattern]) -> Vec<HashMap<String, Term>> {
        let mut solutions: Vec<HashMap<String, Term>> = vec![HashMap::new()];
        for pattern in patterns {
            let mut next = Vec::new();
            for binding in &solutions {
                // Substitute bound variables into the pattern.
                let subst = |pt: &PatternTerm| -> PatternTerm {
                    match pt {
                        PatternTerm::Var(v) => match binding.get(v) {
                            Some(t) => PatternTerm::Const(t.clone()),
                            None => pt.clone(),
                        },
                        other => other.clone(),
                    }
                };
                let concrete = TriplePattern::new(
                    subst(&pattern.s),
                    subst(&pattern.p),
                    subst(&pattern.o),
                );
                for triple in self.query(&concrete) {
                    let mut b = binding.clone();
                    let mut ok = true;
                    for (pt, t) in [
                        (&pattern.s, &triple.s),
                        (&pattern.p, &triple.p),
                        (&pattern.o, &triple.o),
                    ] {
                        if let PatternTerm::Var(v) = pt {
                            match b.get(v) {
                                Some(bound) if bound != t => {
                                    ok = false;
                                    break;
                                }
                                Some(_) => {}
                                None => {
                                    b.insert(v.clone(), t.clone());
                                }
                            }
                        }
                    }
                    if ok {
                        next.push(b);
                    }
                }
            }
            solutions = next;
            if solutions.is_empty() {
                break;
            }
        }
        solutions
    }

    // --- containers ----------------------------------------------------------

    /// Creates a container of `kind` with the given members; returns the
    /// container resource (a fresh blank node).
    pub fn add_container(&mut self, kind: ContainerKind, members: &[Term]) -> Term {
        let container = self.fresh_blank();
        self.insert(&Triple::new(
            container.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(kind.type_iri()),
        ));
        for (i, m) in members.iter().enumerate() {
            self.insert(&Triple::new(
                container.clone(),
                Term::iri(&format!("{}{}", rdf::MEMBER_PREFIX, i + 1)),
                m.clone(),
            ));
        }
        container
    }

    /// Ordered members of a container.
    #[must_use]
    pub fn container_members(&self, container: &Term) -> Vec<Term> {
        let mut indexed: Vec<(usize, Term)> = self
            .query(&TriplePattern::new(
                PatternTerm::Const(container.clone()),
                PatternTerm::Any,
                PatternTerm::Any,
            ))
            .into_iter()
            .filter_map(|t| {
                if let Term::Iri(p) = &t.p {
                    p.strip_prefix(rdf::MEMBER_PREFIX)
                        .and_then(|n| n.parse::<usize>().ok())
                        .map(|n| (n, t.o))
                } else {
                    None
                }
            })
            .collect();
        indexed.sort_by_key(|(n, _)| *n);
        indexed.into_iter().map(|(_, t)| t).collect()
    }

    // --- reification ----------------------------------------------------------

    /// Reifies a triple: creates a statement resource describing it
    /// ("statements about statements"). The original triple is *not*
    /// asserted by this call.
    pub fn reify(&mut self, triple: &Triple) -> Term {
        let stmt = self.fresh_blank();
        self.insert(&Triple::new(
            stmt.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(rdf::STATEMENT),
        ));
        self.insert(&Triple::new(
            stmt.clone(),
            Term::iri(rdf::SUBJECT),
            triple.s.clone(),
        ));
        self.insert(&Triple::new(
            stmt.clone(),
            Term::iri(rdf::PREDICATE),
            triple.p.clone(),
        ));
        self.insert(&Triple::new(
            stmt.clone(),
            Term::iri(rdf::OBJECT),
            triple.o.clone(),
        ));
        stmt
    }

    /// Recovers the triple described by a reified statement resource.
    #[must_use]
    pub fn dereify(&self, stmt: &Term) -> Option<Triple> {
        let get = |pred: &str| -> Option<Term> {
            self.query(&TriplePattern::new(
                PatternTerm::Const(stmt.clone()),
                PatternTerm::Const(Term::iri(pred)),
                PatternTerm::Any,
            ))
            .into_iter()
            .next()
            .map(|t| t.o)
        };
        Some(Triple::new(
            get(rdf::SUBJECT)?,
            get(rdf::PREDICATE)?,
            get(rdf::OBJECT)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn insert_contains_remove() {
        let mut st = TripleStore::new();
        let tr = t("a", "p", "b");
        assert!(st.insert(&tr));
        assert!(!st.insert(&tr)); // duplicate
        assert!(st.contains(&tr));
        assert_eq!(st.len(), 1);
        assert!(st.remove(&tr));
        assert!(!st.remove(&tr));
        assert!(st.is_empty());
    }

    #[test]
    fn query_by_each_index() {
        let mut st = TripleStore::new();
        st.insert(&t("a", "p", "x"));
        st.insert(&t("a", "q", "y"));
        st.insert(&t("b", "p", "x"));

        // S bound.
        let q = TriplePattern::new(
            PatternTerm::c(Term::iri("a")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        assert_eq!(st.query(&q).len(), 2);
        // P bound.
        let q = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri("p")),
            PatternTerm::Any,
        );
        assert_eq!(st.query(&q).len(), 2);
        // O bound.
        let q = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::Any,
            PatternTerm::c(Term::iri("x")),
        );
        assert_eq!(st.query(&q).len(), 2);
        // Fully bound.
        let q = TriplePattern::new(
            PatternTerm::c(Term::iri("b")),
            PatternTerm::c(Term::iri("p")),
            PatternTerm::c(Term::iri("x")),
        );
        assert_eq!(st.query(&q).len(), 1);
        // All wildcards.
        let q = TriplePattern::new(PatternTerm::Any, PatternTerm::Any, PatternTerm::Any);
        assert_eq!(st.query(&q).len(), 3);
        // Unknown constant.
        let q = TriplePattern::new(
            PatternTerm::c(Term::iri("zzz")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        assert!(st.query(&q).is_empty());
    }

    #[test]
    fn sp_bound_combination() {
        let mut st = TripleStore::new();
        st.insert(&t("a", "p", "x"));
        st.insert(&t("a", "p", "y"));
        st.insert(&t("a", "q", "z"));
        let q = TriplePattern::new(
            PatternTerm::c(Term::iri("a")),
            PatternTerm::c(Term::iri("p")),
            PatternTerm::Any,
        );
        assert_eq!(st.query(&q).len(), 2);
    }

    #[test]
    fn bgp_join() {
        let mut st = TripleStore::new();
        st.insert(&t("alice", "worksFor", "acme"));
        st.insert(&t("bob", "worksFor", "acme"));
        st.insert(&t("acme", "locatedIn", "como"));
        st.insert(&t("zeta", "locatedIn", "rome"));

        // ?person worksFor ?org . ?org locatedIn como
        let solutions = st.query_bgp(&[
            TriplePattern::new(
                PatternTerm::v("person"),
                PatternTerm::c(Term::iri("worksFor")),
                PatternTerm::v("org"),
            ),
            TriplePattern::new(
                PatternTerm::v("org"),
                PatternTerm::c(Term::iri("locatedIn")),
                PatternTerm::c(Term::iri("como")),
            ),
        ]);
        assert_eq!(solutions.len(), 2);
        for s in &solutions {
            assert_eq!(s["org"], Term::iri("acme"));
        }
    }

    #[test]
    fn bgp_shared_variable_consistency() {
        let mut st = TripleStore::new();
        st.insert(&t("a", "knows", "b"));
        st.insert(&t("b", "knows", "c"));
        // ?x knows ?x — nobody knows themselves here.
        let solutions = st.query_bgp(&[TriplePattern::new(
            PatternTerm::v("x"),
            PatternTerm::c(Term::iri("knows")),
            PatternTerm::v("x"),
        )]);
        assert!(solutions.is_empty());
    }

    #[test]
    fn containers() {
        let mut st = TripleStore::new();
        let members = vec![Term::lit("one"), Term::lit("two"), Term::lit("three")];
        let bag = st.add_container(ContainerKind::Seq, &members);
        assert_eq!(st.container_members(&bag), members);
        // Type triple present.
        assert!(st.contains(&Triple::new(
            bag,
            Term::iri(rdf::TYPE),
            Term::iri(rdf::SEQ)
        )));
    }

    #[test]
    fn container_kinds_typed() {
        let mut st = TripleStore::new();
        let b = st.add_container(ContainerKind::Bag, &[Term::lit("m")]);
        let a = st.add_container(ContainerKind::Alt, &[Term::lit("m")]);
        assert!(st.contains(&Triple::new(b, Term::iri(rdf::TYPE), Term::iri(rdf::BAG))));
        assert!(st.contains(&Triple::new(a, Term::iri(rdf::TYPE), Term::iri(rdf::ALT))));
    }

    #[test]
    fn reification_roundtrip() {
        let mut st = TripleStore::new();
        let secret = t("agent-x", "reportsTo", "hq");
        let stmt = st.reify(&secret);
        // The reified triple itself is NOT asserted.
        assert!(!st.contains(&secret));
        assert_eq!(st.dereify(&stmt), Some(secret));
        // 4 reification triples.
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn dereify_non_statement_is_none() {
        let mut st = TripleStore::new();
        st.insert(&t("a", "p", "b"));
        assert_eq!(st.dereify(&Term::iri("a")), None);
    }

    #[test]
    fn fresh_blanks_unique() {
        let mut st = TripleStore::new();
        assert_ne!(st.fresh_blank(), st.fresh_blank());
    }

    #[test]
    fn pattern_matches() {
        let tr = t("a", "p", "b");
        assert!(TriplePattern::new(PatternTerm::Any, PatternTerm::Any, PatternTerm::Any)
            .matches(&tr));
        assert!(TriplePattern::new(
            PatternTerm::c(Term::iri("a")),
            PatternTerm::v("x"),
            PatternTerm::Any
        )
        .matches(&tr));
        assert!(!TriplePattern::new(
            PatternTerm::c(Term::iri("z")),
            PatternTerm::Any,
            PatternTerm::Any
        )
        .matches(&tr));
    }
}
