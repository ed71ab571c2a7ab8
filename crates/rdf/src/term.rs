//! RDF terms and the dictionary encoding used by the store.

use std::collections::HashMap;

/// An RDF term: IRI, literal, or blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A resource IRI (kept as a string; no scheme validation).
    Iri(String),
    /// A plain literal.
    Literal(String),
    /// A blank node with a store-local label.
    Blank(u32),
}

impl Term {
    /// Convenience IRI constructor.
    #[must_use]
    pub fn iri(s: &str) -> Term {
        Term::Iri(s.to_string())
    }

    /// Convenience literal constructor.
    #[must_use]
    pub fn lit(s: &str) -> Term {
        Term::Literal(s.to_string())
    }

    /// True for IRIs.
    #[must_use]
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Literal(s) => write!(f, "\"{s}\""),
            Term::Blank(n) => write!(f, "_:b{n}"),
        }
    }
}

/// Dictionary-internal term id.
pub(crate) type TermId = u32;

/// Bidirectional term dictionary.
#[derive(Default, Clone, PartialEq)]
pub(crate) struct Dictionary {
    by_term: HashMap<Term, TermId>,
    by_id: Vec<Term>,
}

/// Prints the terms in id order only: `by_term` holds the same pairs in
/// hash order, which differs between two identically built dictionaries.
impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.by_id).finish()
    }
}

impl Dictionary {
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = u32::try_from(self.by_id.len()).expect("dictionary overflow");
        self.by_term.insert(term.clone(), id);
        self.by_id.push(term.clone());
        id
    }

    pub(crate) fn lookup(&self, term: &Term) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    pub(crate) fn term(&self, id: TermId) -> &Term {
        &self.by_id[id as usize]
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::default();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iri_and_literal_distinct() {
        let mut d = Dictionary::default();
        let a = d.intern(&Term::iri("x"));
        let b = d.intern(&Term::lit("x"));
        assert_ne!(a, b);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::default();
        let t = Term::lit("hello");
        let id = d.intern(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.lookup(&t), Some(id));
        assert_eq!(d.lookup(&Term::lit("other")), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::lit("v").to_string(), "\"v\"");
        assert_eq!(Term::Blank(3).to_string(), "_:b3");
    }
}
