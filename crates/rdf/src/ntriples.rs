//! N-Triples serialization: RDF graphs as line-oriented text.
//!
//! Policy graphs, catalogs and ontologies need to travel between sites
//! (§3.2 treats RDF documents as *exchanged* web data); this codec writes
//! and parses the N-Triples subset matching our term model: IRIs in angle
//! brackets, plain literals in double quotes with `\"`/`\\`/`\n` escapes,
//! and `_:bN` blank-node labels.

use crate::store::{Triple, TripleStore};
use crate::term::Term;

/// A parse failure with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

fn escape_literal(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn term_to_nt(t: &Term) -> String {
    match t {
        Term::Iri(i) => format!("<{i}>"),
        Term::Literal(l) => format!("\"{}\"", escape_literal(l)),
        Term::Blank(n) => format!("_:b{n}"),
    }
}

/// Serializes a store to N-Triples text (sorted SPO order, one triple per
/// line, trailing newline).
#[must_use]
pub fn to_ntriples(store: &TripleStore) -> String {
    let mut out = String::new();
    for t in store.all() {
        out.push_str(&format!(
            "{} {} {} .\n",
            term_to_nt(&t.s),
            term_to_nt(&t.p),
            term_to_nt(&t.o)
        ));
    }
    out
}

struct LineParser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> LineParser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, NtError> {
        Err(NtError {
            line: self.line,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with([' ', '\t']) {
            self.pos += 1;
        }
    }

    fn term(&mut self) -> Result<Term, NtError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        if let Some(after) = rest.strip_prefix('<') {
            let end = after.find('>').ok_or_else(|| NtError {
                line: self.line,
                message: "unterminated IRI".into(),
            })?;
            self.pos += 1 + end + 1;
            return Ok(Term::Iri(after[..end].to_string()));
        }
        if rest.starts_with('"') {
            // Scan with escapes.
            let bytes = rest.as_bytes();
            let mut i = 1;
            let mut value = String::new();
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        self.pos += i + 1;
                        return Ok(Term::Literal(value));
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'"') => value.push('"'),
                            Some(b'\\') => value.push('\\'),
                            Some(b'n') => value.push('\n'),
                            _ => return self.err("bad escape in literal"),
                        }
                        i += 1;
                    }
                    _ => {
                        // Advance one UTF-8 char.
                        let ch = rest[i..].chars().next().ok_or_else(|| NtError {
                            line: self.line,
                            message: "unterminated literal".into(),
                        })?;
                        value.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            return self.err("unterminated literal");
        }
        if let Some(after) = rest.strip_prefix("_:b") {
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            if digits.is_empty() {
                return self.err("bad blank node label");
            }
            self.pos += 3 + digits.len();
            let n: u32 = digits.parse().map_err(|_| NtError {
                line: self.line,
                message: "blank node label out of range".into(),
            })?;
            return Ok(Term::Blank(n));
        }
        let preview: String = rest.chars().take(12).collect();
        self.err(format!("expected a term, found '{preview}'"))
    }
}

/// Parses N-Triples text into a store. Blank lines and `#` comments are
/// skipped.
pub fn from_ntriples(text: &str) -> Result<TripleStore, NtError> {
    let mut store = TripleStore::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = raw_line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut p = LineParser {
            text: trimmed,
            pos: 0,
            line: line_no,
        };
        let s = p.term()?;
        let pred = p.term()?;
        let o = p.term()?;
        p.skip_ws();
        if !p.text[p.pos..].starts_with('.') {
            return p.err("missing terminating '.'");
        }
        p.pos += 1;
        p.skip_ws();
        if p.pos != p.text.len() {
            return p.err("trailing content after '.'");
        }
        store.insert(&Triple::new(s, pred, o));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: Term, p: Term, o: Term) -> Triple {
        Triple::new(s, p, o)
    }

    #[test]
    fn roundtrip() {
        let mut store = TripleStore::new();
        store.insert(&t(
            Term::iri("http://x/alice"),
            Term::iri("http://x/knows"),
            Term::iri("http://x/bob"),
        ));
        store.insert(&t(
            Term::iri("http://x/alice"),
            Term::iri("http://x/name"),
            Term::lit("Alice \"A\" O'Hara\nline2"),
        ));
        store.insert(&t(Term::Blank(3), Term::iri("http://x/p"), Term::Blank(4)));
        let text = to_ntriples(&store);
        let parsed = from_ntriples(&text).unwrap();
        assert_eq!(parsed.len(), store.len());
        for triple in store.all() {
            assert!(parsed.contains(&triple), "{triple}");
        }
    }

    #[test]
    fn parses_literal_text() {
        let store = from_ntriples("<s> <p> \"hello world\" .\n").unwrap();
        let all = store.all();
        assert_eq!(all[0].o, Term::lit("hello world"));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# a comment\n\n<s> <p> <o> .\n   \n# another\n";
        assert_eq!(from_ntriples(text).unwrap().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "<s> <p> <o> .\n<s> <p> \"unterminated .\n";
        let err = from_ntriples(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn rejects_missing_dot_and_trailing() {
        assert!(from_ntriples("<s> <p> <o>\n").is_err());
        assert!(from_ntriples("<s> <p> <o> . extra\n").is_err());
        assert!(from_ntriples("<s> <p> .\n").is_err());
    }

    #[test]
    fn escape_roundtrip_edge_cases() {
        for content in ["", "\\", "\"", "a\\\"b", "line1\nline2", "héllo"] {
            let mut store = TripleStore::new();
            store.insert(&t(Term::iri("s"), Term::iri("p"), Term::lit(content)));
            let parsed = from_ntriples(&to_ntriples(&store)).unwrap();
            assert_eq!(parsed.all()[0].o, Term::lit(content), "{content:?}");
        }
    }
}
