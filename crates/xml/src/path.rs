//! XPath-lite path language.
//!
//! Access control policies in the paper select document portions; this module
//! provides the selector. Grammar (absolute paths only):
//!
//! ```text
//! path      := step+
//! step      := ('/' | '//') test predicate*
//! test      := name | '*' | '@' name      (attribute test must be last)
//! predicate := '[' pred ']'
//! pred      := '@' name '=' quoted        (attribute equality)
//!            | name '=' quoted            (child-element text equality)
//!            | 'text()' '=' quoted        (own text equality)
//!            | integer                    (1-based position among siblings
//!                                          matched by the same step)
//! ```
//!
//! `/` selects children, `//` selects descendants-or-self. Evaluation starts
//! at a virtual node above the root, so `/hospital` matches a root named
//! `hospital` and `//record` matches every `record` element.

use crate::node::{Document, NodeId};
use std::fmt;

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    steps: Vec<Step>,
    /// Original source text, kept for display and policy serialization.
    source: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) descendant: bool,
    pub(crate) test: Test,
    pub(crate) predicates: Vec<Pred>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Test {
    Name(String),
    Wildcard,
    Attribute(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pred {
    AttrEq(String, String),
    ChildTextEq(String, String),
    OwnTextEq(String),
    Position(usize),
}

/// What a path selects: element nodes or a specific attribute of elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Selected element/text nodes.
    Nodes(Vec<NodeId>),
    /// Selected `(element, attribute-name)` pairs.
    Attributes(Vec<(NodeId, String)>),
}

impl Selection {
    /// Number of selected items.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Selection::Nodes(v) => v.len(),
            Selection::Attributes(v) => v.len(),
        }
    }

    /// True when nothing was selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected nodes, or the elements carrying selected attributes.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Selection::Nodes(v) => v.clone(),
            Selection::Attributes(v) => v.iter().map(|(n, _)| *n).collect(),
        }
    }
}

/// Nodes a query evaluation looked at; see [`Path::select_traced`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvaluationTrace {
    /// Nodes whose name/position the evaluation examined (sorted, deduped).
    pub examined: Vec<NodeId>,
    /// Nodes whose *content* (attributes or text) a predicate or attribute
    /// test inspected (sorted, deduped; subset semantics — always also
    /// examined or descendants of examined nodes).
    pub content_examined: Vec<NodeId>,
}

/// A path parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path error: {}", self.message)
    }
}

impl std::error::Error for PathError {}

fn err<T>(message: impl Into<String>) -> Result<T, PathError> {
    Err(PathError {
        message: message.into(),
    })
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

impl Path {
    /// Parses a path expression.
    pub fn parse(src: &str) -> Result<Path, PathError> {
        let bytes = src.as_bytes();
        if bytes.is_empty() || bytes[0] != b'/' {
            return err("paths must be absolute (start with '/')");
        }
        let mut steps = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let descendant = if bytes[pos..].starts_with(b"//") {
                pos += 2;
                true
            } else if bytes[pos] == b'/' {
                pos += 1;
                false
            } else {
                return err(format!("expected '/' at offset {pos}"));
            };
            if pos >= bytes.len() {
                return err("trailing '/'");
            }
            // Test.
            let test = if bytes[pos] == b'*' {
                pos += 1;
                Test::Wildcard
            } else if bytes[pos] == b'@' {
                pos += 1;
                let name = take_name(src, &mut pos)?;
                Test::Attribute(name)
            } else {
                Test::Name(take_name(src, &mut pos)?)
            };
            // Predicates.
            let mut predicates = Vec::new();
            while pos < bytes.len() && bytes[pos] == b'[' {
                pos += 1;
                let end = src[pos..].find(']').ok_or_else(|| PathError {
                    message: "unterminated predicate".into(),
                })? + pos;
                predicates.push(parse_pred(src[pos..end].trim())?);
                pos = end + 1;
            }
            if matches!(test, Test::Attribute(_)) && pos < bytes.len() {
                return err("attribute test must be the final step");
            }
            steps.push(Step {
                descendant,
                test,
                predicates,
            });
        }
        if steps.is_empty() {
            return err("empty path");
        }
        Ok(Path {
            steps,
            source: src.to_string(),
        })
    }

    /// Evaluates the path against `doc`, returning the selection.
    #[must_use]
    pub fn select(&self, doc: &Document) -> Selection {
        self.select_traced(doc).0
    }

    /// Evaluates the path and also reports the **evaluation trace**: every
    /// node whose name/structure the evaluation examined, and the subset of
    /// those whose *content* a predicate inspected.
    ///
    /// Third-party publishing (`websec-publish`) uses the trace to decide
    /// which node summaries an untrusted publisher must hand to a client so
    /// the client can re-run the query and check answer **completeness**.
    #[must_use]
    pub fn select_traced(&self, doc: &Document) -> (Selection, EvaluationTrace) {
        let mut trace = EvaluationTrace::default();
        let sel = self.select_inner(doc, Some(&mut trace));
        trace.examined.sort_unstable();
        trace.examined.dedup();
        trace.content_examined.sort_unstable();
        trace.content_examined.dedup();
        (sel, trace)
    }

    fn select_inner(&self, doc: &Document, mut trace: Option<&mut EvaluationTrace>) -> Selection {
        // The context starts above the root: the root is a "child" of it.
        let mut context: Vec<NodeId> = vec![];
        let mut at_virtual_root = true;

        for (i, step) in self.steps.iter().enumerate() {
            let is_last = i == self.steps.len() - 1;

            if let Test::Attribute(attr) = &step.test {
                // Attribute axis: applies to the context nodes themselves
                // (`/a/@id` selects attributes OF the nodes matched by `/a`),
                // or to every element for a leading/descendant step.
                let owners: Vec<NodeId> = if at_virtual_root || step.descendant {
                    let bases = if at_virtual_root {
                        live_root(doc)
                    } else {
                        context.clone()
                    };
                    if step.descendant {
                        let mut all: Vec<NodeId> =
                            bases.iter().flat_map(|&n| doc.descendants(n)).collect();
                        all.sort_unstable();
                        all.dedup();
                        all
                    } else {
                        bases
                    }
                } else {
                    context.clone()
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.examined.extend(owners.iter().copied());
                    // Attribute tests and their predicates inspect content.
                    t.content_examined.extend(owners.iter().copied());
                }
                let mut pairs = Vec::new();
                for n in owners {
                    if doc.attribute(n, attr).is_some()
                        && step.predicates.iter().all(|p| eval_pred(doc, n, p, 0))
                    {
                        pairs.push((n, attr.clone()));
                    }
                }
                debug_assert!(is_last);
                return Selection::Attributes(pairs);
            }

            // Candidates per context node, preserving sibling grouping so
            // positional predicates are well-defined.
            let candidate_groups: Vec<Vec<NodeId>> = if at_virtual_root {
                at_virtual_root = false;
                if step.descendant {
                    vec![doc.descendants(doc.root())]
                } else {
                    vec![live_root(doc)]
                }
            } else {
                context
                    .iter()
                    .map(|&n| {
                        if step.descendant {
                            doc.descendants(n).into_iter().filter(|&d| d != n).collect()
                        } else {
                            doc.children(n).collect()
                        }
                    })
                    .collect()
            };

            if let Some(t) = trace.as_deref_mut() {
                for group in &candidate_groups {
                    t.examined.extend(group.iter().copied());
                }
            }
            let mut next = Vec::new();
            for group in candidate_groups {
                let mut matched = Vec::new();
                for n in group {
                    let name_ok = match &step.test {
                        Test::Name(want) => doc.name(n) == Some(want.as_str()),
                        Test::Wildcard => doc.name(n).is_some(),
                        Test::Attribute(_) => unreachable!(),
                    };
                    if name_ok {
                        matched.push(n);
                    }
                }
                let reads_content = step
                    .predicates
                    .iter()
                    .any(|p| !matches!(p, Pred::Position(_)));
                if reads_content {
                    if let Some(t) = trace.as_deref_mut() {
                        // Predicates read attributes and (subtree) text of
                        // the name-matched candidates.
                        for &n in &matched {
                            t.content_examined.extend(doc.descendants(n));
                        }
                    }
                }
                for (idx, n) in matched.iter().enumerate() {
                    if step
                        .predicates
                        .iter()
                        .all(|p| eval_pred(doc, *n, p, idx + 1))
                    {
                        next.push(*n);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            context = next;
            if context.is_empty() {
                break;
            }
        }
        Selection::Nodes(context)
    }

    /// Convenience: selected element nodes only.
    #[must_use]
    pub fn select_nodes(&self, doc: &Document) -> Vec<NodeId> {
        match self.select(doc) {
            Selection::Nodes(v) => v,
            Selection::Attributes(v) => v.into_iter().map(|(n, _)| n).collect(),
        }
    }

    /// Whether the final step addresses an attribute.
    #[must_use]
    pub fn targets_attribute(&self) -> bool {
        matches!(self.steps.last().map(|s| &s.test), Some(Test::Attribute(_)))
    }

    /// The source text this path was parsed from.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed steps, for in-crate compilation to automata
    /// (`crate::automaton`).
    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }
}

/// The root as the one child of the virtual node above it, unless pruning
/// removed it (a view that keeps nothing).
fn live_root(doc: &Document) -> Vec<NodeId> {
    if doc.is_removed(doc.root()) {
        Vec::new()
    } else {
        vec![doc.root()]
    }
}

fn take_name(src: &str, pos: &mut usize) -> Result<String, PathError> {
    let bytes = src.as_bytes();
    let start = *pos;
    while *pos < bytes.len() {
        let c = bytes[*pos];
        if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        return err(format!("expected a name at offset {start}"));
    }
    Ok(src[start..*pos].to_string())
}

fn parse_pred(src: &str) -> Result<Pred, PathError> {
    if let Ok(n) = src.parse::<usize>() {
        if n == 0 {
            return err("positions are 1-based");
        }
        return Ok(Pred::Position(n));
    }
    let (lhs, rhs) = match src.split_once('=') {
        Some(pair) => pair,
        None => return err(format!("unsupported predicate '{src}'")),
    };
    let lhs = lhs.trim();
    let rhs = rhs.trim();
    let value = if (rhs.starts_with('\'') && rhs.ends_with('\'') && rhs.len() >= 2)
        || (rhs.starts_with('"') && rhs.ends_with('"') && rhs.len() >= 2)
    {
        rhs[1..rhs.len() - 1].to_string()
    } else {
        return err(format!("predicate value must be quoted: '{src}'"));
    };
    if let Some(attr) = lhs.strip_prefix('@') {
        Ok(Pred::AttrEq(attr.to_string(), value))
    } else if lhs == "text()" {
        Ok(Pred::OwnTextEq(value))
    } else {
        Ok(Pred::ChildTextEq(lhs.to_string(), value))
    }
}

fn eval_pred(doc: &Document, node: NodeId, pred: &Pred, position: usize) -> bool {
    match pred {
        Pred::AttrEq(name, want) => doc.attribute(node, name) == Some(want.as_str()),
        Pred::OwnTextEq(want) => doc.text_content(node) == *want,
        Pred::ChildTextEq(child, want) => doc
            .children(node)
            .any(|c| doc.name(c) == Some(child.as_str()) && doc.text_content(c) == *want),
        Pred::Position(p) => position == *p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::NodeBitset;
    use std::collections::HashMap;

    fn doc() -> Document {
        Document::parse(
            "<hospital>\
               <patient id=\"p1\" ward=\"w1\"><name>Alice</name><record severity=\"low\">flu</record></patient>\
               <patient id=\"p2\" ward=\"w2\"><name>Bob</name><record severity=\"high\">injury</record></patient>\
               <staff><doctor id=\"d1\"><name>Carol</name></doctor></staff>\
             </hospital>",
        )
        .unwrap()
    }

    #[test]
    fn root_path() {
        let d = doc();
        let sel = Path::parse("/hospital").unwrap().select_nodes(&d);
        assert_eq!(sel, vec![d.root()]);
    }

    #[test]
    fn child_path() {
        let d = doc();
        assert_eq!(
            Path::parse("/hospital/patient")
                .unwrap()
                .select_nodes(&d)
                .len(),
            2
        );
    }

    #[test]
    fn descendant_path() {
        let d = doc();
        // name appears under patient (2x) and doctor (1x).
        assert_eq!(Path::parse("//name").unwrap().select_nodes(&d).len(), 3);
        assert_eq!(
            Path::parse("/hospital//name")
                .unwrap()
                .select_nodes(&d)
                .len(),
            3
        );
    }

    #[test]
    fn wildcard() {
        let d = doc();
        // children of hospital: 2 patients + 1 staff.
        assert_eq!(
            Path::parse("/hospital/*").unwrap().select_nodes(&d).len(),
            3
        );
    }

    #[test]
    fn attribute_selection() {
        let d = doc();
        match Path::parse("//patient/@id").unwrap().select(&d) {
            Selection::Attributes(pairs) => {
                assert_eq!(pairs.len(), 2);
                assert!(pairs.iter().all(|(_, a)| a == "id"));
            }
            other => panic!("expected attributes, got {other:?}"),
        }
    }

    #[test]
    fn attr_predicate() {
        let d = doc();
        let nodes = Path::parse("/hospital/patient[@id='p2']/name")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(nodes.len(), 1);
        assert_eq!(d.text_content(nodes[0]), "Bob");
    }

    #[test]
    fn child_text_predicate() {
        let d = doc();
        let nodes = Path::parse("//patient[name='Alice']")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(nodes.len(), 1);
        assert_eq!(d.attribute(nodes[0], "id"), Some("p1"));
    }

    #[test]
    fn own_text_predicate() {
        let d = doc();
        let nodes = Path::parse("//record[text()='injury']")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(nodes.len(), 1);
        assert_eq!(d.attribute(nodes[0], "severity"), Some("high"));
    }

    #[test]
    fn positional_predicate() {
        let d = doc();
        let first = Path::parse("/hospital/patient[1]")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(first.len(), 1);
        assert_eq!(d.attribute(first[0], "id"), Some("p1"));
        let second = Path::parse("/hospital/patient[2]")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(d.attribute(second[0], "id"), Some("p2"));
    }

    #[test]
    fn combined_predicates() {
        let d = doc();
        let nodes = Path::parse("//record[@severity='high'][text()='injury']")
            .unwrap()
            .select_nodes(&d);
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn no_match_is_empty() {
        let d = doc();
        assert!(Path::parse("/clinic").unwrap().select_nodes(&d).is_empty());
        assert!(Path::parse("//xyz").unwrap().select_nodes(&d).is_empty());
        assert!(Path::parse("/hospital/patient[@id='zzz']")
            .unwrap()
            .select_nodes(&d)
            .is_empty());
    }

    #[test]
    fn an_empty_view_selects_nothing() {
        let mut d = doc();
        d.set_attribute(d.root(), "site", "north");
        let empty = d.prune_to_view(&NodeBitset::default(), &HashMap::new());
        assert!(empty.is_removed(empty.root()));
        for p in ["/hospital", "/*", "//hospital", "//*", "/@site", "//@site"] {
            assert!(Path::parse(p).unwrap().select(&empty).is_empty(), "{p}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Path::parse("relative/path").is_err());
        assert!(Path::parse("/a/").is_err());
        assert!(Path::parse("/a[unclosed").is_err());
        assert!(Path::parse("/a[@x=unquoted]").is_err());
        assert!(Path::parse("/@attr/child").is_err());
        assert!(Path::parse("/a[0]").is_err());
        assert!(Path::parse("").is_err());
    }

    #[test]
    fn targets_attribute_flag() {
        assert!(Path::parse("//x/@a").unwrap().targets_attribute());
        assert!(!Path::parse("//x").unwrap().targets_attribute());
    }

    #[test]
    fn display_roundtrips_source() {
        let p = Path::parse("/hospital/patient[@id='p1']/@ward").unwrap();
        assert_eq!(p.to_string(), "/hospital/patient[@id='p1']/@ward");
    }

    #[test]
    fn trace_covers_examined_candidates() {
        let d = doc();
        let (sel, trace) = Path::parse("/hospital/patient").unwrap().select_traced(&d);
        assert_eq!(sel.len(), 2);
        // Trace contains the root (step 1 candidate) and all its children
        // (step 2 candidates), including the non-matching staff element.
        assert!(trace.examined.contains(&d.root()));
        let staff = Path::parse("/hospital/staff").unwrap().select_nodes(&d)[0];
        assert!(trace.examined.contains(&staff));
        // No predicates: no content examined.
        assert!(trace.content_examined.is_empty());
    }

    #[test]
    fn trace_records_predicate_content() {
        let d = doc();
        let (_, trace) = Path::parse("/hospital/patient[@id='p1']")
            .unwrap()
            .select_traced(&d);
        // Both patients were name-matched, so both subtrees' content was
        // inspected by the predicate.
        let patients = Path::parse("/hospital/patient").unwrap().select_nodes(&d);
        for p in patients {
            assert!(trace.content_examined.contains(&p));
        }
    }

    #[test]
    fn trace_attribute_step_examines_content() {
        let d = doc();
        let (_, trace) = Path::parse("//patient/@id").unwrap().select_traced(&d);
        assert!(!trace.content_examined.is_empty());
    }

    #[test]
    fn select_and_traced_agree() {
        let d = doc();
        for p in [
            "/hospital",
            "//name",
            "/hospital/patient[@id='p2']/name",
            "//record[text()='flu']",
            "/hospital/*",
        ] {
            let path = Path::parse(p).unwrap();
            assert_eq!(path.select(&d), path.select_traced(&d).0, "{p}");
        }
    }

    #[test]
    fn descendant_excludes_self_mid_path() {
        let d = Document::parse("<a><a><b/></a></a>").unwrap();
        // //a matches both 'a' elements; /a//a matches only the inner one.
        assert_eq!(Path::parse("//a").unwrap().select_nodes(&d).len(), 2);
        assert_eq!(Path::parse("/a//a").unwrap().select_nodes(&d).len(), 1);
    }
}
