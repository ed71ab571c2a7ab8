//! DTD-lite validation: structural integrity for web data.
//!
//! §2.1 of the paper: "Maintaining the integrity of the data is critical.
//! Since the data may originate from multiple sources around the world, it
//! will be difficult to keep tabs on the accuracy of the data. Appropriate
//! data quality maintenance techniques need thus be developed."
//!
//! A [`Dtd`] declares, per element name, the allowed child elements,
//! whether text content is permitted, and required/optional attributes.
//! Validation reports *every* violation (it does not stop at the first),
//! so ingest pipelines can quarantine documents with full diagnostics.

use crate::node::{Document, NodeId, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// Declaration for one element name.
#[derive(Debug, Clone, Default)]
pub struct ElementDecl {
    /// Child element names allowed under this element.
    pub children: BTreeSet<String>,
    /// Whether text content is allowed.
    pub text_allowed: bool,
    /// Attributes that must be present.
    pub required_attributes: BTreeSet<String>,
    /// Attributes that may be present (requireds are implicitly allowed).
    pub optional_attributes: BTreeSet<String>,
    /// When true, attributes not listed above are rejected.
    pub closed_attributes: bool,
}

/// A document type definition: declarations plus the expected root name.
#[derive(Debug, Clone)]
pub struct Dtd {
    /// Required root element name.
    pub root: String,
    decls: BTreeMap<String, ElementDecl>,
}

/// One validation problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Root element has the wrong name.
    WrongRoot {
        /// Expected name.
        expected: String,
        /// Found name.
        found: String,
    },
    /// Element name has no declaration.
    UndeclaredElement(String),
    /// Child element not allowed under its parent.
    ChildNotAllowed {
        /// Parent element name.
        parent: String,
        /// Offending child name.
        child: String,
    },
    /// Text content where none is allowed.
    TextNotAllowed(String),
    /// Required attribute missing.
    MissingAttribute {
        /// Element name.
        element: String,
        /// Missing attribute.
        attribute: String,
    },
    /// Attribute not allowed on a closed-attribute element.
    AttributeNotAllowed {
        /// Element name.
        element: String,
        /// Offending attribute.
        attribute: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::WrongRoot { expected, found } => {
                write!(f, "wrong root: expected <{expected}>, found <{found}>")
            }
            Violation::UndeclaredElement(e) => write!(f, "undeclared element <{e}>"),
            Violation::ChildNotAllowed { parent, child } => {
                write!(f, "<{child}> not allowed under <{parent}>")
            }
            Violation::TextNotAllowed(e) => write!(f, "text not allowed in <{e}>"),
            Violation::MissingAttribute { element, attribute } => {
                write!(f, "<{element}> missing required attribute '{attribute}'")
            }
            Violation::AttributeNotAllowed { element, attribute } => {
                write!(f, "attribute '{attribute}' not allowed on <{element}>")
            }
        }
    }
}

impl Dtd {
    /// Creates a DTD with the given root element name.
    #[must_use]
    pub fn new(root: &str) -> Self {
        Dtd {
            root: root.to_string(),
            decls: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) the declaration for `element` (builder style).
    #[must_use]
    pub fn declare(mut self, element: &str, decl: ElementDecl) -> Self {
        self.decls.insert(element.to_string(), decl);
        self
    }

    /// Convenience: a declaration builder.
    #[must_use]
    pub fn element(element: &str) -> (String, ElementDecl) {
        (element.to_string(), ElementDecl::default())
    }

    /// Validates `doc`, returning every violation (empty = valid).
    #[must_use]
    pub fn validate(&self, doc: &Document) -> Vec<Violation> {
        let mut out = Vec::new();
        let root_name = doc.name(doc.root()).unwrap_or("");
        if root_name != self.root {
            out.push(Violation::WrongRoot {
                expected: self.root.clone(),
                found: root_name.to_string(),
            });
        }
        self.validate_element(doc, doc.root(), &mut out);
        out
    }

    /// True when the document has no violations.
    #[must_use]
    pub fn is_valid(&self, doc: &Document) -> bool {
        self.validate(doc).is_empty()
    }

    fn validate_element(&self, doc: &Document, node: NodeId, out: &mut Vec<Violation>) {
        let name = doc.name(node).unwrap_or("").to_string();
        let Some(decl) = self.decls.get(&name) else {
            out.push(Violation::UndeclaredElement(name));
            // Children are still traversed so all problems surface.
            for child in doc.children(node).collect::<Vec<_>>() {
                if matches!(doc.kind(child), NodeKind::Element { .. }) {
                    self.validate_element(doc, child, out);
                }
            }
            return;
        };

        // Attributes.
        let attrs = doc.attributes(node);
        for required in &decl.required_attributes {
            if !attrs.iter().any(|(k, _)| k == required) {
                out.push(Violation::MissingAttribute {
                    element: name.clone(),
                    attribute: required.clone(),
                });
            }
        }
        if decl.closed_attributes {
            for (k, _) in attrs {
                if !decl.required_attributes.contains(k) && !decl.optional_attributes.contains(k) {
                    out.push(Violation::AttributeNotAllowed {
                        element: name.clone(),
                        attribute: k.clone(),
                    });
                }
            }
        }

        // Content.
        for child in doc.children(node).collect::<Vec<_>>() {
            match doc.kind(child) {
                NodeKind::Text(_) => {
                    if !decl.text_allowed {
                        out.push(Violation::TextNotAllowed(name.clone()));
                    }
                }
                NodeKind::Element {
                    name: child_name, ..
                } => {
                    if !decl.children.contains(child_name) {
                        out.push(Violation::ChildNotAllowed {
                            parent: name.clone(),
                            child: child_name.clone(),
                        });
                    }
                    self.validate_element(doc, child, out);
                }
            }
        }
    }
}

/// Builder helpers on [`ElementDecl`].
impl ElementDecl {
    /// Allows the given child element names.
    #[must_use]
    pub fn with_children(mut self, names: &[&str]) -> Self {
        self.children.extend(names.iter().map(|s| (*s).to_string()));
        self
    }

    /// Permits text content.
    #[must_use]
    pub fn with_text(mut self) -> Self {
        self.text_allowed = true;
        self
    }

    /// Requires the given attributes.
    #[must_use]
    pub fn require_attrs(mut self, names: &[&str]) -> Self {
        self.required_attributes
            .extend(names.iter().map(|s| (*s).to_string()));
        self
    }

    /// Allows the given optional attributes and closes the attribute list.
    #[must_use]
    pub fn allow_only_attrs(mut self, names: &[&str]) -> Self {
        self.optional_attributes
            .extend(names.iter().map(|s| (*s).to_string()));
        self.closed_attributes = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patient_dtd() -> Dtd {
        Dtd::new("hospital")
            .declare(
                "hospital",
                ElementDecl::default().with_children(&["patient"]),
            )
            .declare(
                "patient",
                ElementDecl::default()
                    .with_children(&["name", "record"])
                    .require_attrs(&["id"])
                    .allow_only_attrs(&["ward"]),
            )
            .declare("name", ElementDecl::default().with_text())
            .declare("record", ElementDecl::default().with_text())
    }

    #[test]
    fn valid_document() {
        let doc = Document::parse(
            "<hospital><patient id=\"p1\" ward=\"w1\"><name>A</name><record>flu</record></patient></hospital>",
        )
        .unwrap();
        assert!(patient_dtd().is_valid(&doc));
    }

    #[test]
    fn wrong_root() {
        let doc = Document::parse("<clinic/>").unwrap();
        let violations = patient_dtd().validate(&doc);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongRoot { .. })));
    }

    #[test]
    fn missing_required_attribute() {
        let doc =
            Document::parse("<hospital><patient><name>A</name></patient></hospital>").unwrap();
        let violations = patient_dtd().validate(&doc);
        assert!(violations.contains(&Violation::MissingAttribute {
            element: "patient".into(),
            attribute: "id".into()
        }));
    }

    #[test]
    fn disallowed_attribute_on_closed_list() {
        let doc = Document::parse("<hospital><patient id=\"p1\" ssn=\"x\"/></hospital>").unwrap();
        let violations = patient_dtd().validate(&doc);
        assert!(violations.contains(&Violation::AttributeNotAllowed {
            element: "patient".into(),
            attribute: "ssn".into()
        }));
    }

    #[test]
    fn open_attribute_list_allows_extras() {
        // <hospital> has an open attribute list.
        let doc = Document::parse("<hospital extra=\"1\"/>").unwrap();
        assert!(patient_dtd().is_valid(&doc));
    }

    #[test]
    fn child_not_allowed() {
        let doc = Document::parse("<hospital><billing/></hospital>").unwrap();
        let violations = patient_dtd().validate(&doc);
        assert!(violations.contains(&Violation::ChildNotAllowed {
            parent: "hospital".into(),
            child: "billing".into()
        }));
        // The undeclared child is also reported.
        assert!(violations.contains(&Violation::UndeclaredElement("billing".into())));
    }

    #[test]
    fn text_not_allowed() {
        let doc = Document::parse("<hospital>stray text</hospital>").unwrap();
        let violations = patient_dtd().validate(&doc);
        assert!(violations.contains(&Violation::TextNotAllowed("hospital".into())));
    }

    #[test]
    fn all_violations_reported() {
        let doc = Document::parse(
            "<hospital><patient ssn=\"x\"><name>A</name><billing/></patient>oops</hospital>",
        )
        .unwrap();
        let violations = patient_dtd().validate(&doc);
        // missing id, disallowed ssn, billing child, billing undeclared,
        // stray text.
        assert!(violations.len() >= 5, "{violations:?}");
    }

    #[test]
    fn violation_display() {
        let v = Violation::MissingAttribute {
            element: "patient".into(),
            attribute: "id".into(),
        };
        assert_eq!(v.to_string(), "<patient> missing required attribute 'id'");
    }
}
