//! Privacy constraints and P3P policies expressed in XML.
//!
//! §3.3 of the paper: "ontologies may be used by the privacy controllers…
//! Furthermore, **XML may be extended to include privacy constraints**."
//! This module round-trips [`PrivacyConstraint`] bases and
//! [`PrivacyPolicy`] documents through the workspace's XML substrate, so
//! privacy configuration travels like any other web data — and can itself
//! be access-controlled, signed, and disseminated.
//!
//! Constraint document shape:
//!
//! ```xml
//! <privacyConstraints>
//!   <constraint level="private">
//!     <attribute>name</attribute>
//!     <attribute>diagnosis</attribute>
//!   </constraint>
//! </privacyConstraints>
//! ```

use crate::constraints::{PrivacyConstraint, PrivacyLevel};
use crate::p3p::{DataCategory, PrivacyPolicy, Purpose, Recipient, Retention, Statement};
use websec_xml::{Document, Path};

/// Errors from parsing privacy XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "privacy config error: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(message: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        message: message.into(),
    })
}

/// Serializes a constraint base to its XML document.
#[must_use]
pub fn constraints_to_xml(constraints: &[PrivacyConstraint]) -> Document {
    let mut d = Document::new("privacyConstraints");
    let root = d.root();
    for c in constraints {
        let el = d.add_element(root, "constraint");
        let level = match c.level {
            PrivacyLevel::Public => "public",
            PrivacyLevel::SemiPrivate => "semi-private",
            PrivacyLevel::Private => "private",
        };
        d.set_attribute(el, "level", level);
        for attr in &c.attributes {
            let a = d.add_element(el, "attribute");
            d.add_text(a, attr);
        }
    }
    d
}

/// Parses a constraint base from its XML document.
pub fn constraints_from_xml(doc: &Document) -> Result<Vec<PrivacyConstraint>, ConfigError> {
    if doc.name(doc.root()) != Some("privacyConstraints") {
        return err("root must be <privacyConstraints>");
    }
    let Ok(constraint_path) = Path::parse("/privacyConstraints/constraint") else {
        return err("internal: constraint selector failed to parse");
    };
    let mut out = Vec::new();
    for node in constraint_path.select_nodes(doc) {
        let level = match doc.attribute(node, "level") {
            Some("public") => PrivacyLevel::Public,
            Some("semi-private") => PrivacyLevel::SemiPrivate,
            Some("private") => PrivacyLevel::Private,
            Some(other) => return err(format!("unknown level '{other}'")),
            None => return err("constraint missing level attribute"),
        };
        let attributes: Vec<String> = doc
            .children(node)
            .filter(|&c| doc.name(c) == Some("attribute"))
            .map(|c| doc.text_content(c))
            .collect();
        if attributes.is_empty() {
            return err("constraint with no attributes");
        }
        out.push(PrivacyConstraint::new(
            &attributes.iter().map(String::as_str).collect::<Vec<_>>(),
            level,
        ));
    }
    Ok(out)
}

fn category_name(c: DataCategory) -> &'static str {
    match c {
        DataCategory::Contact => "contact",
        DataCategory::Behaviour => "behaviour",
        DataCategory::Health => "health",
        DataCategory::Financial => "financial",
        DataCategory::Telemetry => "telemetry",
    }
}

fn purpose_name(p: Purpose) -> &'static str {
    match p {
        Purpose::CurrentTransaction => "current",
        Purpose::Admin => "admin",
        Purpose::Research => "research",
        Purpose::Marketing => "marketing",
        Purpose::Profiling => "profiling",
    }
}

fn recipient_name(r: Recipient) -> &'static str {
    match r {
        Recipient::Ours => "ours",
        Recipient::Delivery => "delivery",
        Recipient::ThirdParty => "third-party",
        Recipient::Public => "public",
    }
}

fn retention_name(r: Retention) -> &'static str {
    match r {
        Retention::NoRetention => "no-retention",
        Retention::StatedPurpose => "stated-purpose",
        Retention::Legal => "legal",
        Retention::Indefinite => "indefinite",
    }
}

/// Serializes a P3P-lite policy to XML (the "advertised web service privacy
/// policies must be expressed in P3P" requirement of §4.2).
#[must_use]
pub fn policy_to_xml(policy: &PrivacyPolicy) -> Document {
    let mut d = Document::new("POLICY");
    let root = d.root();
    d.set_attribute(root, "entity", &policy.entity);
    if policy.supports_anonymous {
        d.set_attribute(root, "anonymous", "true");
    }
    for s in &policy.statements {
        let st = d.add_element(root, "STATEMENT");
        d.set_attribute(st, "purpose", purpose_name(s.purpose));
        d.set_attribute(st, "recipient", recipient_name(s.recipient));
        d.set_attribute(st, "retention", retention_name(s.retention));
        for c in &s.categories {
            let data = d.add_element(st, "DATA");
            d.set_attribute(data, "category", category_name(*c));
        }
    }
    d
}

/// Parses a P3P-lite policy from XML.
pub fn policy_from_xml(doc: &Document) -> Result<PrivacyPolicy, ConfigError> {
    if doc.name(doc.root()) != Some("POLICY") {
        return err("root must be <POLICY>");
    }
    let entity = doc
        .attribute(doc.root(), "entity")
        .unwrap_or_default()
        .to_string();
    let mut policy = PrivacyPolicy::new(&entity);
    policy.supports_anonymous = doc.attribute(doc.root(), "anonymous") == Some("true");

    let Ok(statement_path) = Path::parse("/POLICY/STATEMENT") else {
        return err("internal: statement selector failed to parse");
    };
    for st in statement_path.select_nodes(doc) {
        let purpose = match doc.attribute(st, "purpose") {
            Some("current") => Purpose::CurrentTransaction,
            Some("admin") => Purpose::Admin,
            Some("research") => Purpose::Research,
            Some("marketing") => Purpose::Marketing,
            Some("profiling") => Purpose::Profiling,
            other => return err(format!("bad purpose {other:?}")),
        };
        let recipient = match doc.attribute(st, "recipient") {
            Some("ours") => Recipient::Ours,
            Some("delivery") => Recipient::Delivery,
            Some("third-party") => Recipient::ThirdParty,
            Some("public") => Recipient::Public,
            other => return err(format!("bad recipient {other:?}")),
        };
        let retention = match doc.attribute(st, "retention") {
            Some("no-retention") => Retention::NoRetention,
            Some("stated-purpose") => Retention::StatedPurpose,
            Some("legal") => Retention::Legal,
            Some("indefinite") => Retention::Indefinite,
            other => return err(format!("bad retention {other:?}")),
        };
        let categories: Vec<DataCategory> = doc
            .children(st)
            .filter(|&c| doc.name(c) == Some("DATA"))
            .map(|c| match doc.attribute(c, "category") {
                Some("contact") => Ok(DataCategory::Contact),
                Some("behaviour") => Ok(DataCategory::Behaviour),
                Some("health") => Ok(DataCategory::Health),
                Some("financial") => Ok(DataCategory::Financial),
                Some("telemetry") => Ok(DataCategory::Telemetry),
                other => err(format!("bad category {other:?}")),
            })
            .collect::<Result<_, _>>()?;
        policy.statements.push(Statement {
            categories,
            purpose,
            recipient,
            retention,
        });
    }
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_roundtrip() {
        let base = vec![
            PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private),
            PrivacyConstraint::new(&["zip", "ward"], PrivacyLevel::SemiPrivate),
            PrivacyConstraint::new(&["ward"], PrivacyLevel::Public),
        ];
        let xml = constraints_to_xml(&base);
        let parsed = constraints_from_xml(&xml).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn constraints_from_literal_xml() {
        let doc = Document::parse(
            "<privacyConstraints>\
               <constraint level=\"private\">\
                 <attribute>name</attribute><attribute>diagnosis</attribute>\
               </constraint>\
             </privacyConstraints>",
        )
        .unwrap();
        let parsed = constraints_from_xml(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].level, PrivacyLevel::Private);
        assert!(parsed[0].attributes.contains("name"));
    }

    #[test]
    fn constraint_errors() {
        let bad_root = Document::parse("<nope/>").unwrap();
        assert!(constraints_from_xml(&bad_root).is_err());
        let bad_level =
            Document::parse("<privacyConstraints><constraint level=\"ultra\"><attribute>x</attribute></constraint></privacyConstraints>")
                .unwrap();
        assert!(constraints_from_xml(&bad_level).is_err());
        let no_attrs = Document::parse(
            "<privacyConstraints><constraint level=\"private\"/></privacyConstraints>",
        )
        .unwrap();
        assert!(constraints_from_xml(&no_attrs).is_err());
    }

    #[test]
    fn policy_roundtrip() {
        let policy = PrivacyPolicy::new("shop.example").with_statement(Statement {
            categories: vec![DataCategory::Contact, DataCategory::Behaviour],
            purpose: Purpose::Marketing,
            recipient: Recipient::ThirdParty,
            retention: Retention::Indefinite,
        });
        let xml = policy_to_xml(&policy);
        let parsed = policy_from_xml(&xml).unwrap();
        assert_eq!(parsed, policy);
    }

    #[test]
    fn anonymous_flag_roundtrips() {
        let mut policy = PrivacyPolicy::new("svc");
        policy.supports_anonymous = true;
        let parsed = policy_from_xml(&policy_to_xml(&policy)).unwrap();
        assert!(parsed.supports_anonymous);
    }

    #[test]
    fn policy_wire_roundtrip_through_text() {
        // Serialize → text → parse → compare: the policy can actually
        // travel over the web services stack.
        let policy = PrivacyPolicy::new("svc").with_statement(Statement {
            categories: vec![DataCategory::Health],
            purpose: Purpose::Research,
            recipient: Recipient::Ours,
            retention: Retention::StatedPurpose,
        });
        let text = policy_to_xml(&policy).to_xml_string();
        let reparsed = policy_from_xml(&Document::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed, policy);
    }
}
