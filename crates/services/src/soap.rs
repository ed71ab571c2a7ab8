//! SOAP-lite envelopes.

use websec_xml::{Document, NodeKind, ParseError, Path};

/// A SOAP-lite envelope: named header blocks plus a body document.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// `(block name, text value)` header entries.
    pub headers: Vec<(String, String)>,
    /// The body payload.
    pub body: Document,
}

impl Envelope {
    /// Wraps a body document.
    #[must_use]
    pub fn new(body: Document) -> Self {
        Envelope {
            headers: Vec::new(),
            body,
        }
    }

    /// Adds a header block (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// First header with the given name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the envelope as an XML document.
    #[must_use]
    pub fn to_document(&self) -> Document {
        let mut d = Document::new("Envelope");
        let root = d.root();
        let header = d.add_element(root, "Header");
        for (name, value) in &self.headers {
            let block = d.add_element(header, name);
            d.add_text(block, value);
        }
        let body_el = d.add_element(root, "Body");
        copy_subtree(&self.body, self.body.root(), &mut d, body_el);
        d
    }

    /// Serializes to XML text (the wire format).
    #[must_use]
    pub fn to_xml(&self) -> String {
        self.to_document().to_xml_string()
    }

    /// Parses an envelope off the wire.
    pub fn parse(xml: &str) -> Result<Envelope, ParseError> {
        let d = Document::parse(xml)?;
        let bad = |message: &str| ParseError {
            offset: 0,
            message: message.to_string(),
        };
        if d.name(d.root()) != Some("Envelope") {
            return Err(bad("not a SOAP envelope"));
        }
        let mut headers = Vec::new();
        for h in Path::parse("/Envelope/Header/*")
            .expect("static path")
            .select_nodes(&d)
        {
            let name = d.name(h).unwrap_or("").to_string();
            headers.push((name, d.text_content(h)));
        }
        let body_children: Vec<_> = Path::parse("/Envelope/Body/*")
            .expect("static path")
            .select_nodes(&d);
        let &payload_root = body_children
            .first()
            .ok_or_else(|| bad("empty SOAP body"))?;
        let mut body = Document::new(d.name(payload_root).unwrap_or("payload"));
        for (k, v) in d.attributes(payload_root) {
            body.set_attribute(body.root(), k, v);
        }
        let target = body.root();
        for child in d.children(payload_root).collect::<Vec<_>>() {
            copy_node(&d, child, &mut body, target);
        }
        Ok(Envelope { headers, body })
    }
}

/// Copies the children (and attributes) of `src_node` under `dst_parent`.
fn copy_subtree(
    src: &Document,
    src_node: websec_xml::NodeId,
    dst: &mut Document,
    dst_parent: websec_xml::NodeId,
) {
    // Re-create src_node itself under dst_parent.
    copy_node(src, src_node, dst, dst_parent);
}

fn copy_node(
    src: &Document,
    node: websec_xml::NodeId,
    dst: &mut Document,
    dst_parent: websec_xml::NodeId,
) {
    match src.kind(node) {
        NodeKind::Element { name, attributes } => {
            let e = dst.add_element(dst_parent, name);
            for (k, v) in attributes {
                dst.set_attribute(e, k, v);
            }
            for child in src.children(node).collect::<Vec<_>>() {
                copy_node(src, child, dst, e);
            }
        }
        NodeKind::Text(t) => {
            dst.add_text(dst_parent, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> Document {
        Document::parse("<getQuote symbol=\"ACME\"><detail>full</detail></getQuote>").unwrap()
    }

    #[test]
    fn hostile_nesting_fails_closed() {
        let depth = 100_000;
        let xml = format!(
            "<Envelope><Body>{}{}</Body></Envelope>",
            "<n>".repeat(depth),
            "</n>".repeat(depth)
        );
        assert!(Envelope::parse(&xml).is_err());
    }

    #[test]
    fn render_structure() {
        let env = Envelope::new(body()).with_header("MessageId", "m-1");
        let xml = env.to_xml();
        assert!(xml.starts_with("<Envelope><Header>"), "{xml}");
        assert!(xml.contains("<MessageId>m-1</MessageId>"), "{xml}");
        assert!(xml.contains("<Body><getQuote symbol=\"ACME\">"), "{xml}");
    }

    #[test]
    fn wire_roundtrip() {
        let env = Envelope::new(body())
            .with_header("MessageId", "m-1")
            .with_header("Subject", "alice");
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.header("MessageId"), Some("m-1"));
        assert_eq!(parsed.header("Subject"), Some("alice"));
        assert_eq!(parsed.body.to_xml_string(), body().to_xml_string());
    }

    #[test]
    fn header_lookup() {
        let env = Envelope::new(body()).with_header("A", "1").with_header("A", "2");
        assert_eq!(env.header("A"), Some("1")); // first wins
        assert_eq!(env.header("B"), None);
    }

    #[test]
    fn parse_rejects_non_envelope() {
        assert!(Envelope::parse("<notsoap/>").is_err());
        assert!(Envelope::parse("<Envelope><Header/><Body/></Envelope>").is_err());
        assert!(Envelope::parse("not xml").is_err());
    }

    #[test]
    fn empty_headers_ok() {
        let env = Envelope::new(body());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.headers.is_empty());
    }

    #[test]
    fn special_characters_survive_wire() {
        let mut payload = Document::new("note");
        payload.set_attribute(payload.root(), "title", "Q1 <draft> & \"final\"");
        payload.add_text(payload.root(), "amount < 100 & status > ok — ünïcode");
        let env = Envelope::new(payload).with_header("Tag", "a&b<c>");
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.header("Tag"), Some("a&b<c>"));
        assert_eq!(
            parsed.body.attribute(parsed.body.root(), "title"),
            Some("Q1 <draft> & \"final\"")
        );
        assert_eq!(
            parsed.body.text_content(parsed.body.root()),
            "amount < 100 & status > ok — ünïcode"
        );
    }
}
