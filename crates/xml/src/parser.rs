//! Recursive-descent parser for a well-formed XML subset.
//!
//! Supported: elements, attributes (single- or double-quoted), text content,
//! the five predefined entities, numeric character references, comments,
//! processing instructions and an XML declaration (both skipped), and a
//! `<!DOCTYPE ...>` prolog (skipped). Not supported: namespaces-as-semantics
//! (prefixes are kept verbatim in names), CDATA sections, DTD internal
//! subsets.
//!
//! The parser recurses once per element nesting level, so nesting is
//! bounded: a document nested deeper than `MAX_DEPTH` levels is refused
//! with a [`ParseError`] instead of overflowing the stack.

use std::collections::HashSet;

use crate::node::{Document, NodeId, NodeKind};

/// Deepest element nesting [`Document::parse`] accepts (the root is level
/// 1). Deeper input fails closed with a [`ParseError`].
const MAX_DEPTH: usize = 256;

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    /// The whole input. Scanning is bytewise; text and attribute
    /// characters are decoded one at a time from this already-valid
    /// `&str`.
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (no internal subset support).
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'>' {
                        break;
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        while self.pos < self.input.len() {
            if self.starts_with(end) {
                self.bump(end.len());
                return Ok(());
            }
            self.pos += 1;
        }
        self.err(format!("unterminated construct, expected '{end}'"))
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        let name = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| ParseError {
                offset: start,
                message: "name is not valid UTF-8".into(),
            })?
            .to_string();
        if name.as_bytes()[0].is_ascii_digit() {
            return self.err("names may not start with a digit");
        }
        Ok(name)
    }

    fn parse_reference(&mut self) -> Result<char, ParseError> {
        // self.pos is at '&'
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b';' {
                break;
            }
            self.pos += 1;
        }
        if self.peek() != Some(b';') {
            return self.err("unterminated entity reference");
        }
        let body = std::str::from_utf8(&self.bytes()[start..self.pos]).map_err(|_| ParseError {
            offset: start,
            message: "entity is not valid UTF-8".into(),
        })?;
        self.pos += 1; // consume ';'
        match body {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                let code = u32::from_str_radix(&body[2..], 16).map_err(|_| ParseError {
                    offset: start,
                    message: format!("bad hex character reference '&{body};'"),
                })?;
                char::from_u32(code).ok_or(ParseError {
                    offset: start,
                    message: format!("invalid code point {code}"),
                })
            }
            _ if body.starts_with('#') => {
                let code: u32 = body[1..].parse().map_err(|_| ParseError {
                    offset: start,
                    message: format!("bad character reference '&{body};'"),
                })?;
                char::from_u32(code).ok_or(ParseError {
                    offset: start,
                    message: format!("invalid code point {code}"),
                })
            }
            _ => Err(ParseError {
                offset: start,
                message: format!("unknown entity '&{body};'"),
            }),
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.pos += 1;
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(c) if c == quote => {
                    self.pos += 1;
                    return Ok(value);
                }
                Some(b'&') => value.push(self.parse_reference()?),
                Some(b'<') => return self.err("'<' not allowed in attribute value"),
                Some(_) => {
                    let ch = self.next_char()?;
                    value.push(ch);
                }
            }
        }
    }

    /// Decodes the one character at `pos` in constant time. A `pos`
    /// inside a multi-byte character is a [`ParseError`], not a panic.
    fn next_char(&mut self) -> Result<char, ParseError> {
        let rest = self.input.get(self.pos..).ok_or(ParseError {
            offset: self.pos,
            message: "position is inside a UTF-8 character".into(),
        })?;
        let ch = rest.chars().next().ok_or(ParseError {
            offset: self.pos,
            message: "unexpected end of input".into(),
        })?;
        self.pos += ch.len_utf8();
        Ok(ch)
    }

    /// Parses one element (cursor at `<`) at nesting level `depth`; adds
    /// it under `parent`. `names` is the document's one attribute-name set:
    /// each start tag clears and refills it, so once it has grown a tag's
    /// duplicate check allocates nothing.
    fn parse_element(
        &mut self,
        doc: &mut Document,
        names: &mut HashSet<&'a str>,
        parent: Option<NodeId>,
        depth: usize,
    ) -> Result<NodeId, ParseError> {
        if depth > MAX_DEPTH {
            return self.err(format!("element nesting deeper than {MAX_DEPTH} levels"));
        }
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let id = match parent {
            Some(p) => doc.add_element(p, &name),
            None => {
                // The Document was created with this root name already.
                doc.root()
            }
        };
        // Attributes, collected in order and stored on the element at once.
        // Their names, as slices of the input, go into `names`, so a start
        // tag with n attributes parses in O(n) expected time.
        let input = self.input;
        let mut collected: Vec<(String, String)> = Vec::new();
        names.clear();
        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    break true;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(_) => {
                    let name_at = self.pos;
                    let attr_name = self.parse_name()?;
                    let name = &input[name_at..self.pos];
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if !names.insert(name) {
                        return self.err(format!("duplicate attribute '{attr_name}'"));
                    }
                    collected.push((attr_name, value));
                }
                None => return self.err("unterminated start tag"),
            }
        };
        if let NodeKind::Element { attributes, .. } = &mut doc.nodes[id.index()].kind {
            *attributes = collected;
        }
        if self_closing {
            return Ok(id);
        }
        // Content.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return self.err(format!("missing closing tag for <{name}>")),
                Some(b'<') => {
                    if !text.trim().is_empty() {
                        doc.add_text(id, &text);
                    }
                    text.clear();
                    if self.starts_with("</") {
                        self.bump(2);
                        let close = self.parse_name()?;
                        if close != name {
                            return self.err(format!(
                                "mismatched closing tag: expected </{name}>, found </{close}>"
                            ));
                        }
                        self.skip_ws();
                        self.expect(b'>')?;
                        return Ok(id);
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        self.parse_element(doc, names, Some(id), depth + 1)?;
                    }
                }
                Some(b'&') => text.push(self.parse_reference()?),
                Some(_) => text.push(self.next_char()?),
            }
        }
    }
}

impl Document {
    /// Parses an XML string into a document. Nesting deeper than 256
    /// levels is refused with a [`ParseError`].
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        let mut p = Parser { input, pos: 0 };
        p.skip_misc()?;
        if p.peek() != Some(b'<') {
            return p.err("expected root element");
        }
        // Peek the root name to construct the Document.
        let save = p.pos;
        p.pos += 1;
        let root_name = p.parse_name()?;
        p.pos = save;
        let mut doc = Document::new(&root_name);
        p.parse_element(&mut doc, &mut HashSet::new(), None, 1)?;
        p.skip_misc()?;
        if p.pos != p.input.len() {
            return p.err("trailing content after root element");
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let d = Document::parse("<a><b x=\"1\">hi</b></a>").unwrap();
        assert_eq!(d.name(d.root()), Some("a"));
        let b = d.children(d.root()).next().unwrap();
        assert_eq!(d.name(b), Some("b"));
        assert_eq!(d.attribute(b, "x"), Some("1"));
        assert_eq!(d.text_content(b), "hi");
    }

    #[test]
    fn roundtrip_parse_serialize() {
        let src = "<catalog><item id=\"i1\"><price>10</price></item><item id=\"i2\"/></catalog>";
        let d = Document::parse(src).unwrap();
        assert_eq!(d.to_xml_string(), src);
    }

    #[test]
    fn parses_declaration_comments_doctype() {
        let src = "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE r><r><!-- inner -->x</r>";
        let d = Document::parse(src).unwrap();
        assert_eq!(d.text_content(d.root()), "x");
    }

    #[test]
    fn entities_decoded() {
        let d = Document::parse("<r a=\"&quot;q&quot;\">&lt;&amp;&gt; &#65;&#x42;</r>").unwrap();
        assert_eq!(d.attribute(d.root(), "a"), Some("\"q\""));
        assert_eq!(d.text_content(d.root()), "<&> AB");
    }

    #[test]
    fn single_quoted_attributes() {
        let d = Document::parse("<r a='v'/>").unwrap();
        assert_eq!(d.attribute(d.root(), "a"), Some("v"));
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = Document::parse("<r>\n  <a/>\n  <b/>\n</r>").unwrap();
        let kinds: Vec<bool> = d
            .children(d.root())
            .map(|c| matches!(d.kind(c), NodeKind::Element { .. }))
            .collect();
        assert_eq!(kinds, vec![true, true]);
    }

    #[test]
    fn error_mismatched_tags() {
        let e = Document::parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn error_unterminated() {
        assert!(Document::parse("<a><b>").is_err());
        assert!(Document::parse("<a").is_err());
    }

    #[test]
    fn error_duplicate_attribute() {
        let e = Document::parse("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn error_trailing_content() {
        let e = Document::parse("<a/><b/>").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn error_unknown_entity() {
        assert!(Document::parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn error_digit_leading_name() {
        assert!(Document::parse("<1a/>").is_err());
    }

    #[test]
    fn deep_nesting() {
        let mut src = String::new();
        for i in 0..100 {
            src.push_str(&format!("<n{i}>"));
        }
        for i in (0..100).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let d = Document::parse(&src).unwrap();
        assert_eq!(d.node_count(), 100);
    }

    fn nested(depth: usize) -> String {
        "<n>".repeat(depth) + &"</n>".repeat(depth)
    }

    #[test]
    fn nesting_at_the_limit_round_trips() {
        let d = Document::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(d.node_count(), MAX_DEPTH);
        let xml = d.to_xml_string();
        assert_eq!(Document::parse(&xml).unwrap().to_xml_string(), xml);
    }

    #[test]
    fn nesting_past_the_limit_is_refused() {
        let err = Document::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(
            err.offset,
            3 * MAX_DEPTH,
            "refused at the first level too deep"
        );
    }

    #[test]
    fn hostile_nesting_fails_closed() {
        assert!(Document::parse(&nested(100_000)).is_err());
    }

    #[test]
    fn unicode_content() {
        let d = Document::parse("<r>héllo wörld — ✓</r>").unwrap();
        assert_eq!(d.text_content(d.root()), "héllo wörld — ✓");
    }

    #[test]
    fn megabyte_text_and_attribute_round_trip() {
        const MIB: usize = 1 << 20;
        // Multi-byte characters and escapes, so every decoding branch runs
        // a million times.
        let text: String = "ab<é&✓>".chars().cycle().take(MIB).collect();
        let mut d = Document::new("r");
        d.add_text(d.root(), &text);
        d.set_attribute(d.root(), "v", &text);
        let xml = d.to_xml_string();
        let parsed = Document::parse(&xml).unwrap();
        assert_eq!(parsed.text_content(parsed.root()), text);
        assert_eq!(parsed.attribute(parsed.root(), "v"), Some(text.as_str()));
        let reparsed = Document::parse(&parsed.to_xml_string()).unwrap();
        assert_eq!(reparsed.to_xml_string(), xml);
    }

    /// One start tag carrying `count` distinct attributes (1.48 MB for
    /// 100,000).
    fn wide_start_tag(count: usize) -> String {
        let mut xml = String::from("<r");
        for i in 0..count {
            xml.push_str(&format!(" a{i}=\"{i}\""));
        }
        xml.push_str("/>");
        xml
    }

    #[test]
    fn megabyte_start_tag_with_distinct_attributes_round_trips() {
        const COUNT: usize = 100_000;
        let xml = wide_start_tag(COUNT);
        assert!(xml.len() > 1_000_000, "{} bytes", xml.len());
        let parsed = Document::parse(&xml).unwrap();
        let attributes = parsed.attributes(parsed.root());
        assert_eq!(attributes.len(), COUNT);
        assert_eq!(attributes[0], ("a0".to_string(), "0".to_string()));
        assert_eq!(attributes[COUNT - 1].1, (COUNT - 1).to_string());
        assert_eq!(parsed.to_xml_string(), xml);
        let reparsed = Document::parse(&parsed.to_xml_string()).unwrap();
        assert_eq!(reparsed.to_xml_string(), xml);
    }

    #[test]
    fn megabyte_start_tag_with_one_duplicate_is_refused() {
        let xml = wide_start_tag(100_000).replace(" a99999=", " a50000=");
        let err = Document::parse(&xml).unwrap_err();
        assert!(
            err.message.contains("duplicate attribute 'a50000'"),
            "{err}"
        );
    }

    #[test]
    fn position_inside_a_character_is_an_error() {
        let input = "é";
        let mut p = Parser { input, pos: 1 };
        let err = p.next_char().unwrap_err();
        assert_eq!(err.offset, 1);
        assert!(err.message.contains("inside"), "{err}");
    }

    #[test]
    fn reparse_of_serialized_escapes() {
        let mut d = Document::new("r");
        d.add_text(d.root(), "a<b&c>d\"e");
        let s = d.to_xml_string();
        let d2 = Document::parse(&s).unwrap();
        assert_eq!(d2.text_content(d2.root()), "a<b&c>d\"e");
    }
}
