//! Diagnostic and report types shared by all analyzer passes.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, not necessarily wrong.
    Info,
    /// Likely misconfiguration; the stack still functions.
    Warning,
    /// Definite misconfiguration; strict mode refuses to boot.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`WS003`..`WS018`, or a `LINT-*` rule).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// The subject/object span the finding is about (e.g. an authorization
    /// pair, a label name, a constraint's attribute set).
    pub span: String,
    /// Human-readable description of the problem.
    pub message: String,
    /// Actionable suggestion, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic without a suggestion.
    #[must_use]
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            span: span.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Line-oriented machine form: `CODE|severity|span|message`.
    #[must_use]
    pub fn machine_line(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.code, self.severity, self.span, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    suggestion: {s}")?;
        }
        Ok(())
    }
}

/// The aggregate result of an analyzer run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in pass order (lowest code first).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no diagnostics were produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code.
    #[must_use]
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Count of findings at `severity` or worse.
    #[must_use]
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= severity)
            .count()
    }

    /// Human-readable multi-line rendering.
    #[must_use]
    pub fn human(&self) -> String {
        if self.is_clean() {
            return "analysis clean: no findings".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding(s): {} error(s), {} warning(s), {} info",
            self.diagnostics.len(),
            self.with_code_severity(Severity::Error),
            self.with_code_severity(Severity::Warning),
            self.with_code_severity(Severity::Info),
        ));
        out
    }

    fn with_code_severity(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Line-oriented machine rendering: one `machine_line` per finding.
    #[must_use]
    pub fn machine(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::machine_line)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Sorts diagnostics into the canonical emission order — by
    /// `(code, span, severity, message, suggestion)` — so that two runs over
    /// the same input produce byte-identical [`Report::machine`] and
    /// [`Report::to_json`] output regardless of pass scheduling.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code, &a.span, a.severity, &a.message, &a.suggestion).cmp(&(
                b.code,
                &b.span,
                b.severity,
                &b.message,
                &b.suggestion,
            ))
        });
    }

    /// Stable JSON serialization: an object with a `diagnostics` array whose
    /// entries carry `code`, `severity`, `span`, `message` and (when present)
    /// `suggestion`, in normalized field order with deterministic escaping.
    /// Two byte-identical inputs yield two byte-identical JSON documents, so
    /// CI can diff runs directly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            push_json_string(&mut out, d.code);
            out.push_str(",\"severity\":");
            push_json_string(&mut out, &d.severity.to_string());
            out.push_str(",\"span\":");
            push_json_string(&mut out, &d.span);
            out.push_str(",\"message\":");
            push_json_string(&mut out, &d.message);
            if let Some(s) = &d.suggestion {
                out.push_str(",\"suggestion\":");
                push_json_string(&mut out, s);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `value` to `out` as a JSON string literal with standard escaping.
fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn machine_line_shape() {
        let d = Diagnostic::new("WS014", Severity::Error, "a1/a2", "conflict");
        assert_eq!(d.machine_line(), "WS014|error|a1/a2|conflict");
    }

    #[test]
    fn report_queries() {
        let mut r = Report::default();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        r.diagnostics
            .push(Diagnostic::new("WS005", Severity::Warning, "x", "m"));
        r.diagnostics
            .push(Diagnostic::new("WS014", Severity::Error, "y", "n"));
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.with_code("WS005").len(), 1);
        assert_eq!(r.count_at_least(Severity::Warning), 2);
        assert_eq!(r.count_at_least(Severity::Error), 1);
    }

    #[test]
    fn human_rendering_mentions_suggestion() {
        let d = Diagnostic::new("WS005", Severity::Warning, "s", "dangling")
            .with_suggestion("remove the rule");
        assert!(d.to_string().contains("suggestion: remove the rule"));
    }

    #[test]
    fn normalize_sorts_by_code_then_span() {
        let mut r = Report::default();
        r.diagnostics
            .push(Diagnostic::new("WS007", Severity::Warning, "b", "m2"));
        r.diagnostics
            .push(Diagnostic::new("WS007", Severity::Warning, "a", "m1"));
        r.diagnostics
            .push(Diagnostic::new("WS005", Severity::Error, "z", "m0"));
        r.normalize();
        let order: Vec<(&str, &str)> = r
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.as_str()))
            .collect();
        assert_eq!(order, vec![("WS005", "z"), ("WS007", "a"), ("WS007", "b")]);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Report::default();
        r.diagnostics.push(
            Diagnostic::new("WS003", Severity::Info, "label \"x\"", "line1\nline2")
                .with_suggestion("tab\there"),
        );
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"diagnostics\":[{\"code\":\"WS003\",\"severity\":\"info\",\
             \"span\":\"label \\\"x\\\"\",\"message\":\"line1\\nline2\",\
             \"suggestion\":\"tab\\there\"}]}"
        );
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn empty_report_json() {
        assert_eq!(Report::default().to_json(), "{\"diagnostics\":[]}");
    }
}
