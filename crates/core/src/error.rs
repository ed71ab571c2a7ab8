//! The unified error type of the serving layer.
//!
//! Every failure a caller can observe through the request API —
//! stack-processing errors, transport failures, and malformed requests —
//! is wrapped in one `#[non_exhaustive]` [`Error`] carrying a **stable
//! error code**. Codes extend the analyzer's `WSxxx` scheme (static
//! findings use `WS003`–`WS018`; runtime serving errors use the `WS1xx`
//! series) so callers and tooling match on [`Error::code`] instead of
//! display strings.
//!
//! | code  | variant                      | meaning                              |
//! |-------|------------------------------|--------------------------------------|
//! | WS101 | [`Error::UnknownDocument`]   | no document under the requested name |
//! | WS102 | [`Error::ClearanceViolation`]| document label dominates clearance   |
//! | WS103 | [`Error::Channel`]           | secure-channel transit failure       |
//! | WS104 | [`Error::Misconfigured`]     | strict boot gate found error findings|
//! | WS105 | [`Error::InvalidRequest`]    | request missing/invalid a field      |
//! | WS106 | [`Error::ShardPoisoned`]     | shard poisoned / worker panicked     |
//! | WS107 | [`Error::DeadlineExceeded`]  | per-request deadline budget exhausted|
//! | WS108 | [`Error::Overloaded`]        | admission control shed the request   |
//! | WS109 | [`Error::AnalysisRejected`]  | gated update introduced critical findings |

use websec_services::channel::ChannelError;

/// Unified serving-layer error with stable `WS1xx` codes.
///
/// Marked `#[non_exhaustive]`: future PRs may add variants (e.g. shard
/// routing failures) without a breaking change, so downstream `match`es
/// must carry a wildcard arm — typically dispatching on [`Error::code`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `WS101`: the requested document is not under management.
    UnknownDocument(String),
    /// `WS102`: the document's effective label dominates the subject's
    /// clearance (RDF metadata layer refusal).
    ClearanceViolation,
    /// `WS103`: secure-channel transport failure (tampering, replay, wrong
    /// session key, or non-UTF-8 payload).
    Channel(String),
    /// `WS104`: static analysis found error-severity misconfigurations
    /// (strict mode); carries the machine rendering of the findings.
    Misconfigured(String),
    /// `WS105`: the request was malformed (e.g. no query path set).
    InvalidRequest(String),
    /// `WS106`: a serving shard was poisoned or a batch worker panicked;
    /// the affected request was degraded gracefully (the rest of the batch
    /// and the other shards keep serving). Usually transient — poisoned
    /// sessions are evicted, so a retry re-establishes cleanly.
    ShardPoisoned(String),
    /// `WS107`: the request's logical-tick deadline budget (set with
    /// [`crate::request::QueryRequest::deadline_ticks`]) was exhausted
    /// before evaluation completed — checked at queue-pop and again
    /// immediately before evaluation. Not transient: retrying the same
    /// budget against the same latency will fail the same way; callers
    /// should widen the budget instead.
    DeadlineExceeded(String),
    /// `WS108`: admission control shed the request because the batch
    /// exceeded the configured queue capacity
    /// ([`crate::server::StackServer::set_queue_limit`]). Transient by
    /// definition — the server refused the work without starting it, so a
    /// retry after backoff is always safe.
    Overloaded(String),
    /// `WS109`: an [`crate::server::AnalysisGate::Deny`]-gated
    /// [`crate::server::StackServer::try_update`] was rejected because the
    /// mutated configuration would introduce *new* error-severity analyzer
    /// findings; carries their machine rendering. The snapshot is
    /// unchanged. Not transient: the same mutation yields the same
    /// findings — fix the configuration (or drop the gate to `Warn`)
    /// instead of retrying.
    AnalysisRejected(String),
}

impl Error {
    /// The stable error code (`WS101`..`WS105`), aligned with the
    /// analyzer's `WSxxx` diagnostic scheme.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Error::UnknownDocument(_) => "WS101",
            Error::ClearanceViolation => "WS102",
            Error::Channel(_) => "WS103",
            Error::Misconfigured(_) => "WS104",
            Error::InvalidRequest(_) => "WS105",
            Error::ShardPoisoned(_) => "WS106",
            Error::DeadlineExceeded(_) => "WS107",
            Error::Overloaded(_) => "WS108",
            Error::AnalysisRejected(_) => "WS109",
        }
    }

    /// Whether a retry with backoff can reasonably succeed.
    ///
    /// Transient failures are transport-or-capacity conditions that clear
    /// on their own: `WS103` (channel transit), `WS106` (poisoned session
    /// evicted on failure, so the next attempt re-establishes), and
    /// `WS108` (load shed before any work started). Everything else —
    /// unknown documents, clearance refusals, malformed requests,
    /// misconfiguration, exhausted deadlines — is deterministic and
    /// retrying is wasted work. [`crate::server::StackServer::serve_with_retry`]
    /// only retries errors for which this returns `true`.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::Channel(_) | Error::ShardPoisoned(_) | Error::Overloaded(_)
        )
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let code = self.code();
        match self {
            Error::UnknownDocument(d) => write!(f, "[{code}] unknown document '{d}'"),
            Error::ClearanceViolation => {
                write!(f, "[{code}] document label exceeds clearance")
            }
            Error::Channel(m) => write!(f, "[{code}] channel failure: {m}"),
            Error::Misconfigured(m) => write!(f, "[{code}] stack misconfigured:\n{m}"),
            Error::InvalidRequest(m) => write!(f, "[{code}] invalid request: {m}"),
            Error::ShardPoisoned(m) => write!(f, "[{code}] degraded: {m}"),
            Error::DeadlineExceeded(m) => write!(f, "[{code}] deadline exceeded: {m}"),
            Error::Overloaded(m) => write!(f, "[{code}] overloaded: {m}"),
            Error::AnalysisRejected(m) => {
                write!(f, "[{code}] update rejected by analysis gate:\n{m}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<ChannelError> for Error {
    fn from(e: ChannelError) -> Self {
        Error::Channel(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let errors = [
            Error::UnknownDocument("d".into()),
            Error::ClearanceViolation,
            Error::Channel("x".into()),
            Error::Misconfigured("y".into()),
            Error::InvalidRequest("z".into()),
            Error::ShardPoisoned("w".into()),
            Error::DeadlineExceeded("t".into()),
            Error::Overloaded("o".into()),
            Error::AnalysisRejected("g".into()),
        ];
        let codes: Vec<&str> = errors.iter().map(Error::code).collect();
        assert_eq!(
            codes,
            vec![
                "WS101", "WS102", "WS103", "WS104", "WS105", "WS106", "WS107", "WS108", "WS109"
            ]
        );
    }

    #[test]
    fn transience_is_limited_to_transport_and_capacity() {
        assert!(Error::Channel("x".into()).is_transient());
        assert!(Error::ShardPoisoned("x".into()).is_transient());
        assert!(Error::Overloaded("x".into()).is_transient());
        assert!(!Error::UnknownDocument("d".into()).is_transient());
        assert!(!Error::ClearanceViolation.is_transient());
        assert!(!Error::Misconfigured("m".into()).is_transient());
        assert!(!Error::InvalidRequest("m".into()).is_transient());
        assert!(!Error::DeadlineExceeded("m".into()).is_transient());
        assert!(!Error::AnalysisRejected("m".into()).is_transient());
    }

    #[test]
    fn display_leads_with_code() {
        assert!(Error::ClearanceViolation.to_string().starts_with("[WS102]"));
        assert!(Error::UnknownDocument("a".into())
            .to_string()
            .contains("unknown document 'a'"));
    }

    #[test]
    fn channel_error_wraps() {
        let e: Error = ChannelError::BadRecord.into();
        assert_eq!(e.code(), "WS103");
    }

    /// Parity with the shared WS-code registry: every `Error` variant's
    /// code must be registered as a Runtime row, and every Runtime row
    /// must correspond to a variant. The exhaustive (wildcard-free)
    /// match below stops compiling when a variant is added, forcing the
    /// author through this test — and the set equality fails when a
    /// code is added to the registry without a variant (or vice versa).
    #[test]
    fn runtime_codes_match_the_shared_registry() {
        use std::collections::BTreeSet;
        use websec_analyzer::registry::{Phase, REGISTRY};

        let variants = [
            Error::UnknownDocument(String::new()),
            Error::ClearanceViolation,
            Error::Channel(String::new()),
            Error::Misconfigured(String::new()),
            Error::InvalidRequest(String::new()),
            Error::ShardPoisoned(String::new()),
            Error::DeadlineExceeded(String::new()),
            Error::Overloaded(String::new()),
            Error::AnalysisRejected(String::new()),
        ];
        let mut from_variants = BTreeSet::new();
        for e in &variants {
            // Exhaustive in the defining crate: no wildcard arm, so a
            // new variant is a compile error until listed here AND in
            // the `variants` array above AND in the registry.
            let code = match e {
                Error::UnknownDocument(_) => "WS101",
                Error::ClearanceViolation => "WS102",
                Error::Channel(_) => "WS103",
                Error::Misconfigured(_) => "WS104",
                Error::InvalidRequest(_) => "WS105",
                Error::ShardPoisoned(_) => "WS106",
                Error::DeadlineExceeded(_) => "WS107",
                Error::Overloaded(_) => "WS108",
                Error::AnalysisRejected(_) => "WS109",
            };
            assert_eq!(code, e.code());
            from_variants.insert(code);
        }
        let registered: BTreeSet<&str> = REGISTRY
            .iter()
            .filter(|i| i.phase == Phase::Runtime)
            .map(|i| i.code)
            .collect();
        assert_eq!(registered, from_variants);
    }
}
