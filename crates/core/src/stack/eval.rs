//! Read-only query evaluation over a stack snapshot.
//!
//! [`SecureWebStack::execute`] takes `&self`: it never mutates the stack,
//! so any number of threads may evaluate queries concurrently over a shared
//! snapshot. The flexible gate is consulted through its pure
//! [`websec_policy::flexible::FlexibleEnforcer::decide`] path; gate
//! *statistics* are aggregated by the serving layer
//! ([`crate::server::MetricsSnapshot`]) instead of mutating the stack.

use std::sync::Arc;
use std::time::Instant;

use crate::error::Error;
use crate::query::hits;
use crate::request::{CacheStatus, Decision, QueryRequest, QueryResponse};
use crate::stack::SecureWebStack;
use websec_policy::SubjectProfile;
use websec_services::ChannelSession;
use websec_xml::{Document, Path};

/// Per-layer elapsed time for one request, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimings {
    /// Secure-channel transit (both directions).
    pub channel_ns: u128,
    /// RDF metadata / label checking.
    pub rdf_ns: u128,
    /// Policy evaluation and view computation.
    pub xml_ns: u128,
    /// Flexible-enforcement gating.
    pub gate_ns: u128,
    /// Time spent inside the compiled decision tables
    /// ([`websec_policy::CompiledPolicies`]) while resolving the view.
    /// This is an *attribution within* [`LayerTimings::xml_ns`], not an
    /// additional layer, so [`LayerTimings::total_ns`] does not include it.
    pub compile_ns: u128,
}

impl LayerTimings {
    /// Total time across layers. `compile_ns` is an attribution inside
    /// `xml_ns` and is deliberately not added again.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.channel_ns + self.rdf_ns + self.xml_ns + self.gate_ns
    }
}

/// The outcome of view resolution: the authorized view plus how it was
/// produced — which cache level served it, and how long the compiled
/// decision tables took to build it.
pub(crate) struct ResolvedView {
    pub(crate) view: Arc<Document>,
    pub(crate) cache: CacheStatus,
    /// Nanoseconds spent inside the compiled tables (0 on a cache hit and
    /// on the interpreting [`FreshViews`] path).
    pub(crate) compile_ns: u128,
}

/// Resolves the subject's view of a document, reporting whether a cache
/// served it. The serving layer plugs its snapshot's L2 view cache in
/// here; the direct [`SecureWebStack::execute`] path uses [`FreshViews`],
/// which always computes.
pub(crate) trait ViewResolver {
    fn resolve(
        &mut self,
        stack: &SecureWebStack,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
    ) -> ResolvedView;
}

/// The cacheless resolver: recomputes the view on every request.
pub(crate) struct FreshViews;

impl ViewResolver for FreshViews {
    fn resolve(
        &mut self,
        stack: &SecureWebStack,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
    ) -> ResolvedView {
        ResolvedView {
            view: Arc::new(
                stack
                    .engine
                    .compute_view(&stack.policies, profile, doc_name, doc),
            ),
            cache: CacheStatus::Bypass,
            compile_ns: 0,
        }
    }
}

/// The request key fed to the flexible-enforcement gate: the subject's
/// identity, the document and the path's source text.
pub(crate) fn gate_key(identity: &str, doc_name: &str, path: &Path) -> String {
    format!("{identity}|{doc_name}|{}", path.source())
}

impl SecureWebStack {
    /// Processes one request through all four layers.
    ///
    /// This is the sessionless convenience path: it performs a one-shot
    /// channel handshake and computes the subject's view without caching.
    /// Production traffic should go through a
    /// [`crate::server::StackServer`], which reuses one session per subject
    /// and caches policy views across requests.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, Error> {
        let mut session = ChannelSession::establish(
            &self.session_key,
            &request.subject_profile().identity,
            self.channel_protected,
        );
        self.execute_in_session(request, &mut session, &mut FreshViews)
    }

    /// The full evaluation pipeline over an established session, with view
    /// resolution delegated to `resolver` (the serving layer's cache hook).
    pub(crate) fn execute_in_session(
        &self,
        request: &QueryRequest,
        session: &mut ChannelSession,
        resolver: &mut impl ViewResolver,
    ) -> Result<QueryResponse, Error> {
        let path = request
            .query_path()
            .ok_or_else(|| Error::InvalidRequest("query path not set".into()))?;
        let profile = request.subject_profile();
        let doc_name = request.doc_name();
        let mut timings = LayerTimings::default();

        // Layer 1 (inbound): the query transits the established session.
        let t = Instant::now();
        let _query_bytes = session.transit_to_server(path.source().as_bytes())?;
        timings.channel_ns += t.elapsed().as_nanos();

        // Layer 4 gate first: is this request fully enforced?
        let t = Instant::now();
        let key = gate_key(&profile.identity, doc_name, path);
        let enforce = matches!(
            self.gate.decide(key.as_bytes()),
            websec_policy::flexible::GateOutcome::Enforce
        );
        timings.gate_ns += t.elapsed().as_nanos();

        // Layer 3: RDF metadata — label vs clearance.
        let t = Instant::now();
        if enforce {
            if let Some(label) = self.label_of(doc_name) {
                if !request.clearance_level().can_read(label, &self.context) {
                    return Err(Error::ClearanceViolation);
                }
            }
        }
        timings.rdf_ns += t.elapsed().as_nanos();

        // Layer 2: XML security — view resolution and query.
        let t = Instant::now();
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| Error::UnknownDocument(doc_name.to_string()))?;
        let (result_xml, cache): (String, _) = if enforce {
            let resolved = resolver.resolve(self, profile, doc_name, doc);
            timings.compile_ns += resolved.compile_ns;
            (hits(&resolved.view, path).collect(), resolved.cache)
        } else {
            // Unchecked fast path: raw query on the stored document, which
            // has no shell, answered in the same format.
            (hits(doc, path).collect(), CacheStatus::Bypass)
        };
        timings.xml_ns += t.elapsed().as_nanos();

        // Layer 1 (outbound): response transits the session.
        let t = Instant::now();
        let received = session.transit_to_client(result_xml.as_bytes())?;
        timings.channel_ns += t.elapsed().as_nanos();

        let text =
            String::from_utf8(received).map_err(|_| Error::Channel("response not UTF-8".into()))?;
        Ok(QueryResponse {
            xml: text,
            decision: if enforce {
                Decision::Enforced
            } else {
                Decision::AdmittedUnchecked
            },
            cache,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::{Clearance, ContextLabel, Level, SecurityContext};
    use websec_policy::{Authorization, FlexibleEnforcer, ObjectSpec, Privilege, SubjectSpec};

    fn stack() -> SecureWebStack {
        let mut s = SecureWebStack::new([3u8; 32]);
        let doc = Document::parse(
            "<hospital><patient id=\"p1\"><name>Alice</name></patient><admin><budget>9</budget></admin></hospital>",
        )
        .unwrap();
        s.add_document("h.xml", doc, ContextLabel::fixed(Level::Unclassified));
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        s
    }

    fn request(identity: &str, clearance: Clearance, doc: &str, path: &str) -> QueryRequest {
        QueryRequest::for_doc(doc)
            .path(Path::parse(path).unwrap())
            .subject(&SubjectProfile::new(identity))
            .clearance(clearance)
    }

    #[test]
    fn query_through_all_layers() {
        let s = stack();
        let response = s
            .execute(&request(
                "doctor",
                Clearance(Level::Unclassified),
                "h.xml",
                "//patient",
            ))
            .unwrap();
        assert!(response.xml.contains("Alice"), "{}", response.xml);
        assert!(!response.xml.contains("budget"), "{}", response.xml);
        assert_eq!(response.decision, Decision::Enforced);
        assert!(response.timings.total_ns() > 0);
    }

    #[test]
    fn policy_denies_unauthorized_subject() {
        let s = stack();
        let response = s
            .execute(&request(
                "stranger",
                Clearance(Level::Unclassified),
                "h.xml",
                "//patient",
            ))
            .unwrap();
        assert!(!response.xml.contains("Alice"), "{}", response.xml);
    }

    #[test]
    fn clearance_violation_blocks() {
        let mut s = SecureWebStack::new([3u8; 32]);
        s.add_document(
            "secret.xml",
            Document::parse("<ops><plan>x</plan></ops>").unwrap(),
            ContextLabel::fixed(Level::Secret),
        );
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::AllDocuments)
                .privilege(Privilege::Read)
                .grant(),
        );
        let err = s
            .execute(&request(
                "public",
                Clearance(Level::Unclassified),
                "secret.xml",
                "//plan",
            ))
            .unwrap_err();
        assert_eq!(err, Error::ClearanceViolation);
        assert_eq!(err.code(), "WS102");
        // A cleared analyst gets through.
        assert!(s
            .execute(&request(
                "analyst",
                Clearance(Level::Secret),
                "secret.xml",
                "//plan",
            ))
            .is_ok());
    }

    #[test]
    fn declassification_at_the_stack_level() {
        let mut s = SecureWebStack::new([4u8; 32]);
        s.add_document(
            "war.xml",
            Document::parse("<ops><plan>x</plan></ops>").unwrap(),
            ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified),
        );
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::AllDocuments)
                .privilege(Privilege::Read)
                .grant(),
        );
        s.context = SecurityContext::new().with_condition("wartime");
        let req = request(
            "journalist",
            Clearance(Level::Unclassified),
            "war.xml",
            "//plan",
        );
        assert_eq!(s.execute(&req).unwrap_err(), Error::ClearanceViolation);
        // The war ends; the same query now succeeds.
        s.context = SecurityContext::new();
        assert!(s.execute(&req).is_ok());
    }

    #[test]
    fn unknown_document_error() {
        let s = stack();
        let err = s
            .execute(&request(
                "doctor",
                Clearance(Level::TopSecret),
                "nope.xml",
                "//x",
            ))
            .unwrap_err();
        assert_eq!(err, Error::UnknownDocument("nope.xml".into()));
        assert_eq!(err.code(), "WS101");
    }

    #[test]
    fn missing_path_is_invalid_request() {
        let s = stack();
        let err = s.execute(&QueryRequest::for_doc("h.xml")).unwrap_err();
        assert_eq!(err.code(), "WS105");
    }

    #[test]
    fn reduced_enforcement_skips_checks() {
        let mut s = stack();
        s.gate = FlexibleEnforcer::new(0, [3u8; 32]);
        // At 0% enforcement even a stranger gets the fast path (exposure!).
        let response = s
            .execute(&request(
                "stranger",
                Clearance(Level::Unclassified),
                "h.xml",
                "//patient",
            ))
            .unwrap();
        assert!(response.xml.contains("Alice"), "{}", response.xml);
        assert_eq!(response.decision, Decision::AdmittedUnchecked);
        assert_eq!(response.cache, CacheStatus::Bypass);
    }

    #[test]
    fn unchecked_and_enforced_answers_share_one_format() {
        let mut s = SecureWebStack::new([3u8; 32]);
        let doc = Document::parse(
            "<hospital><patient ssn=\"1\" id=\"p1\"><name>Alice</name><note/></patient></hospital>",
        )
        .unwrap();
        s.add_document("h.xml", doc, ContextLabel::fixed(Level::Unclassified));
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let req = request(
            "anyone",
            Clearance(Level::Unclassified),
            "h.xml",
            "//patient",
        );
        let enforced = s.execute(&req).unwrap();
        s.gate = FlexibleEnforcer::new(0, [3u8; 32]);
        let unchecked = s.execute(&req).unwrap();
        assert_eq!(enforced.decision, Decision::Enforced);
        assert_eq!(unchecked.decision, Decision::AdmittedUnchecked);
        assert_eq!(
            enforced.xml,
            "<hospital><patient ssn=\"1\" id=\"p1\"><name>Alice</name><note/></patient></hospital>"
        );
        assert_eq!(unchecked.xml, enforced.xml);
    }
}
