//! The redesigned request/response API of the serving layer.
//!
//! A query is described by a [`QueryRequest`] built fluently:
//!
//! ```
//! use websec_core::prelude::*;
//!
//! let profile = SubjectProfile::new("doctor");
//! let request = QueryRequest::for_doc("h.xml")
//!     .path(Path::parse("//patient").unwrap())
//!     .subject(&profile)
//!     .clearance(Clearance(Level::Unclassified));
//! assert_eq!(request.doc_name(), "h.xml");
//! ```
//!
//! and answered by a [`QueryResponse`] bundling the view XML, the
//! enforcement [`Decision`], the cache outcome, and per-layer timings.

use crate::stack::LayerTimings;
use websec_policy::mls::{Clearance, Level};
use websec_policy::SubjectProfile;
use websec_xml::Path;

/// A single document query, built fluently starting from
/// [`QueryRequest::for_doc`]. Unset fields default to an anonymous subject
/// with Unclassified clearance; the query path is mandatory (executing a
/// request without one yields `WS105`).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    doc: String,
    path: Option<Path>,
    subject: SubjectProfile,
    clearance: Clearance,
    deadline: Option<u64>,
}

impl QueryRequest {
    /// Starts a request against the named document.
    #[must_use]
    pub fn for_doc(doc: &str) -> Self {
        QueryRequest {
            doc: doc.to_string(),
            path: None,
            subject: SubjectProfile::new("anonymous"),
            clearance: Clearance(Level::Unclassified),
            deadline: None,
        }
    }

    /// Sets the query path (mandatory).
    #[must_use]
    pub fn path(mut self, path: Path) -> Self {
        self.path = Some(path);
        self
    }

    /// Sets the requesting subject's profile (identity, roles, credentials).
    #[must_use]
    pub fn subject(mut self, profile: &SubjectProfile) -> Self {
        self.subject = profile.clone();
        self
    }

    /// Sets the subject's MLS clearance.
    #[must_use]
    pub fn clearance(mut self, clearance: Clearance) -> Self {
        self.clearance = clearance;
        self
    }

    /// Gives the request a deadline budget in **logical-clock ticks**
    /// (see [`crate::server::StackServer::logical_now`]; the clock only
    /// advances on injected slowdowns and retry backoffs, never on wall
    /// time, so deadline behavior is deterministic). The budget is
    /// converted to an absolute deadline when the server admits the
    /// request and checked at queue-pop and again immediately before
    /// evaluation; exhaustion yields `WS107`.
    #[must_use]
    pub fn deadline_ticks(mut self, budget: u64) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The requested document name.
    #[must_use]
    pub fn doc_name(&self) -> &str {
        &self.doc
    }

    /// The query path, if one has been set.
    #[must_use]
    pub fn query_path(&self) -> Option<&Path> {
        self.path.as_ref()
    }

    /// The requesting subject.
    #[must_use]
    pub fn subject_profile(&self) -> &SubjectProfile {
        &self.subject
    }

    /// The subject's clearance.
    #[must_use]
    pub fn clearance_level(&self) -> Clearance {
        self.clearance
    }

    /// The deadline budget in logical ticks, if one has been set.
    #[must_use]
    pub fn deadline_budget(&self) -> Option<u64> {
        self.deadline
    }

    /// The singleflight key for batch coalescing: two requests with the
    /// same key are guaranteed the same answer under one validity token
    /// (evaluation is deterministic in identity, document, path, and
    /// clearance). `None` for pathless requests — they fail fast and are
    /// not worth sharing. Uses `\u{1F}` (ASCII unit separator) so field
    /// values cannot collide into each other's positions. Also `None` for
    /// deadline-carrying requests: a coalesced clone would inherit the
    /// leader's timing, silently widening (or narrowing) the follower's
    /// budget — deadline requests are always evaluated individually.
    pub(crate) fn coalesce_key(&self) -> Option<String> {
        if self.deadline.is_some() {
            return None;
        }
        let path = self.path.as_ref()?;
        Some(format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{:?}",
            self.subject.identity,
            self.doc,
            path.source(),
            self.clearance
        ))
    }
}

/// A batch of queries plus its scheduling parameters, built fluently and
/// handed to [`crate::server::StackServer::serve_batch`]:
///
/// ```
/// use websec_core::prelude::*;
///
/// let requests = vec![QueryRequest::for_doc("h.xml")];
/// let batch = BatchRequest::new(requests).workers(4).deadline_ticks(100);
/// assert_eq!(batch.worker_count(), 4);
/// ```
///
/// The batch-level deadline, when set, caps every member request's budget:
/// a request's effective deadline is the tighter of its own
/// [`QueryRequest::deadline_ticks`] budget and the batch's.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    requests: Vec<QueryRequest>,
    workers: usize,
    deadline: Option<u64>,
}

impl BatchRequest {
    /// Starts a batch over `requests` with a single worker (serial
    /// evaluation in submission order) and no batch deadline.
    #[must_use]
    pub fn new(requests: Vec<QueryRequest>) -> Self {
        BatchRequest {
            requests,
            workers: 1,
            deadline: None,
        }
    }

    /// Sets the number of scheduler workers (clamped to at least 1). The
    /// server may run fewer when admission control shrinks the batch below
    /// the requested parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Gives the whole batch a deadline budget in logical-clock ticks,
    /// measured from batch admission. Each request's effective deadline is
    /// the tighter of this and its own per-request budget; exhaustion
    /// yields `WS107` exactly as for per-request deadlines.
    #[must_use]
    pub fn deadline_ticks(mut self, budget: u64) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The batch's member requests, in submission order.
    #[must_use]
    pub fn requests(&self) -> &[QueryRequest] {
        &self.requests
    }

    /// The requested worker count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The batch-level deadline budget, if one has been set.
    #[must_use]
    pub fn deadline_budget(&self) -> Option<u64> {
        self.deadline
    }
}

/// How the flexible-enforcement gate treated a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The full policy evaluation ran (clearance check + view computation).
    Enforced,
    /// The request was admitted without checks (§5's "thirty percent
    /// security" fast path — measured exposure).
    AdmittedUnchecked,
}

/// Whether the policy-view cache served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// A view cached in the snapshot the request ran against, keyed by
    /// `(identity, document)`, was reused.
    Hit,
    /// The view was computed (and, under a [`crate::server::StackServer`],
    /// inserted for later reuse).
    Miss,
    /// No view was needed (unchecked fast path) or no cache is attached
    /// (direct [`crate::stack::SecureWebStack::execute`] call).
    Bypass,
    /// An identical request in the same batch was evaluated once and this
    /// response is a clone of that evaluation (singleflight coalescing in
    /// [`crate::server::StackServer::serve_batch`]).
    Coalesced,
}

/// The answer to a [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The serialized view of the matched nodes (empty when nothing is
    /// visible to the subject).
    pub xml: String,
    /// How the enforcement gate treated the request.
    pub decision: Decision,
    /// Whether the policy-view cache served the request.
    pub cache: CacheStatus,
    /// Per-layer elapsed time.
    pub timings: LayerTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let r = QueryRequest::for_doc("d.xml");
        assert_eq!(r.doc_name(), "d.xml");
        assert!(r.query_path().is_none());
        assert_eq!(r.subject_profile().identity, "anonymous");
        assert_eq!(r.clearance_level(), Clearance(Level::Unclassified));
        assert_eq!(r.deadline_budget(), None);
    }

    #[test]
    fn deadline_requests_never_coalesce() {
        let path = Path::parse("//x").unwrap();
        let plain = QueryRequest::for_doc("d.xml").path(path.clone());
        assert!(plain.coalesce_key().is_some());
        let budgeted = QueryRequest::for_doc("d.xml").path(path).deadline_ticks(8);
        assert_eq!(budgeted.deadline_budget(), Some(8));
        assert!(
            budgeted.coalesce_key().is_none(),
            "a deadline-carrying request must not share another request's evaluation"
        );
    }

    #[test]
    fn batch_builder_defaults_and_setters() {
        let batch = BatchRequest::new(vec![QueryRequest::for_doc("d.xml")]);
        assert_eq!(batch.requests().len(), 1);
        assert_eq!(batch.worker_count(), 1);
        assert_eq!(batch.deadline_budget(), None);
        let batch = batch.workers(0).deadline_ticks(9);
        assert_eq!(batch.worker_count(), 1, "workers clamps to at least 1");
        assert_eq!(batch.deadline_budget(), Some(9));
        assert_eq!(BatchRequest::new(Vec::new()).workers(8).worker_count(), 8);
    }

    #[test]
    fn builder_sets_all_fields() {
        let profile = SubjectProfile::new("alice");
        let path = Path::parse("//x").unwrap();
        let r = QueryRequest::for_doc("d.xml")
            .path(path.clone())
            .subject(&profile)
            .clearance(Clearance(Level::Secret));
        assert_eq!(r.query_path(), Some(&path));
        assert_eq!(r.subject_profile().identity, "alice");
        assert_eq!(r.clearance_level(), Clearance(Level::Secret));
    }
}
