//! Mutable configuration of the stack: documents, policies, labels,
//! catalog, context, and the enforcement gate.
//!
//! Everything that *changes* a stack lives here; read-only query
//! evaluation lives in `eval.rs`. The split is what lets the serving layer
//! hold an `Arc<SecureWebStack>` snapshot and evaluate queries from many
//! threads without locks: a snapshot is only mutated through
//! [`crate::server::StackServer::update`], which also invalidates the
//! policy-view cache.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::error::Error;
use websec_analyzer::{Analyzer, AnalyzerInput, DissemInput, PolicyVerifyInput, Report, UddiInput};
use websec_dissem::{RegionMap, SubjectKeyring};
use websec_policy::mls::{ContextLabel, SecurityContext};
use websec_policy::{
    CompiledPolicies, FlexibleEnforcer, PolicyEngine, PolicySnapshot, PolicyStore, SubjectProfile,
};
use websec_privacy::PrivacyConstraint;
use websec_rdf::{PatternTerm, SecureStore, Term, Triple, TriplePattern, TripleStore};
use websec_uddi::UddiRegistry;
use websec_xml::{Document, DocumentStore};

/// Metadata vocabulary for the catalog graph.
pub mod vocab {
    /// Links a catalog entry to its document name literal.
    pub const DOC_NAME: &str = "http://websec.example/cat#documentName";
    /// Marks a document classified (object: level literal "U"/"C"/"S"/"TS").
    pub const CLASSIFIED: &str = "http://websec.example/cat#classifiedAs";
}

/// The layered stack.
///
/// Cloning produces an independent snapshot — the serving layer relies on
/// this for copy-on-write mutation of a shared `Arc` snapshot. The clone
/// shares every document with the original until one side writes it
/// ([`DocumentStore`]), so a clone costs the policy base and the other
/// configuration, not the documents.
#[derive(Clone)]
pub struct SecureWebStack {
    /// Documents under management.
    pub documents: DocumentStore,
    /// XML-layer policy base.
    pub policies: PolicyStore,
    /// XML-layer evaluation engine.
    pub engine: PolicyEngine,
    /// RDF metadata catalog: one entry per document, with labels.
    pub catalog: TripleStore,
    /// Context labels per document name (evaluated against the context).
    pub(crate) labels: HashMap<String, ContextLabel>,
    /// The evaluation context (epoch, conditions).
    pub context: SecurityContext,
    /// Flexible enforcement gate.
    pub gate: FlexibleEnforcer,
    pub(crate) session_key: [u8; 32],
    /// Toggle for the channel layer (false = plaintext transport baseline).
    pub channel_protected: bool,
    /// Named semantic (RDF) stores under management; analyzed by WS006
    /// (entailment leaks) and WS009 (their role hierarchies join the cycle
    /// check). Empty by default.
    pub semantic_stores: Vec<(String, SecureStore)>,
    /// Privacy constraints guarding tabular releases (WS004, WS007, WS010).
    pub privacy_constraints: Vec<PrivacyConstraint>,
    /// Queryable table schemas as `(table name, column names)` feeding the
    /// privacy inference passes.
    pub table_schemas: Vec<(String, Vec<String>)>,
    /// Documents whose declassification path runs through a registered
    /// sanitizer; exempt from WS010.
    pub sanitized_documents: BTreeSet<String>,
    /// Dissemination audits: each entry pairs a document partition with the
    /// key holders to audit against the current policy base (WS008).
    pub dissemination_audits: Vec<(RegionMap, Vec<(SubjectProfile, SubjectKeyring)>)>,
    /// The UDDI registry plus the set of tModel keys carrying a verified
    /// signature (WS011). `None` skips the pass.
    pub uddi: Option<(UddiRegistry, BTreeSet<String>)>,
    /// Registered subject profiles; when non-empty, WS012 flags credential
    /// types no registered subject holds.
    pub registered_profiles: Vec<SubjectProfile>,
}

impl SecureWebStack {
    /// Creates a stack at full (100%) enforcement.
    #[must_use]
    pub fn new(session_key: [u8; 32]) -> Self {
        SecureWebStack {
            documents: DocumentStore::new(),
            policies: PolicyStore::new(),
            engine: PolicyEngine::default(),
            catalog: TripleStore::new(),
            labels: HashMap::new(),
            context: SecurityContext::new(),
            gate: FlexibleEnforcer::new(100, session_key),
            session_key,
            channel_protected: true,
            semantic_stores: Vec::new(),
            privacy_constraints: Vec::new(),
            table_schemas: Vec::new(),
            sanitized_documents: BTreeSet::new(),
            dissemination_audits: Vec::new(),
            uddi: None,
            registered_profiles: Vec::new(),
        }
    }

    /// Adds a document with a context label, registering catalog metadata.
    /// The catalog keeps one entry per document: re-adding a name replaces
    /// the document, its label and its entry's classification.
    pub fn add_document(&mut self, name: &str, doc: Document, label: ContextLabel) {
        let named = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::Const(Term::iri(vocab::DOC_NAME)),
            PatternTerm::Const(Term::lit(name)),
        );
        let entry = match self.catalog.query(&named).into_iter().next() {
            Some(existing) => existing.s,
            None => self.catalog.fresh_blank(),
        };
        let classified = TriplePattern::new(
            PatternTerm::Const(entry.clone()),
            PatternTerm::Const(Term::iri(vocab::CLASSIFIED)),
            PatternTerm::Any,
        );
        for stale in self.catalog.query(&classified) {
            self.catalog.remove(&stale);
        }
        self.catalog.insert(&Triple::new(
            entry.clone(),
            Term::iri(vocab::DOC_NAME),
            Term::lit(name),
        ));
        self.catalog.insert(&Triple::new(
            entry,
            Term::iri(vocab::CLASSIFIED),
            Term::lit(&label.effective(&self.context).to_string()),
        ));
        self.labels.insert(name.to_string(), label);
        self.documents.insert(name, doc);
    }

    /// The context label registered for `name`, if any. Lookup is a hash
    /// probe — this sits on the per-request RDF-layer hot path.
    #[must_use]
    pub fn label_of(&self, name: &str) -> Option<&ContextLabel> {
        self.labels.get(name)
    }

    /// Names of catalogued documents (via the RDF layer).
    #[must_use]
    pub fn catalog_names(&self) -> Vec<String> {
        self.catalog
            .query(&TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::Const(Term::iri(vocab::DOC_NAME)),
                PatternTerm::Any,
            ))
            .into_iter()
            .filter_map(|t| match t.o {
                Term::Literal(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Compiles the policy base over the documents into decision tables,
    /// reusing the selections of `previous` (the published tables an
    /// update replaces) wherever they still hold. The serving layer runs
    /// it once per snapshot publication (under the update lock), never on
    /// a request path.
    pub(crate) fn compile(&self, previous: Option<&CompiledPolicies>) -> Arc<CompiledPolicies> {
        PolicySnapshot::new(&self.policies, self.engine.strategy, &self.documents)
            .compile_against(previous)
    }

    /// Builds the full [`AnalyzerInput`] over every configured layer and
    /// hands it to `f`. Closure-shaped because the input borrows from
    /// temporaries (the sorted label list, the catalog names) that must
    /// outlive the borrow; both [`SecureWebStack::analyze`] and the serving
    /// layer's incremental re-analysis funnel through here so every caller
    /// sees the same input.
    pub(crate) fn with_analyzer_input<R>(&self, f: impl FnOnce(&AnalyzerInput<'_>) -> R) -> R {
        let catalog: Vec<String> = self.catalog_names();
        let mut input = AnalyzerInput::new(&self.policies);
        for name in self.documents.names() {
            if let Some(doc) = self.documents.get(name) {
                input.documents.push((name, doc));
            }
        }
        // Deterministic label order (the map iterates in arbitrary order).
        let mut labels: Vec<(&str, &ContextLabel)> =
            self.labels.iter().map(|(n, l)| (n.as_str(), l)).collect();
        labels.sort_by_key(|(n, _)| *n);
        input.labels = labels;
        input.catalog_names = catalog.iter().map(String::as_str).collect();
        input.constraints = &self.privacy_constraints;
        input.schemas = self
            .table_schemas
            .iter()
            .map(|(t, cols)| (t.as_str(), cols.clone()))
            .collect();
        input.sanitized_documents = self.sanitized_documents.clone();
        input.rdf = self
            .semantic_stores
            .iter()
            .map(|(n, s)| (n.as_str(), s))
            .collect();
        input.rdf_context = self.context.clone();
        input.dissem = self
            .dissemination_audits
            .iter()
            .map(|(map, holders)| DissemInput {
                map,
                holders: holders.iter().map(|(p, k)| (p, k)).collect(),
            })
            .collect();
        input.uddi = self.uddi.as_ref().map(|(registry, signed)| UddiInput {
            registry,
            signed_tmodels: signed.clone(),
        });
        if !self.registered_profiles.is_empty() {
            input.registered_profiles = Some(self.registered_profiles.iter().collect());
        }
        f(&input)
    }

    /// The policy verifier's report (WS013–WS018) over `compiled`, the
    /// tables [`Self::compile`] builds from this stack. The serving layer's
    /// memo and [`SecureWebStack::analyze_strict`] both verify through
    /// here.
    pub(crate) fn verify_policies(&self, compiled: &CompiledPolicies) -> Report {
        let mut input = PolicyVerifyInput::new(compiled);
        for name in self.documents.names() {
            if let Some(doc) = self.documents.get(name) {
                input.documents.push((name, doc));
            }
        }
        websec_analyzer::verify_policies(&input)
    }

    /// Runs the ten static-analysis passes (WS003–WS012) over the stack's
    /// current configuration — policy base, documents, labels, catalog,
    /// privacy constraints, semantic stores, dissemination audits, UDDI
    /// registry and subject registry — without executing any query or
    /// compiling anything.
    #[must_use]
    pub fn analyze(&self) -> Report {
        self.with_analyzer_input(Analyzer::analyze)
    }

    /// Strict boot gate: runs the analyzer (WS003–WS012) and the policy
    /// verifier (WS013–WS018, over the stack compiled once), and refuses
    /// service when either reports an error-severity finding — the
    /// definition the serving layer's `Deny` gate applies to every
    /// update. Returns both reports merged otherwise.
    ///
    /// # Errors
    /// `WS104` ([`Error::Misconfigured`]) carrying the machine rendering of
    /// the merged findings.
    pub fn analyze_strict(&self) -> Result<Report, Error> {
        let mut report = self.analyze();
        report
            .diagnostics
            .extend(self.verify_policies(&self.compile(None)).diagnostics);
        report.normalize();
        if report.has_errors() {
            return Err(Error::Misconfigured(report.machine()));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::Level;

    #[test]
    fn catalog_lists_documents() {
        let mut s = SecureWebStack::new([3u8; 32]);
        s.add_document(
            "h.xml",
            Document::parse("<hospital/>").unwrap(),
            ContextLabel::fixed(Level::Unclassified),
        );
        assert_eq!(s.catalog_names(), vec!["h.xml".to_string()]);
        assert!(s.label_of("h.xml").is_some());
        assert!(s.label_of("nope.xml").is_none());

        // Re-adding a document under another label keeps one catalog
        // entry, classified at the new level only.
        s.add_document(
            "h.xml",
            Document::parse("<hospital/>").unwrap(),
            ContextLabel::fixed(Level::Secret),
        );
        assert_eq!(s.catalog_names(), vec!["h.xml".to_string()]);
        let levels: Vec<Term> = s
            .catalog
            .query(&TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::Const(Term::iri(vocab::CLASSIFIED)),
                PatternTerm::Any,
            ))
            .into_iter()
            .map(|t| t.o)
            .collect();
        assert_eq!(levels, vec![Term::lit("S")]);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut s = SecureWebStack::new([3u8; 32]);
        s.add_document(
            "h.xml",
            Document::parse("<hospital/>").unwrap(),
            ContextLabel::fixed(Level::Unclassified),
        );
        let snapshot = s.clone();
        s.add_document(
            "extra.xml",
            Document::parse("<x/>").unwrap(),
            ContextLabel::fixed(Level::Unclassified),
        );
        assert_eq!(snapshot.documents.len(), 1);
        assert_eq!(s.documents.len(), 2);
    }
}
