//! Incremental analysis over one memo, and the update gate.
//!
//! The serving layer keeps one [`AnalysisMemo`] behind one mutex. It
//! describes the most recently analysed snapshot: its generation, the
//! fingerprints of its nine input [`Section`]s (FNV-1a over
//! each section's deterministic rendering), and whatever is known of its
//! analysis — the per-pass WS003–WS012 diagnostics with their assembled
//! [`Report`], and the WS013–WS018 policy-verifier report.
//! [`StackServer::analyze`], [`StackServer::verify_policies`] and the
//! `Deny` gate all read and extend it:
//!
//! * at the memo's own generation the cached reports answer wholesale
//!   (zero passes executed);
//! * at another generation the snapshot is fingerprinted once, and only the
//!   passes whose declared sections ([`websec_analyzer::PassId::sections`])
//!   moved re-run, with the memo's diagnostics spliced in for the rest; the
//!   verifier, whose passes all read Policy and Documents, re-runs only when
//!   one of those two moved. The Documents section is rendered only when
//!   the snapshot holds other documents than the ones the memo
//!   fingerprinted, and the Policy section renders only the rules the memo
//!   has not digested (both compared by identity, see
//!   [`SnapshotAnalysis::rebase`]).
//!
//! The [`AnalysisGate`] decides what updates do with findings:
//! [`AnalysisGate::Off`] skips analysis entirely, and [`AnalysisGate::Deny`]
//! analyzes the mutated copy of the stack against the memo's analysis of
//! the current snapshot and refuses to commit — with a stable `WS109`
//! error — when the copy carries *new* error-severity findings. A policy
//! change costs four analyzer and six verifier passes per gated update
//! (DESIGN.md §8 counts them per kind of change). An accepted copy's
//! analysis enters the memo under the generation its publication creates,
//! so the next `analyze` and `verify_policies` are wholesale reuses; a
//! rejected copy leaves the memo untouched.
//!
//! Lock order: the update mutex is the server's outermost lock, taken
//! before the snapshot lock and before the memo mutex; the snapshot lock
//! is never taken while the memo mutex is held. No pass runs under the memo
//! mutex either: callers copy the memo's entry out, run passes unlocked,
//! and commit the result in a second short critical section, where an
//! entry for an older snapshot never replaces one for a newer snapshot.

use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use super::metrics::Counter;
use super::StackServer;
use crate::error::Error;
use crate::hash::{fnv1a, Fnv1a};
use crate::stack::SecureWebStack;
use websec_analyzer::{run_pass, Diagnostic, PassId, PolicyPassId, Report, Section, Severity};
use websec_policy::{
    shared_rule_positions, Authorization, CompiledPolicies, PolicyEngine, PolicyStore, Privilege,
};
use websec_xml::DocumentStore;

/// What [`StackServer::try_update`] does with analyzer findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisGate {
    /// No analysis on update (the default — updates are infallible).
    #[default]
    Off = 0,
    /// Pre-validate on a copy of the stack: an update introducing *new*
    /// error-severity findings is rejected with `WS109`
    /// ([`Error::AnalysisRejected`]) and the snapshot stays unchanged.
    Deny = 1,
}

/// Number of fingerprinted input sections.
const SECTION_COUNT: usize = Section::ALL.len();
/// Number of analyzer passes.
const PASS_COUNT: usize = PassId::ALL.len();
/// Number of policy-verifier passes (WS013–WS018).
const POLICY_PASS_COUNT: usize = PolicyPassId::ALL.len();

/// What is known of one snapshot's analysis.
#[derive(Clone)]
struct SnapshotAnalysis {
    /// The snapshot's generation.
    generation: u64,
    /// Per-[`Section`] fingerprints (indexed like [`Section::ALL`]).
    fingerprints: [u64; SECTION_COUNT],
    /// The documents the Documents fingerprint was taken over. Holding
    /// them keeps each one shared, so any later write to one copies it to
    /// a new address first: a store that
    /// [`DocumentStore::shares_documents`] with this one holds the same
    /// bytes.
    documents: DocumentStore,
    /// The rules the Policy fingerprint was taken over, in policy-base
    /// order, and the digest of each. Holding them keeps each one
    /// allocated, so a rule of a later snapshot at the same address
    /// ([`std::sync::Arc::ptr_eq`]) is that very rule.
    rules: Vec<Arc<Authorization>>,
    rule_digests: Vec<u64>,
    /// Per-pass diagnostics (indexed like [`PassId::ALL`]); `None` for a
    /// pass not yet run on this snapshot.
    passes: Vec<Option<Vec<Diagnostic>>>,
    /// The assembled, normalized WS003–WS012 report, present exactly when
    /// every pass is.
    report: Option<Report>,
    /// The normalized WS013–WS018 report, once the verifier ran.
    policy: Option<Report>,
}

/// The serving layer's analysis memo, behind the server's one analysis
/// mutex (see the module docs).
#[derive(Default)]
pub(super) struct AnalysisMemo {
    /// The most recently analysed snapshot; `None` before any analysis.
    latest: Option<SnapshotAnalysis>,
    /// Codes of the passes the most recent [`StackServer::analyze`] call or
    /// accepted gated update executed.
    last_passes_run: Vec<&'static str>,
}

/// Writes the deterministic rendering of one analyzer input section of
/// `stack` to `s`: two stacks built alike render the same bytes.
/// [`section_fingerprints`] does not call it for the Documents section
/// when the memo already fingerprinted the very same documents.
/// Documents stream through [`websec_xml::Document::write_xml`], document
/// labels are sorted by name first, and the other sections render with
/// `Debug` over `Vec`s, BTree collections and triple stores, whose
/// hand-written `Debug` prints their terms in id order and their SPO
/// index but not their term lookup `HashMap`. The policy section includes
/// the engine's conflict strategy, which the compiled plane the verifier
/// reads (WS013, WS014) depends on, each rule as the digest of its own
/// rendering (`rule_digests`, in policy-base order), and collection
/// membership, which decides the documents a collection rule covers.
fn render_section(stack: &SecureWebStack, section: Section, rule_digests: &[u64], s: &mut Fnv1a) {
    match section {
        Section::Policy => {
            let policies = &stack.policies;
            let _ = write!(s, "{:?};", stack.engine.strategy);
            for digest in rule_digests {
                s.0 = fnv1a(&digest.to_le_bytes(), s.0);
            }
            let _ = write!(s, ";{:?}", policies.hierarchy.seniority_pairs());
            for name in policies.collection_names() {
                let _ = write!(s, ";{name:?}:{:?}", policies.collection_members(name));
            }
        }
        Section::Documents => {
            for name in stack.documents.names() {
                if let Some(doc) = stack.documents.get(name) {
                    let _ = write!(s, "{name}\u{1f}");
                    let _ = doc.write_xml(s);
                    let _ = s.write_char('\u{1e}');
                }
            }
        }
        Section::Labels => {
            let mut labels: Vec<(String, String)> = stack
                .documents
                .names()
                .iter()
                .filter_map(|n| stack.label_of(n).map(|l| (n.to_string(), format!("{l:?}"))))
                .collect();
            labels.sort();
            let _ = write!(s, "{labels:?}");
        }
        Section::Catalog => {
            for triple in stack.catalog.all() {
                let _ = writeln!(s, "{triple}");
            }
        }
        Section::Privacy => {
            let _ = write!(
                s,
                "{:?};{:?};{:?}",
                stack.privacy_constraints, stack.table_schemas, stack.sanitized_documents
            );
        }
        Section::Rdf => {
            let _ = write!(s, "{:?};{:?}", stack.context, stack.semantic_stores);
        }
        Section::Dissem => {
            let _ = write!(s, "{:?}", stack.dissemination_audits);
        }
        Section::Uddi => {
            let _ = write!(s, "{:?}", stack.uddi);
        }
        Section::Subjects => {
            let _ = write!(s, "{:?}", stack.registered_profiles);
        }
    }
}

/// The digest of each rule of `policies`' base, in policy-base order:
/// carried over from `prev` for every rule it digested (the very same
/// allocation, which `prev` keeps alive), rendered with `Debug` for the
/// others. Also returns how many rules were rendered.
fn rule_digests(policies: &PolicyStore, prev: Option<&SnapshotAnalysis>) -> (Vec<u64>, usize) {
    let (before, digests) = prev.map_or((&[][..], &[][..]), |p| {
        (p.rules.as_slice(), p.rule_digests.as_slice())
    });
    let rules = policies.shared_authorizations();
    let mut rendered = 0;
    let out = shared_rule_positions(before, rules)
        .zip(rules)
        .map(|(seen, rule)| match seen {
            Some(j) => digests[j],
            None => {
                rendered += 1;
                let mut digest = Fnv1a::default();
                let _ = write!(digest, "{rule:?}");
                digest.0
            }
        })
        .collect();
    (out, rendered)
}

/// Fingerprints every analyzer input section of `stack`: the FNV-1a
/// digest of its rendering, written straight into the digest, given the
/// digest of each of its rules. When `prev` fingerprinted exactly
/// `stack`'s documents, their digest carries over and the Documents
/// section is not rendered.
fn section_fingerprints(
    stack: &SecureWebStack,
    rule_digests: &[u64],
    prev: Option<&SnapshotAnalysis>,
) -> [u64; SECTION_COUNT] {
    let same_documents = prev.filter(|p| p.documents.shares_documents(&stack.documents));
    std::array::from_fn(|i| match (Section::ALL[i], same_documents) {
        (Section::Documents, Some(p)) => p.fingerprints[i],
        (section, _) => {
            let mut digest = Fnv1a::default();
            render_section(stack, section, rule_digests, &mut digest);
            digest.0
        }
    })
}

/// Machine lines of the error-severity findings in `report`, in report
/// order.
fn error_lines(report: &Report) -> impl Iterator<Item = String> + '_ {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(Diagnostic::machine_line)
}

/// Error and warning counts of `report` (zeros when it is not known).
fn severity_counts(report: Option<&Report>) -> (u64, u64) {
    report.map_or((0, 0), |report| {
        let errors = report.count_at_least(Severity::Error) as u64;
        let at_least_warning = report.count_at_least(Severity::Warning) as u64;
        (errors, at_least_warning - errors)
    })
}

impl SnapshotAnalysis {
    /// The analysis of `stack` at `generation`, derived from `prev`, another
    /// snapshot's analysis: `stack` is fingerprinted once, and every result
    /// whose declared sections kept their fingerprints carries over. The
    /// Documents section is rendered only when `stack` does not hold
    /// exactly `prev`'s documents, that is after a document was inserted,
    /// removed or written.
    fn rebase(prev: Option<&SnapshotAnalysis>, stack: &SecureWebStack, generation: u64) -> Self {
        let (rule_digests, _) = rule_digests(&stack.policies, prev);
        let fingerprints = section_fingerprints(stack, &rule_digests, prev);
        let moved: Vec<Section> = match prev {
            Some(p) => Section::ALL
                .iter()
                .zip(p.fingerprints.iter().zip(&fingerprints))
                .filter(|(_, (before, after))| before != after)
                .map(|(section, _)| *section)
                .collect(),
            None => Section::ALL.to_vec(),
        };
        let unchanged = |sections: &[Section]| !sections.iter().any(|s| moved.contains(s));
        let passes: Vec<Option<Vec<Diagnostic>>> = PassId::ALL
            .iter()
            .enumerate()
            .map(|(i, pass)| {
                prev.filter(|_| unchanged(pass.sections()))
                    .and_then(|p| p.passes[i].clone())
            })
            .collect();
        let report = prev
            .filter(|_| passes.iter().all(Option::is_some))
            .and_then(|p| p.report.clone());
        // The verifier caches all-or-nothing: its passes share the compiled
        // artifact, which any change to their sections invalidates
        // wholesale.
        let policy = prev
            .filter(|_| {
                PolicyPassId::ALL
                    .iter()
                    .all(|pass| unchanged(pass.sections()))
            })
            .and_then(|p| p.policy.clone());
        SnapshotAnalysis {
            generation,
            fingerprints,
            documents: stack.documents.clone(),
            rules: stack.policies.shared_authorizations().to_vec(),
            rule_digests,
            passes,
            report,
            policy,
        }
    }

    /// The WS003–WS012 report of `stack` (the snapshot this analysis
    /// describes), running only the passes with no result yet; also
    /// returns the codes of the passes run.
    fn complete_report(&mut self, stack: &SecureWebStack) -> (&Report, Vec<&'static str>) {
        let mut ran = Vec::new();
        let report = match self.report.take() {
            Some(report) => report,
            None => {
                let passes = &mut self.passes;
                stack.with_analyzer_input(|input| {
                    for (pass, slot) in PassId::ALL.iter().zip(passes.iter_mut()) {
                        if slot.is_none() {
                            ran.push(pass.code());
                            *slot = Some(run_pass(input, *pass));
                        }
                    }
                });
                let mut report = Report::default();
                for diagnostics in self.passes.iter().flatten() {
                    report.diagnostics.extend(diagnostics.iter().cloned());
                }
                report.normalize();
                report
            }
        };
        (&*self.report.insert(report), ran)
    }

    /// The WS013–WS018 report of `stack` over `compiled`, its decision
    /// plane, running the full suite unless the report is known; also
    /// returns whether it ran.
    fn complete_policy(
        &mut self,
        stack: &SecureWebStack,
        compiled: &CompiledPolicies,
    ) -> (&Report, bool) {
        let (report, ran) = match self.policy.take() {
            Some(report) => (report, false),
            None => (stack.verify_policies(compiled), true),
        };
        (&*self.policy.insert(report), ran)
    }
}

impl StackServer {
    /// Sets the [`AnalysisGate`] governing subsequent
    /// [`StackServer::try_update`] calls.
    pub fn set_analysis_gate(&self, gate: AnalysisGate) {
        self.analysis_gate.store(gate as u8, Ordering::Relaxed);
    }

    /// The currently configured analysis gate.
    #[must_use]
    pub fn analysis_gate(&self) -> AnalysisGate {
        match self.analysis_gate.load(Ordering::Relaxed) {
            1 => AnalysisGate::Deny,
            _ => AnalysisGate::Off,
        }
    }

    /// Analyzes the current snapshot **incrementally**: results are cached
    /// keyed by the snapshot's generation, and when the generation moved,
    /// only the passes whose input sections' fingerprints changed re-run —
    /// cached diagnostics are spliced in for the rest.
    /// The pass-run/reuse split is observable through
    /// [`super::MetricsSnapshot`] and [`StackServer::last_passes_run`].
    #[must_use]
    pub fn analyze(&self) -> Report {
        let published = self.published();
        let (stack, generation) = (&published.stack, published.generation);
        {
            let mut memo = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
            let cached = memo
                .latest
                .as_ref()
                .filter(|latest| latest.generation == generation)
                .and_then(|latest| latest.report.clone());
            if let Some(report) = cached {
                memo.last_passes_run.clear();
                drop(memo);
                self.count_passes(0);
                return report;
            }
        }
        let mut analysis = self.memo_for(stack, generation);
        let (report, ran) = analysis.complete_report(stack);
        let report = report.clone();
        self.count_passes(ran.len());
        self.commit(analysis, Some(ran));
        report
    }

    /// Diagnostic codes of the passes the most recent
    /// [`StackServer::analyze`] call or accepted
    /// [`AnalysisGate::Deny`]-gated update actually executed, in pass order
    /// (empty when `analyze` reused the cached report wholesale).
    #[must_use]
    pub fn last_passes_run(&self) -> Vec<&'static str> {
        self.analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last_passes_run
            .clone()
    }

    /// The memo's analysis of the snapshot `stack` at `generation`: the memo's
    /// own entry when it describes that snapshot, else one rebased onto it
    /// from the memo's entry. A copy, so no pass runs under the mutex.
    fn memo_for(&self, stack: &SecureWebStack, generation: u64) -> SnapshotAnalysis {
        let latest = self
            .analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .latest
            .clone();
        match latest {
            Some(latest) if latest.generation == generation => latest,
            latest => SnapshotAnalysis::rebase(latest.as_ref(), stack, generation),
        }
    }

    /// Stores `analysis` as the memo's entry unless the memo already
    /// describes a newer snapshot (a reader that analysed an older one
    /// finishing after a publication); `ran`, when given, becomes
    /// [`StackServer::last_passes_run`].
    fn commit(&self, analysis: SnapshotAnalysis, ran: Option<Vec<&'static str>>) {
        let mut memo = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ran) = ran {
            memo.last_passes_run = ran;
        }
        if memo
            .latest
            .as_ref()
            .is_none_or(|latest| latest.generation <= analysis.generation)
        {
            memo.latest = Some(analysis);
        }
    }

    /// Accounts one analyzer run that executed `ran` passes and reused the
    /// rest.
    fn count_passes(&self, ran: usize) {
        self.metrics.add(Counter::AnalysisPassesRun, ran as u64);
        self.metrics
            .add(Counter::AnalysisPassesReused, (PASS_COUNT - ran) as u64);
    }

    /// Accounts one policy-verifier run, executed (`ran`) or reused.
    fn count_policy_passes(&self, ran: bool) {
        let counter = if ran {
            Counter::PolicyPassesRun
        } else {
            Counter::PolicyPassesReused
        };
        self.metrics.add(counter, POLICY_PASS_COUNT as u64);
    }

    /// Error and warning counts of the memo's analyzer report and of its
    /// policy-verifier report, for the metrics snapshot (zeros for a
    /// report not computed for the memo's snapshot).
    pub(super) fn analysis_gauges(&self) -> [(u64, u64); 2] {
        let memo = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
        let latest = memo.latest.as_ref();
        [
            severity_counts(latest.and_then(|l| l.report.as_ref())),
            severity_counts(latest.and_then(|l| l.policy.as_ref())),
        ]
    }

    /// Runs the static policy verifier (WS013–WS018,
    /// [`websec_analyzer::policy_verify`]) over the current snapshot's
    /// compiled decision plane, **incrementally**: the report is memoized
    /// with the snapshot's analysis, and when the generation moved without the
    /// policy base or the documents changing (fingerprint-checked — e.g.
    /// after [`StackServer::invalidate_views`]), the memoized report is
    /// reused wholesale. The run/reuse split is observable through
    /// [`super::MetricsSnapshot::policy_passes_run`] and
    /// [`super::MetricsSnapshot::policy_passes_reused`].
    #[must_use]
    pub fn verify_policies(&self) -> Report {
        let published = self.published();
        let (stack, generation) = (&published.stack, published.generation);
        let cached = self
            .analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .latest
            .as_ref()
            .filter(|latest| latest.generation == generation)
            .and_then(|latest| latest.policy.clone());
        if let Some(report) = cached {
            self.count_policy_passes(false);
            return report;
        }
        let mut analysis = self.memo_for(stack, generation);
        let (report, ran) = analysis.complete_policy(stack, &published.compiled);
        let report = report.clone();
        self.count_policy_passes(ran);
        self.commit(analysis, None);
        report
    }

    /// Cross-checks the current snapshot's compiled decision tables
    /// against the interpreter: the per-document Browse/Read equivalence
    /// classes projected from the tables must match the interpreter's
    /// [`PolicyEngine::policy_equivalence_classes`] partition of the
    /// snapshot's policy base exactly. The tables are published with the
    /// stack they were compiled from, so no other pairing can reach here.
    ///
    /// Per-rule coverage, which the verifier reads from these tables, is
    /// pinned to the interpreter by the `compiled_decisions` suite.
    ///
    /// # Errors
    /// `WS109` ([`Error::AnalysisRejected`]) describing the first
    /// divergence found.
    pub fn verify_compiled(&self) -> Result<(), Error> {
        let published = self.published();
        let (stack, compiled) = (&published.stack, &published.compiled);
        for name in stack.documents.names() {
            let Some(doc) = stack.documents.get(name) else {
                continue;
            };
            for privilege in [Privilege::Browse, Privilege::Read] {
                let interpreted =
                    PolicyEngine::policy_equivalence_classes(&stack.policies, name, doc, privilege);
                if compiled.equivalence_classes(name, privilege).as_ref() != Some(&interpreted) {
                    return Err(Error::AnalysisRejected(format!(
                        "{privilege:?} equivalence classes diverge for document '{name}' \
                         between the interpreter and the compiled tables"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Gated counterpart of [`StackServer::update`]:
    ///
    /// * [`AnalysisGate::Off`] — behaves exactly like `update` (infallible
    ///   in practice; always returns `Ok`). To surface findings without
    ///   blocking, call [`StackServer::analyze`] and
    ///   [`StackServer::verify_policies`] after the update.
    /// * [`AnalysisGate::Deny`] — applies the mutation to a *copy* of the
    ///   stack under the update lock (so no concurrent writer can
    ///   interleave between validation and commit — readers keep serving
    ///   from the published snapshot throughout), analyzes the copy with
    ///   **both** the AST analyzer and the policy verifier (WS013–WS018
    ///   over the decision plane compiled from the candidate), and
    ///   commits only when no **new** error-severity finding (relative to
    ///   the pre-update configuration) appears on either side. The
    ///   analysis is incremental against the memo: the pre-update
    ///   configuration's reports come from it, and the copy re-runs only
    ///   the passes whose input sections the mutation moved. A rejected
    ///   update leaves the snapshot, generation, views and memo untouched
    ///   and returns `WS109` ([`Error::AnalysisRejected`]) carrying the
    ///   machine lines of every introduced finding — an update that trips
    ///   both an AST error and a WS014 tie reports both. An accepted one
    ///   enters the memo under its new generation.
    pub fn try_update<R>(&self, mutate: impl FnOnce(&mut SecureWebStack) -> R) -> Result<R, Error> {
        match self.analysis_gate() {
            AnalysisGate::Off => Ok(self.update(mutate)),
            AnalysisGate::Deny => {
                let writer = self
                    .update_lock
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let published = self.published();
                let (current, generation) = (&published.stack, published.generation);
                // Pre-existing errors are grandfathered: the gate blocks
                // *regressions*, not stacks that already carried findings
                // when the gate was enabled. The baseline is the memo's
                // analysis of the current snapshot; passes run here only
                // when the memo fell behind it (the first gated update, or
                // an ungated update or republication since the last
                // analysis).
                let mut baseline = self.memo_for(current, generation);
                let (report, baseline_ran) = baseline.complete_report(current);
                let baseline_errors: BTreeSet<String> = error_lines(report).collect();
                let (report, baseline_policy_ran) =
                    baseline.complete_policy(current, &published.compiled);
                let baseline_policy_errors: BTreeSet<String> = error_lines(report).collect();
                self.count_passes(baseline_ran.len());
                self.count_policy_passes(baseline_policy_ran);

                let mut candidate = (**current).clone();
                let result = mutate(&mut candidate);
                // The candidate's decision plane is compiled once, against
                // the published tables: the verifier and (on success)
                // publication share the same artifact, preserving the
                // compile-once-per-publication contract. Rejected updates
                // bump no compile counter — the work happened but nothing
                // was published.
                let t = Instant::now();
                let compiled = candidate.compile(Some(&published.compiled));
                let compile_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                // Keyed by the current generation until publication
                // creates the candidate's own.
                let mut analysis =
                    SnapshotAnalysis::rebase(Some(&baseline), &candidate, generation);
                let (report, ran) = analysis.complete_report(&candidate);
                let mut introduced: Vec<String> = error_lines(report)
                    .filter(|line| !baseline_errors.contains(line))
                    .collect();
                let (policy_report, policy_ran) = analysis.complete_policy(&candidate, &compiled);
                introduced.extend(
                    error_lines(policy_report)
                        .filter(|line| !baseline_policy_errors.contains(line)),
                );
                self.count_passes(ran.len());
                self.count_policy_passes(policy_ran);
                if !introduced.is_empty() {
                    drop(writer);
                    self.metrics.add(Counter::GateDenials, 1);
                    return Err(Error::AnalysisRejected(introduced.join("\n")));
                }
                self.count_compile(compile_ns);
                analysis.generation = self.publish(Arc::new(candidate), compiled);
                self.commit(analysis, Some(ran));
                drop(writer);
                Ok(result)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::{ContextLabel, Level};
    use websec_policy::{ObjectSpec, SubjectSpec};
    use websec_rdf::{SecureStore, Term, Triple};
    use websec_xml::{Document, Path};

    /// A stack holding one semantic store of sixteen triples, built the
    /// same way on every call.
    fn rdf_stack() -> SecureWebStack {
        let mut store = SecureStore::new();
        for i in 0..16 {
            store.store.insert(&Triple::new(
                Term::iri(&format!("http://example.org/s{i}")),
                Term::iri("http://example.org/p"),
                Term::lit(&format!("o{i}")),
            ));
        }
        let mut stack = SecureWebStack::new([7u8; 32]);
        stack.semantic_stores.push(("kb".into(), store));
        stack
    }

    /// The same content renders the same bytes: two identically built
    /// stacks with RDF data get equal fingerprints in every section.
    #[test]
    fn identically_built_stacks_fingerprint_alike() {
        let fingerprints = |stack: &SecureWebStack| {
            let (rules, _) = rule_digests(&stack.policies, None);
            section_fingerprints(stack, &rules, None)
        };
        assert_eq!(fingerprints(&rdf_stack()), fingerprints(&rdf_stack()));
    }

    /// A one-document stack whose policy base grants `//patient` to each
    /// of `doctors`.
    fn ward_stack(doctors: &[&str]) -> SecureWebStack {
        let mut stack = SecureWebStack::new([9u8; 32]);
        stack.add_document(
            "h.xml",
            Document::parse("<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>")
                .unwrap(),
            ContextLabel::fixed(Level::Unclassified),
        );
        for doctor in doctors {
            stack.policies.add(grant(doctor));
        }
        stack
    }

    fn grant(who: &str) -> Authorization {
        Authorization::for_subject(SubjectSpec::Identity(who.into()))
            .on(ObjectSpec::Portion {
                document: "h.xml".into(),
                path: Path::parse("//patient").unwrap(),
            })
            .privilege(Privilege::Read)
            .grant()
    }

    /// The Policy fingerprint renders only the rules the memo has not seen:
    /// none after a revocation, the new one after an add, every rule of a
    /// stack built separately (whose ids repeat the memo's). The
    /// fingerprint still moves with each, and a stack built alike
    /// fingerprints alike.
    #[test]
    fn the_policy_fingerprint_renders_only_new_rules() {
        let policy = Section::ALL
            .iter()
            .position(|s| *s == Section::Policy)
            .unwrap();
        let mut stack = ward_stack(&["ann", "bob", "cy"]);
        let (_, rendered) = rule_digests(&stack.policies, None);
        assert_eq!(rendered, 3);
        let first = SnapshotAnalysis::rebase(None, &stack, 0);

        stack
            .policies
            .revoke_matching(|a| matches!(&a.subject, SubjectSpec::Identity(id) if id == "bob"));
        let (_, rendered) = rule_digests(&stack.policies, Some(&first));
        assert_eq!(rendered, 0, "a revocation renders no rule");
        let second = SnapshotAnalysis::rebase(Some(&first), &stack, 1);
        assert_ne!(second.fingerprints[policy], first.fingerprints[policy]);

        stack.policies.add(grant("dee"));
        let (_, rendered) = rule_digests(&stack.policies, Some(&second));
        assert_eq!(rendered, 1, "an add renders the new rule only");
        let third = SnapshotAnalysis::rebase(Some(&second), &stack, 2);
        assert_ne!(third.fingerprints[policy], second.fingerprints[policy]);

        // A stack built separately numbers its rules alike, but none of
        // them is a rule the memo digested.
        let other = ward_stack(&["ann", "eve", "cy"]);
        let (_, rendered) = rule_digests(&other.policies, Some(&first));
        assert_eq!(rendered, 3, "equal ids are not the same rules");
        assert_eq!(
            SnapshotAnalysis::rebase(Some(&first), &other, 3).fingerprints[policy],
            SnapshotAnalysis::rebase(None, &other, 3).fingerprints[policy]
        );
        assert_ne!(
            SnapshotAnalysis::rebase(None, &other, 3).fingerprints[policy],
            first.fingerprints[policy]
        );

        // The same content built from nothing fingerprints alike.
        let mut twin = ward_stack(&["ann", "bob", "cy"]);
        twin.policies
            .revoke_matching(|a| matches!(&a.subject, SubjectSpec::Identity(id) if id == "bob"));
        twin.policies.add(grant("dee"));
        assert_eq!(
            SnapshotAnalysis::rebase(None, &twin, 0).fingerprints,
            third.fingerprints
        );
    }

    /// A thousand gated revoke-and-grant cycles over fresh identities
    /// leave the published tables and the memo holding no more than the
    /// live policy base needs: one form per rule, an identity table within
    /// twice the identity rules (or 16), one digest per rule.
    #[test]
    fn churn_keeps_the_tables_and_the_memo_bounded_by_the_live_base() {
        let server = StackServer::new(ward_stack(&["ann", "bob", "f0"]));
        server.set_analysis_gate(AnalysisGate::Deny);
        for k in 1..=1_000 {
            let (revoked, granted) = (format!("f{}", k - 1), format!("f{k}"));
            server
                .try_update(|stack| {
                    stack.policies.revoke_matching(
                        |a| matches!(&a.subject, SubjectSpec::Identity(id) if *id == revoked),
                    );
                    stack.policies.add(grant(&granted));
                })
                .expect("a grant passes the gate");
            let published = server.published();
            let live = published.stack.policies.len();
            assert_eq!(live, 3);
            assert_eq!(published.compiled.auth_count(), live, "cycle {k}");
            assert!(published.compiled.interned_subjects() <= 16, "cycle {k}");
            let memo = server.analysis.lock().unwrap();
            let latest = memo.latest.as_ref().expect("the gate analysed the change");
            assert_eq!(latest.generation, published.generation);
            assert_eq!(
                (latest.rules.len(), latest.rule_digests.len()),
                (live, live),
                "cycle {k}"
            );
        }
    }
}
