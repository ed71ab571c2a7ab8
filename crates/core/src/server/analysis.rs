//! Incremental analysis over one memo, and the update gate.
//!
//! The serving layer keeps one [`AnalysisMemo`] behind one mutex. It
//! describes the most recently analysed snapshot: its generation, the
//! snapshot itself, and whatever is known of its analysis — the per-pass
//! WS003–WS012 diagnostics with their assembled [`Report`], and the
//! WS013–WS018 policy-verifier report. [`StackServer::analyze`],
//! [`StackServer::verify_policies`] and the `Deny` gate all read and
//! extend it:
//!
//! * at the memo's own generation the cached reports answer wholesale
//!   (zero passes executed);
//! * at another generation the snapshot is compared with the memo's,
//!   section by section, and only the passes whose declared sections
//!   ([`websec_analyzer::PassId::sections`]) moved re-run, with the memo's
//!   diagnostics spliced in for the rest; the verifier, whose passes all
//!   read Policy and Documents, re-runs only when one of those two moved.
//!   Nothing moved when both are the very same snapshot; Policy and
//!   Documents compare rules and documents by identity, the other sections
//!   by value (see [`moved_sections`]).
//!
//! The [`AnalysisGate`] decides what updates do with findings:
//! [`AnalysisGate::Off`] skips analysis entirely, and [`AnalysisGate::Deny`]
//! analyzes the mutated copy of the stack against the memo's analysis of
//! the current snapshot and refuses to commit — with a stable `WS109`
//! error — when the copy carries *new* error-severity findings. A policy
//! change costs four analyzer and six verifier passes per gated update
//! (DESIGN.md §8 counts them per kind of change). An accepted copy is
//! published as the very snapshot its analysis holds, and that analysis
//! enters the memo under the generation its publication creates, so the
//! next `analyze` and `verify_policies` are wholesale reuses; a rejected
//! copy leaves the memo untouched.
//!
//! Lock order: the update mutex is the server's outermost lock, taken
//! before the snapshot lock and before the memo mutex; the snapshot lock
//! is never taken while the memo mutex is held. No pass runs under the memo
//! mutex either: callers copy the memo's entry out, run passes unlocked,
//! and commit the result in a second short critical section, where an
//! entry for an older snapshot never replaces one for a newer snapshot.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use super::metrics::Counter;
use super::StackServer;
use crate::error::Error;
use crate::stack::SecureWebStack;
use websec_analyzer::{run_pass, Diagnostic, PassId, PolicyPassId, Report, Section, Severity};
use websec_policy::{CompiledPolicies, PolicyEngine, Privilege};

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

/// Number of analyzer passes.
const PASS_COUNT: usize = PassId::ALL.len();
/// Number of policy-verifier passes (WS013–WS018).
const POLICY_PASS_COUNT: usize = PolicyPassId::ALL.len();

/// What is known of one snapshot's analysis.
#[derive(Clone)]
struct SnapshotAnalysis {
    /// The snapshot's generation.
    generation: u64,
    /// The snapshot analysed. Holding it keeps each of its documents and
    /// rules shared, so any later write to one copies it to a new address
    /// first, and none of them is freed: a snapshot whose documents or
    /// rules sit at the same addresses holds the same bytes.
    stack: Arc<SecureWebStack>,
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

/// The analyzer input sections in which `after` may differ from `before`,
/// in [`Section::ALL`] order: none when both are the very same snapshot.
/// Policy compares the conflict strategy, which the compiled plane the
/// verifier reads (WS013, WS014) depends on, and the policy base by
/// identity ([`websec_policy::PolicyStore::shares_base`]); Documents
/// compares by identity too ([`websec_xml::DocumentStore::shares_documents`]).
/// Identity is exact because `before` is the memo's snapshot, which keeps
/// its rules and documents alive; a stack built separately moves both,
/// whatever it holds. Every other section compares by value.
fn moved_sections(before: &Arc<SecureWebStack>, after: &Arc<SecureWebStack>) -> Vec<Section> {
    if Arc::ptr_eq(before, after) {
        return Vec::new();
    }
    let (b, a) = (&**before, &**after);
    Section::ALL
        .into_iter()
        .filter(|section| match section {
            Section::Policy => {
                b.engine.strategy != a.engine.strategy || !b.policies.shares_base(&a.policies)
            }
            Section::Documents => !b.documents.shares_documents(&a.documents),
            Section::Labels => b.labels != a.labels,
            Section::Catalog => b.catalog != a.catalog,
            Section::Privacy => {
                b.privacy_constraints != a.privacy_constraints
                    || b.table_schemas != a.table_schemas
                    || b.sanitized_documents != a.sanitized_documents
            }
            Section::Rdf => b.context != a.context || b.semantic_stores != a.semantic_stores,
            Section::Dissem => b.dissemination_audits != a.dissemination_audits,
            Section::Uddi => b.uddi != a.uddi,
            Section::Subjects => b.registered_profiles != a.registered_profiles,
        })
        .collect()
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
    /// snapshot's analysis: every result whose declared sections did not
    /// move between `prev`'s snapshot and `stack` ([`moved_sections`])
    /// carries over.
    fn rebase(
        prev: Option<&SnapshotAnalysis>,
        stack: &Arc<SecureWebStack>,
        generation: u64,
    ) -> Self {
        let moved = prev.map_or(Section::ALL.to_vec(), |p| moved_sections(&p.stack, stack));
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
            stack: Arc::clone(stack),
            passes,
            report,
            policy,
        }
    }

    /// The WS003–WS012 report of the snapshot this analysis describes,
    /// running only the passes with no result yet; also returns the codes
    /// of the passes run.
    fn complete_report(&mut self) -> (&Report, Vec<&'static str>) {
        let mut ran = Vec::new();
        let report = match self.report.take() {
            Some(report) => report,
            None => {
                let passes = &mut self.passes;
                self.stack.with_analyzer_input(|input| {
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

    /// The WS013–WS018 report of the snapshot this analysis describes over
    /// `compiled`, its decision plane, running the full suite unless the
    /// report is known; also returns whether it ran.
    fn complete_policy(&mut self, compiled: &CompiledPolicies) -> (&Report, bool) {
        let (report, ran) = match self.policy.take() {
            Some(report) => (report, false),
            None => (self.stack.verify_policies(compiled), true),
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
    /// only the passes whose input sections differ from the memo's
    /// snapshot re-run — cached diagnostics are spliced in for the rest.
    /// The pass-run/reuse split is observable through
    /// [`super::MetricsSnapshot`] and [`StackServer::last_passes_run`].
    #[must_use]
    pub fn analyze(&self) -> Report {
        let published = self.published();
        let generation = published.generation;
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
        let mut analysis = self.memo_for(&published.stack, generation);
        let (report, ran) = analysis.complete_report();
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
    fn memo_for(&self, stack: &Arc<SecureWebStack>, generation: u64) -> SnapshotAnalysis {
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
    /// [`StackServer::last_passes_run`]. The entry left out is dropped
    /// after the mutex is released: it may hold the last handle on a
    /// replaced snapshot.
    fn commit(&self, analysis: SnapshotAnalysis, ran: Option<Vec<&'static str>>) {
        let mut memo = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ran) = ran {
            memo.last_passes_run = ran;
        }
        let newer = memo
            .latest
            .as_ref()
            .is_none_or(|latest| latest.generation <= analysis.generation);
        let left_out = if newer {
            memo.latest.replace(analysis)
        } else {
            Some(analysis)
        };
        drop(memo);
        drop(left_out);
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
    /// policy base or the documents changing (compared with the memo's
    /// snapshot — e.g. after [`StackServer::invalidate_views`], which
    /// republishes the very same one), the memoized report is reused
    /// wholesale. The run/reuse split is observable through
    /// [`super::MetricsSnapshot::policy_passes_run`] and
    /// [`super::MetricsSnapshot::policy_passes_reused`].
    #[must_use]
    pub fn verify_policies(&self) -> Report {
        let published = self.published();
        let generation = published.generation;
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
        let mut analysis = self.memo_for(&published.stack, generation);
        let (report, ran) = analysis.complete_policy(&published.compiled);
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
                let (report, baseline_ran) = baseline.complete_report();
                let baseline_errors: BTreeSet<String> = error_lines(report).collect();
                let (report, baseline_policy_ran) = baseline.complete_policy(&published.compiled);
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
                // Analysed as the very snapshot it is published as, keyed
                // by the current generation until publication creates its
                // own.
                let candidate = Arc::new(candidate);
                let mut analysis =
                    SnapshotAnalysis::rebase(Some(&baseline), &candidate, generation);
                let (report, ran) = analysis.complete_report();
                let mut introduced: Vec<String> = error_lines(report)
                    .filter(|line| !baseline_errors.contains(line))
                    .collect();
                let (policy_report, policy_ran) = analysis.complete_policy(&compiled);
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
                analysis.generation = self.publish(candidate, compiled);
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
    use crate::stack::vocab;
    use websec_dissem::{KeyAuthority, RegionMap};
    use websec_policy::mls::{ContextLabel, Level, SecurityContext};
    use websec_policy::{Authorization, ObjectSpec, SubjectProfile, SubjectSpec};
    use websec_privacy::{PrivacyConstraint, PrivacyLevel};
    use websec_rdf::{SecureStore, Term, Triple};
    use websec_uddi::{TModel, UddiRegistry};
    use websec_xml::{Document, Path};

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

    /// A ward stack with every other input section populated too (a
    /// semantic store, a condition, privacy, an audit, a registry and a
    /// profile), built the same way on every call.
    fn configured_stack() -> SecureWebStack {
        let mut stack = ward_stack(&["ann", "bob", "cy"]);
        let mut kb = SecureStore::new();
        for i in 0..16 {
            kb.store.insert(&Triple::new(
                Term::iri(&format!("http://example.org/s{i}")),
                Term::iri("http://example.org/p"),
                Term::lit(&format!("o{i}")),
            ));
        }
        stack.semantic_stores.push(("kb".into(), kb));
        stack.context = SecurityContext::new().with_condition("drill");
        stack.privacy_constraints.push(PrivacyConstraint::new(
            &["name", "ssn"],
            PrivacyLevel::Private,
        ));
        stack
            .table_schemas
            .push(("admissions".into(), vec!["name".into(), "ssn".into()]));
        stack.sanitized_documents.insert("h.xml".into());
        let doc = stack.documents.get("h.xml").unwrap();
        let map = RegionMap::build(&stack.policies, "h.xml", doc);
        let ann = SubjectProfile::new("ann");
        let keys = KeyAuthority::new("h.xml", [3u8; 32]).keys_for(&stack.policies, &map, &ann);
        stack.dissemination_audits.push((map, vec![(ann, keys)]));
        let mut registry = UddiRegistry::new();
        registry.save_tmodel(TModel::new("tm:pay", "payment interface"));
        stack.uddi = Some((registry, BTreeSet::new()));
        stack.registered_profiles.push(SubjectProfile::new("ann"));
        stack
    }

    /// Matches the identity grant to `who`.
    fn identity(who: &str) -> impl Fn(&Authorization) -> bool + '_ {
        move |a| matches!(&a.subject, SubjectSpec::Identity(id) if id == who)
    }

    /// Which sections each kind of change moves: a clone none, a
    /// revocation or an add Policy alone (see
    /// `the_policy_fingerprint_renders_only_new_rules`), a stack built
    /// separately with the same content Policy and Documents (see
    /// `identically_built_stacks_fingerprint_alike`), and a catalog edit
    /// that keeps the catalog's text rendering Catalog alone.
    #[test]
    fn each_change_moves_exactly_its_sections() {
        let before = Arc::new(configured_stack());
        let moved = |after: SecureWebStack| moved_sections(&before, &Arc::new(after));
        assert!(moved_sections(&before, &before).is_empty());
        assert_eq!(moved((*before).clone()), []);

        // One entry naming `p" .⏎_:b5 <…#documentName> "q`, then the two
        // entries `p` and `q`: one line per triple prints both alike.
        let entry =
            |name: &str| Triple::new(Term::Blank(5), Term::iri(vocab::DOC_NAME), Term::lit(name));
        let joined = format!("p\" .\n_:b5 <{}> \"q", vocab::DOC_NAME);
        let mut odd = (*before).clone();
        odd.catalog.insert(&entry(&joined));
        let odd = Arc::new(odd);
        let mut split = (*odd).clone();
        split.catalog.remove(&entry(&joined));
        split.catalog.insert(&entry("p"));
        split.catalog.insert(&entry("q"));
        assert_eq!(moved_sections(&odd, &Arc::new(split)), [Section::Catalog]);
    }

    /// Two stacks built alike compare equal in every section compared by
    /// value. They still move Policy and Documents, which compare by
    /// identity: neither holds the other's rules or documents, so the
    /// passes reading those two re-run and every other result carries
    /// over, and the rebased report equals the full one.
    #[test]
    fn identically_built_stacks_fingerprint_alike() {
        let first = Arc::new(configured_stack());
        let twin = Arc::new(configured_stack());
        assert_eq!(
            moved_sections(&first, &twin),
            [Section::Policy, Section::Documents]
        );

        let mut memo = SnapshotAnalysis::rebase(None, &first, 0);
        let (_, ran) = memo.complete_report();
        assert_eq!(ran.len(), PASS_COUNT);
        let mut rebased = SnapshotAnalysis::rebase(Some(&memo), &twin, 1);
        let (report, ran) = rebased.complete_report();
        let report = report.clone();
        let expected: Vec<&str> = PassId::ALL
            .iter()
            .filter(|pass| {
                pass.sections()
                    .iter()
                    .any(|s| matches!(s, Section::Policy | Section::Documents))
            })
            .map(|pass| pass.code())
            .collect();
        assert_eq!(ran, expected);
        assert!(ran.len() < PASS_COUNT, "some pass reads neither section");
        let mut full = SnapshotAnalysis::rebase(None, &twin, 1);
        assert_eq!(report, *full.complete_report().0);
    }

    /// A revocation or an add moves Policy alone, and the copy keeps
    /// sharing every rule it did not add: revoking the added rule again
    /// leaves the base the memo's, so nothing moves. A base built
    /// separately shares none of its rules, even with equal ids and
    /// content.
    #[test]
    fn the_policy_fingerprint_renders_only_new_rules() {
        let before = Arc::new(ward_stack(&["ann", "bob", "cy"]));
        let moved = |after: &SecureWebStack| moved_sections(&before, &Arc::new(after.clone()));

        let mut revoked = (*before).clone();
        revoked.policies.revoke_matching(identity("bob"));
        assert_eq!(moved(&revoked), [Section::Policy]);

        let mut added = (*before).clone();
        added.policies.add(grant("dee"));
        assert_eq!(moved(&added), [Section::Policy]);
        added.policies.revoke_matching(identity("dee"));
        assert_eq!(moved(&added), []);

        let twin = ward_stack(&["ann", "bob", "cy"]);
        assert_eq!(twin.policies.len(), before.policies.len());
        assert!(!before.policies.shares_base(&twin.policies));
        assert!(before.policies.shares_base(&(*before).clone().policies));
    }

    /// A thousand gated revoke-and-grant cycles over fresh identities
    /// leave the published tables and the memo holding no more than the
    /// live policy base needs: one form per rule, an identity table within
    /// twice the identity rules (or 16), and a memo holding the published
    /// snapshot itself.
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
            assert!(Arc::ptr_eq(&latest.stack, &published.stack), "cycle {k}");
        }
    }
}
