//! The ten analysis passes (WS003–WS012) and their shared input.
//!
//! All passes are static: they inspect a configured stack — policy base,
//! documents, labels, privacy constraints, catalogs, RDF stores,
//! dissemination partitions, UDDI registries — without executing a single
//! query. Approximations are conservative and documented per pass. No pass
//! reads the compiled decision plane: checks over it (shadowing,
//! conflicts, dead rules) are the policy verifier's
//! ([`crate::policy_verify`], WS013–WS018).
//!
//! WS003–WS005 are per-store checks; WS006–WS012 are whole-stack
//! information-flow checks built on the [`crate::flow`] graph. Each pass is
//! addressable through [`PassId`] and declares the input [`Section`]s it
//! reads, which is what makes incremental re-analysis possible: a caller
//! that knows which sections changed re-runs only the passes whose section
//! sets intersect the change.

use crate::diagnostics::{Diagnostic, Report, Severity};
use crate::flow::{EdgeKind, FlowGraph, FlowNode};
use std::collections::BTreeSet;
use websec_dissem::{RegionMap, SubjectKeyring};
use websec_policy::mls::{ContextLabel, Level};
use websec_policy::{
    Authorization, CredentialExpr, ObjectSpec, PolicyStore, Privilege, Role, RoleHierarchy,
    SecurityContext, Sign, SubjectProfile, SubjectSpec,
};
use websec_privacy::constraints::classify;
use websec_privacy::{PrivacyConstraint, PrivacyLevel};
use websec_rdf::{Schema, SecureStore, TripleStore};
use websec_uddi::UddiRegistry;
use websec_xml::Document;

/// A dissemination audit unit: one document partition plus the keyrings
/// subjects currently hold for it (WS008).
pub struct DissemInput<'a> {
    /// The policy-equivalence partition of one document.
    pub map: &'a RegionMap,
    /// Key holders: `(profile, keyring)` pairs to audit against the current
    /// policy base.
    pub holders: Vec<(&'a SubjectProfile, &'a SubjectKeyring)>,
}

/// A UDDI audit unit: the registry plus the set of tModel keys whose
/// definitions carry a verified provider signature (WS011).
pub struct UddiInput<'a> {
    /// The registry under analysis.
    pub registry: &'a UddiRegistry,
    /// tModel keys with a verified signature chain. The registry itself
    /// signs business entries, not tModels, so this set comes from the
    /// deployment's trust anchors.
    pub signed_tmodels: BTreeSet<String>,
}

/// Everything the analyzer looks at. Borrowed views over the configured
/// stack; optional fields simply disable the checks that need them.
pub struct AnalyzerInput<'a> {
    /// The policy base under analysis.
    pub store: &'a PolicyStore,
    /// Named documents the policies govern, under distinct names (WS005).
    pub documents: Vec<(&'a str, &'a Document)>,
    /// Per-document MLS labels (WS003, WS010).
    pub labels: Vec<(&'a str, &'a ContextLabel)>,
    /// Object names registered in RDF/UDDI catalogs (WS005 cross-check).
    pub catalog_names: Vec<&'a str>,
    /// Privacy constraints guarding tabular releases (WS004, WS007).
    pub constraints: &'a [PrivacyConstraint],
    /// Queryable table schemas as `(table name, column names)` (WS004,
    /// WS007).
    pub schemas: Vec<(&'a str, Vec<String>)>,
    /// The universe of known subject identities, when the deployment can
    /// enumerate it; `None` disables the WS005 subject check.
    pub known_subjects: Option<BTreeSet<String>>,
    /// The universe of credential types some issuer can mint; `None`
    /// disables the WS005 credential-type check.
    pub known_credential_types: Option<BTreeSet<String>>,
    /// Named semantic stores (WS006 entailment-leak check; their role
    /// hierarchies also feed WS009).
    pub rdf: Vec<(&'a str, &'a SecureStore)>,
    /// The security context WS006 evaluates triple labels in (labels may be
    /// context-dependent). Defaults to the initial context.
    pub rdf_context: SecurityContext,
    /// Dissemination partitions and their key holders (WS008).
    pub dissem: Vec<DissemInput<'a>>,
    /// UDDI registry and its signed tModel set (WS011).
    pub uddi: Option<UddiInput<'a>>,
    /// Registered subject profiles (WS012 dead-credential check); `None`
    /// disables the pass.
    pub registered_profiles: Option<Vec<&'a SubjectProfile>>,
    /// Documents whose declassification path goes through a registered
    /// sanitizer, exempting them from WS010.
    pub sanitized_documents: BTreeSet<String>,
}

impl<'a> AnalyzerInput<'a> {
    /// Minimal input: a policy base, nothing else configured.
    #[must_use]
    pub fn new(store: &'a PolicyStore) -> Self {
        AnalyzerInput {
            store,
            documents: Vec::new(),
            labels: Vec::new(),
            catalog_names: Vec::new(),
            constraints: &[],
            schemas: Vec::new(),
            known_subjects: None,
            known_credential_types: None,
            rdf: Vec::new(),
            rdf_context: SecurityContext::new(),
            dissem: Vec::new(),
            uddi: None,
            registered_profiles: None,
            sanitized_documents: BTreeSet::new(),
        }
    }

    /// Registers a document (builder style).
    #[must_use]
    pub fn with_document(mut self, name: &'a str, doc: &'a Document) -> Self {
        self.documents.push((name, doc));
        self
    }

    /// Registers a label (builder style).
    #[must_use]
    pub fn with_label(mut self, name: &'a str, label: &'a ContextLabel) -> Self {
        self.labels.push((name, label));
        self
    }

    /// Registers a table schema (builder style).
    #[must_use]
    pub fn with_schema(mut self, name: &'a str, columns: &[String]) -> Self {
        self.schemas.push((name, columns.to_vec()));
        self
    }

    /// Registers a named semantic store (builder style).
    #[must_use]
    pub fn with_rdf_store(mut self, name: &'a str, store: &'a SecureStore) -> Self {
        self.rdf.push((name, store));
        self
    }
}

/// The input sections a pass reads. Comparing each section of a changed
/// configuration with the one already analysed lets a caller decide which
/// passes a mutation can possibly affect: only those reading a section
/// that differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Section {
    /// Policy base: authorizations, hierarchy, collections.
    Policy,
    /// Registered documents.
    Documents,
    /// Per-document MLS labels.
    Labels,
    /// Catalog name registrations.
    Catalog,
    /// Privacy constraints, table schemas, sanitized-document set.
    Privacy,
    /// Semantic stores (triples, RDF authorizations, RDF labels, context).
    Rdf,
    /// Dissemination partitions and key holders.
    Dissem,
    /// UDDI registry and signed tModel set.
    Uddi,
    /// Subject universe: known identities, mintable credential types,
    /// registered profiles.
    Subjects,
}

impl Section {
    /// Every section, in declaration order.
    pub const ALL: [Section; 9] = [
        Section::Policy,
        Section::Documents,
        Section::Labels,
        Section::Catalog,
        Section::Privacy,
        Section::Rdf,
        Section::Dissem,
        Section::Uddi,
        Section::Subjects,
    ];
}

/// Identifies one analysis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassId {
    /// WS003 MLS label flows.
    Ws003,
    /// WS004 single-table privacy inference channels.
    Ws004,
    /// WS005 dangling references.
    Ws005,
    /// WS006 RDF entailment leak.
    Ws006,
    /// WS007 transitive privacy inference closure.
    Ws007,
    /// WS008 dissemination key over-coverage.
    Ws008,
    /// WS009 role-hierarchy privilege escalation cycle.
    Ws009,
    /// WS010 declassification without sanitizer.
    Ws010,
    /// WS011 UDDI binding without signed tModel chain.
    Ws011,
    /// WS012 dead credential type.
    Ws012,
}

impl PassId {
    /// Every pass, in code order.
    pub const ALL: [PassId; 10] = [
        PassId::Ws003,
        PassId::Ws004,
        PassId::Ws005,
        PassId::Ws006,
        PassId::Ws007,
        PassId::Ws008,
        PassId::Ws009,
        PassId::Ws010,
        PassId::Ws011,
        PassId::Ws012,
    ];

    /// The stable diagnostic code the pass emits.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            PassId::Ws003 => "WS003",
            PassId::Ws004 => "WS004",
            PassId::Ws005 => "WS005",
            PassId::Ws006 => "WS006",
            PassId::Ws007 => "WS007",
            PassId::Ws008 => "WS008",
            PassId::Ws009 => "WS009",
            PassId::Ws010 => "WS010",
            PassId::Ws011 => "WS011",
            PassId::Ws012 => "WS012",
        }
    }

    /// The input sections the pass reads. A mutation that leaves all of a
    /// pass's sections untouched cannot change its findings.
    #[must_use]
    pub fn sections(self) -> &'static [Section] {
        match self {
            PassId::Ws003 => &[Section::Labels],
            PassId::Ws004 | PassId::Ws007 => &[Section::Privacy],
            PassId::Ws005 => &[
                Section::Policy,
                Section::Documents,
                Section::Labels,
                Section::Catalog,
                Section::Subjects,
            ],
            PassId::Ws006 => &[Section::Rdf],
            PassId::Ws008 => &[Section::Policy, Section::Dissem],
            PassId::Ws009 => &[Section::Policy, Section::Rdf],
            PassId::Ws010 => &[Section::Labels, Section::Privacy],
            PassId::Ws011 => &[Section::Uddi],
            PassId::Ws012 => &[Section::Policy, Section::Subjects],
        }
    }
}

/// Runs a single pass over `input`.
#[must_use]
pub fn run_pass(input: &AnalyzerInput<'_>, pass: PassId) -> Vec<Diagnostic> {
    match pass {
        PassId::Ws003 => ws003_mls_flows(input),
        PassId::Ws004 => ws004_inference_channels(input),
        PassId::Ws005 => ws005_dangling_references(input),
        PassId::Ws006 => ws006_entailment_leaks(input),
        PassId::Ws007 => ws007_privacy_closure(input),
        PassId::Ws008 => ws008_key_over_coverage(input),
        PassId::Ws009 => ws009_escalation_cycles(input),
        PassId::Ws010 => ws010_unsanitized_declassification(input),
        PassId::Ws011 => ws011_unsigned_bindings(input),
        PassId::Ws012 => ws012_dead_credentials(input),
    }
}

/// Entry point: runs every pass and aggregates the findings.
pub struct Analyzer;

impl Analyzer {
    /// Runs WS003–WS012 over `input`. The returned report is normalized
    /// (sorted by `(code, span)`), so identical inputs yield byte-identical
    /// machine output.
    #[must_use]
    pub fn analyze(input: &AnalyzerInput<'_>) -> Report {
        let mut diagnostics = Vec::new();
        for pass in PassId::ALL {
            diagnostics.extend(run_pass(input, pass));
        }
        let mut report = Report { diagnostics };
        report.normalize();
        report
    }
}

pub(crate) fn auth_span(a: &Authorization) -> String {
    format!("authorization #{}", a.id.0)
}

/// Samples a label's effective level across representative contexts: every
/// epoch breakpoint (and the instant before it) crossed with every subset
/// of the label's conditions (capped at 2^10 contexts — plenty for
/// hand-written labels; beyond that, the corners are sampled). Shared by
/// WS003 and WS010.
fn label_level_samples(label: &ContextLabel) -> Vec<(String, Level)> {
    let conditions: Vec<String> = label.conditions().into_iter().collect();
    // Each epoch breakpoint plus a point strictly before it, and 0.
    let mut epochs: Vec<u64> = vec![0];
    for e in label.epoch_breakpoints() {
        epochs.push(e.saturating_sub(1));
        epochs.push(e);
    }
    epochs.sort_unstable();
    epochs.dedup();

    let n = conditions.len().min(10);
    let mut samples: Vec<(String, Level)> = Vec::new();
    for mask in 0u32..(1u32 << n) {
        let mut ctx = SecurityContext::new();
        let mut active: Vec<&str> = Vec::new();
        for (i, c) in conditions.iter().take(n).enumerate() {
            if mask & (1 << i) != 0 {
                ctx = ctx.with_condition(c);
                active.push(c);
            }
        }
        for &e in &epochs {
            let ctx_e = ctx.clone().at_epoch(e);
            let desc = if active.is_empty() {
                format!("epoch {e}")
            } else {
                format!("epoch {e}, conditions {{{}}}", active.join(", "))
            };
            samples.push((desc, label.effective(&ctx_e)));
        }
    }
    samples
}

/// WS003: context-dependent labels whose effective level varies across
/// reachable contexts. Any variation is a potential downward flow — content
/// written while the object is highly classified becomes readable by lower
/// clearances after the transition. Epoch-only variation (scheduled,
/// monotone declassification) is reported as info; condition-toggled
/// variation (reversible) as a warning.
pub fn ws003_mls_flows(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, label) in &input.labels {
        let conditions: Vec<String> = label.conditions().into_iter().collect();
        let samples = label_level_samples(label);

        let Some(&(_, min_level)) = samples.iter().min_by_key(|(_, l)| *l) else {
            continue;
        };
        let Some(&(_, max_level)) = samples.iter().max_by_key(|(_, l)| *l) else {
            continue;
        };
        if max_level <= min_level {
            continue;
        }
        let low_ctx = samples
            .iter()
            .find(|(_, l)| *l == min_level)
            .map(|(d, _)| d.clone());
        let high_ctx = samples
            .iter()
            .find(|(_, l)| *l == max_level)
            .map(|(d, _)| d.clone());
        let severity = if conditions.is_empty() {
            Severity::Info
        } else {
            Severity::Warning
        };
        out.push(
            Diagnostic::new(
                "WS003",
                severity,
                format!("label for '{name}'"),
                format!(
                    "effective level varies from {min_level} ({}) to {max_level} ({}): a \
                     subject cleared at {min_level} can read content that was writable \
                     only at {max_level}, a downward flow across the transition",
                    low_ctx.unwrap_or_default(),
                    high_ctx.unwrap_or_default(),
                ),
            )
            .with_suggestion(if conditions.is_empty() {
                "scheduled declassification: confirm the epoch and that the content is \
                 safe to release afterwards"
            } else {
                "condition-toggled relabeling is reversible; purge or re-encrypt content \
                 before the label drops, or gate the condition change"
            }),
        );
    }
    out
}

/// WS004: privacy constraints assemblable through separate allowed queries —
/// the static twin of the inference controller's history check. A
/// constraint's combination leaks when every attribute lives in one table
/// and each attribute alone classifies *below* the constraint's level, so a
/// stateless per-query gate passes each probe while the union violates the
/// constraint.
pub fn ws004_inference_channels(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for constraint in input.constraints {
        if constraint.level == websec_privacy::PrivacyLevel::Public
            || constraint.attributes.len() < 2
        {
            continue;
        }
        for (table, columns) in &input.schemas {
            if !constraint
                .attributes
                .iter()
                .all(|a| columns.iter().any(|c| c == a))
            {
                continue;
            }
            let assemblable = constraint.attributes.iter().all(|a| {
                let single: BTreeSet<String> = std::iter::once(a.clone()).collect();
                classify(input.constraints, &single) < constraint.level
            });
            if assemblable {
                let attrs: Vec<&str> = constraint.attributes.iter().map(String::as_str).collect();
                out.push(
                    Diagnostic::new(
                        "WS004",
                        Severity::Warning,
                        format!("constraint {{{}}} over table '{table}'", attrs.join(", ")),
                        format!(
                            "each attribute can be fetched by a separate query that \
                             classifies below {:?}; together the answers complete the \
                             protected combination",
                            constraint.level
                        ),
                    )
                    .with_suggestion(
                        "gate this table with an InferenceController (release-history \
                         tracking) rather than a stateless per-query check",
                    ),
                );
                break; // one finding per constraint is enough
            }
        }
    }
    out
}

fn credential_types(expr: &CredentialExpr, out: &mut BTreeSet<String>) {
    match expr {
        CredentialExpr::OfType(t) => {
            out.insert(t.clone());
        }
        CredentialExpr::And(a, b) | CredentialExpr::Or(a, b) => {
            credential_types(a, out);
            credential_types(b, out);
        }
        CredentialExpr::Not(e) => credential_types(e, out),
        CredentialExpr::AttrEq(..)
        | CredentialExpr::AttrGe(..)
        | CredentialExpr::AttrLe(..)
        | CredentialExpr::HasAttr(_) => {}
    }
}

/// WS005: names referenced by policies, labels or catalogs that resolve to
/// nothing. Unknown documents and collections are errors (the rule can
/// never apply); unknown subjects and credential types are warnings (the
/// principal may simply not have enrolled yet).
pub fn ws005_dangling_references(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let doc_names: BTreeSet<&str> = input.documents.iter().map(|(n, _)| *n).collect();
    let check_docs = !input.documents.is_empty();

    for a in input.store.authorizations() {
        match &a.object {
            ObjectSpec::Document(name) | ObjectSpec::Portion { document: name, .. } => {
                if check_docs && !doc_names.contains(name.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "WS005",
                            Severity::Error,
                            auth_span(a),
                            format!("references document '{name}', which is not in the store"),
                        )
                        .with_suggestion("add the document or fix the name"),
                    );
                }
            }
            ObjectSpec::Collection(c) => match input.store.collection_members(c) {
                None => out.push(
                    Diagnostic::new(
                        "WS005",
                        Severity::Error,
                        auth_span(a),
                        format!("references collection '{c}', which was never registered"),
                    )
                    .with_suggestion("register the collection or fix the name"),
                ),
                Some(members) if check_docs => {
                    for m in members {
                        if !doc_names.contains(m.as_str()) {
                            out.push(Diagnostic::new(
                                "WS005",
                                Severity::Warning,
                                format!("collection '{c}'"),
                                format!("member document '{m}' is not in the store"),
                            ));
                        }
                    }
                }
                Some(_) => {}
            },
            ObjectSpec::AllDocuments | ObjectSpec::PortionAll(_) => {}
        }

        match &a.subject {
            SubjectSpec::Identity(id) => {
                if let Some(known) = &input.known_subjects {
                    if !known.contains(id) {
                        out.push(Diagnostic::new(
                            "WS005",
                            Severity::Warning,
                            auth_span(a),
                            format!("references subject '{id}', unknown to the deployment"),
                        ));
                    }
                }
            }
            SubjectSpec::WithCredentials(expr) => {
                if let Some(known) = &input.known_credential_types {
                    let mut types = BTreeSet::new();
                    credential_types(expr, &mut types);
                    for t in types {
                        if !known.contains(&t) {
                            out.push(Diagnostic::new(
                                "WS005",
                                Severity::Warning,
                                auth_span(a),
                                format!("references credential type '{t}', which no issuer mints"),
                            ));
                        }
                    }
                }
            }
            SubjectSpec::Anyone | SubjectSpec::InRole(_) => {}
        }
    }

    if check_docs {
        for (name, _) in &input.labels {
            if !doc_names.contains(name) {
                out.push(
                    Diagnostic::new(
                        "WS005",
                        Severity::Error,
                        format!("label for '{name}'"),
                        "labelled document is not in the store",
                    )
                    .with_suggestion("remove the stale label or restore the document"),
                );
            }
        }
        for name in &input.catalog_names {
            if !doc_names.contains(name) {
                out.push(
                    Diagnostic::new(
                        "WS005",
                        Severity::Error,
                        format!("catalog entry '{name}'"),
                        "catalogued object is not in the store",
                    )
                    .with_suggestion("remove the stale catalog entry or restore the document"),
                );
            }
        }
    }
    out
}

/// WS006: RDF statements readable *only* through schema entailment at a
/// label below their premises. For each entailed-but-not-stored statement,
/// the pass rebuilds the sub-store of stored triples whose label is at or
/// below the statement's own effective label; if the statement is not
/// derivable from that sub-store, every derivation necessarily consumes a
/// premise labeled strictly higher — semantic enforcement would hand a
/// low-cleared reader a fact whose evidence it may not see. Exact (the
/// closure is the same fixpoint the enforcement path runs).
pub fn ws006_entailment_leaks(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ctx = &input.rdf_context;
    for (name, store) in &input.rdf {
        let stored = store.store.all();
        for entailed in Schema::entailed_only(&store.store) {
            let visible_level = store.triple_level(&entailed, ctx);
            let mut sub = TripleStore::new();
            for t in &stored {
                if store.triple_level(t, ctx) <= visible_level {
                    sub.insert(t);
                }
            }
            if !Schema::closure(&sub).contains(&entailed) {
                out.push(
                    Diagnostic::new(
                        "WS006",
                        Severity::Error,
                        format!("rdf store '{name}': {entailed}"),
                        format!(
                            "statement is labeled {visible_level} but every schema \
                             derivation of it uses a premise labeled above \
                             {visible_level}: entailment declassifies the fact for \
                             readers cleared only at {visible_level}"
                        ),
                    )
                    .with_suggestion(
                        "label the entailed pattern at least as high as its premises, \
                         or deny the implying pattern to low-cleared subjects",
                    ),
                );
            }
        }
    }
    out
}

/// Does the WS004 single-table condition hold for `constraint`? (Some table
/// holds every attribute and each attribute alone classifies below the
/// constraint.) WS007 defers to WS004 in that case.
fn ws004_condition_holds(input: &AnalyzerInput<'_>, constraint: &PrivacyConstraint) -> bool {
    let single_table = input.schemas.iter().any(|(_, columns)| {
        constraint
            .attributes
            .iter()
            .all(|a| columns.iter().any(|c| c == a))
    });
    single_table
        && constraint.attributes.iter().all(|a| {
            let single: BTreeSet<String> = std::iter::once(a.clone()).collect();
            classify(input.constraints, &single) < constraint.level
        })
}

/// WS007: transitive privacy inference closure — the multi-release,
/// cross-table strengthening of WS004. Model: each release is one block of
/// columns from one table, admitted when the block classifies below the
/// constraint; two column values are *linked per-individual* when they
/// co-occur in an admitted block, and links compose through shared columns
/// (natural join). The pass builds the linkage graph over two-column
/// blocks (monotonicity of [`classify`] makes pair-blocks optimal: any
/// admitted wider block admits each of its pairs) and fires when every
/// constraint attribute sits in one connected component spanning at least
/// two tables. The single-table case is exactly WS004 and is left to it.
pub fn ws007_privacy_closure(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for constraint in input.constraints {
        if constraint.level == PrivacyLevel::Public || constraint.attributes.len() < 2 {
            continue;
        }
        if ws004_condition_holds(input, constraint) {
            continue; // WS004 reports this one
        }

        let attr = |a: &str| FlowNode::Attribute(a.to_string());
        let mut g = FlowGraph::new();
        for (_, columns) in &input.schemas {
            for c in columns {
                g.node(attr(c));
            }
            for (i, a) in columns.iter().enumerate() {
                for b in columns.iter().skip(i + 1) {
                    let pair: BTreeSet<String> = [a.clone(), b.clone()].into_iter().collect();
                    if classify(input.constraints, &pair) < constraint.level {
                        g.link(attr(a), attr(b), EdgeKind::Join);
                        g.link(attr(b), attr(a), EdgeKind::Join);
                    }
                }
            }
        }

        let mut attrs = constraint.attributes.iter();
        let Some(first) = attrs.next() else { continue };
        let Some(seed) = g.find(&attr(first)) else {
            continue;
        };
        let reached = g.reachable(&[seed], &[EdgeKind::Join]);
        let all_linked = constraint
            .attributes
            .iter()
            .all(|a| g.find(&attr(a)).is_some_and(|i| reached.contains(&i)));
        if !all_linked {
            continue;
        }

        let tables: Vec<&str> = input
            .schemas
            .iter()
            .filter(|(_, cols)| {
                constraint
                    .attributes
                    .iter()
                    .any(|a| cols.iter().any(|c| c == a))
            })
            .map(|(t, _)| *t)
            .collect();
        if tables.len() < 2 {
            continue; // single-table channels are WS004's domain
        }
        // Join columns: linked attributes outside the constraint set.
        let joins: Vec<String> = reached
            .iter()
            .filter_map(|&i| match g.label(i) {
                FlowNode::Attribute(a) if !constraint.attributes.contains(a) => Some(a.clone()),
                _ => None,
            })
            .collect();
        let attrs_list: Vec<&str> = constraint.attributes.iter().map(String::as_str).collect();
        out.push(
            Diagnostic::new(
                "WS007",
                Severity::Warning,
                format!(
                    "constraint {{{}}} across tables {{{}}}",
                    attrs_list.join(", "),
                    tables.join(", ")
                ),
                format!(
                    "a sequence of {} or more releases, each classifying below {:?}, \
                     links the protected attributes per-individual through join \
                     column(s) {{{}}}",
                    tables.len(),
                    constraint.level,
                    joins.join(", ")
                ),
            )
            .with_suggestion(
                "extend the constraint (or add sub-constraints) to cover the join \
                 columns, or gate the tables with a shared InferenceController",
            ),
        );
    }
    out
}

/// WS008: dissemination keys that decrypt portions their holder's current
/// policy does not grant. For every audited partition the pass builds
/// `Holds` edges (subject → region, from the keyring) and `Covers` edges
/// (subject → region, re-deriving entitlement from the *current* policy
/// base through `Region::granted_to`, the rule `KeyAuthority::keys_for`
/// hands out keys by) and reports every `Holds` edge without a matching
/// `Covers` edge. Typical causes: revocation without re-keying, or
/// externally escrowed keys.
pub fn ws008_key_over_coverage(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for unit in &input.dissem {
        let map = unit.map;
        let mut g = FlowGraph::new();
        for (profile, keyring) in &unit.holders {
            let subject = g.node(FlowNode::Subject(profile.identity.clone()));
            for region in &map.regions {
                if region.granted_to(input.store, profile) {
                    let r = g.node(FlowNode::Region(map.document.clone(), region.id.0));
                    g.edge(subject, r, EdgeKind::Covers);
                }
            }
            for rid in keyring.regions() {
                let r = g.node(FlowNode::Region(map.document.clone(), rid.0));
                g.edge(subject, r, EdgeKind::Holds);
            }
        }
        for (profile, keyring) in &unit.holders {
            let Some(subject) = g.find(&FlowNode::Subject(profile.identity.clone())) else {
                continue;
            };
            for rid in keyring.regions() {
                let node = FlowNode::Region(map.document.clone(), rid.0);
                let Some(r) = g.find(&node) else { continue };
                if g.has_edge(subject, r, EdgeKind::Covers) {
                    continue;
                }
                let stale = !map.regions.iter().any(|reg| reg.id == rid);
                out.push(
                    Diagnostic::new(
                        "WS008",
                        Severity::Error,
                        format!("subject '{}', {node}", profile.identity),
                        if stale {
                            "held key opens a region absent from the current partition: \
                             the ciphertext it decrypts predates the last re-partition"
                                .to_string()
                        } else {
                            "held key decrypts a region no current authorization grants \
                             to the subject: revocation without re-keying, or an \
                             escrowed key"
                                .to_string()
                        },
                    )
                    .with_suggestion(
                        "re-key the document (new master epoch) so revoked subjects' \
                         keys stop opening current ciphertext",
                    ),
                );
            }
        }
    }
    out
}

/// Could a document named by `a` also be named by `b`? Conservative over
/// names: wildcard specs overlap everything, named specs overlap on equal
/// document names or shared collection members (path disjointness inside
/// one document is *not* checked).
fn objects_overlap(input: &AnalyzerInput<'_>, a: &ObjectSpec, b: &ObjectSpec) -> bool {
    let names = |o: &ObjectSpec| -> Option<BTreeSet<String>> {
        match o {
            ObjectSpec::AllDocuments | ObjectSpec::PortionAll(_) => None,
            ObjectSpec::Document(n) | ObjectSpec::Portion { document: n, .. } => {
                Some(std::iter::once(n.clone()).collect())
            }
            ObjectSpec::Collection(c) => Some(
                input
                    .store
                    .collection_members(c)
                    .map(|ms| ms.iter().cloned().collect())
                    .unwrap_or_default(),
            ),
        }
    };
    match (names(a), names(b)) {
        (None, _) | (_, None) => true,
        (Some(x), Some(y)) => !x.is_disjoint(&y),
    }
}

/// WS009: privilege-escalation cycles in the role graph. A single
/// [`RoleHierarchy`] is acyclic by construction, but privileges also flow
/// along two other edge kinds: the *union* of all configured hierarchies
/// (policy base + every semantic store), and Admin-grant escalation — a
/// role holding `Admin` over an object can mint itself any privilege other
/// roles hold on that object. A cycle in the combined graph means the role
/// ordering collapses: every role on the cycle can reach every other's
/// privileges.
pub fn ws009_escalation_cycles(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let role_node = |r: &Role| FlowNode::Role(r.0.clone());
    let mut g = FlowGraph::new();

    let mut hierarchies: Vec<&RoleHierarchy> = vec![&input.store.hierarchy];
    hierarchies.extend(input.rdf.iter().map(|(_, s)| &s.hierarchy));
    for h in &hierarchies {
        for (senior, junior) in h.seniority_pairs() {
            // Grants to the junior apply to every senior: privileges flow
            // junior → senior.
            g.link(role_node(junior), role_node(senior), EdgeKind::Seniority);
        }
    }

    let auths = input.store.authorizations();
    for admin in auths
        .clone()
        .filter(|a| a.sign == Sign::Plus && a.privilege == Privilege::Admin)
    {
        let SubjectSpec::InRole(admin_role) = &admin.subject else {
            continue;
        };
        for other in auths.clone().filter(|a| a.sign == Sign::Plus) {
            let SubjectSpec::InRole(victim) = &other.subject else {
                continue;
            };
            if victim == admin_role {
                continue;
            }
            if objects_overlap(input, &admin.object, &other.object) {
                g.link(
                    role_node(victim),
                    role_node(admin_role),
                    EdgeKind::Escalation,
                );
            }
        }
    }

    let mut out = Vec::new();
    for component in g.cyclic_components(&[EdgeKind::Seniority, EdgeKind::Escalation]) {
        let mut roles: Vec<String> = component
            .iter()
            .filter_map(|&i| match g.label(i) {
                FlowNode::Role(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        roles.sort();
        out.push(
            Diagnostic::new(
                "WS009",
                Severity::Error,
                format!("roles {{{}}}", roles.join(", ")),
                "privilege flow between these roles is cyclic (seniority edges plus \
                 Admin-grant escalation): each role on the cycle can reach every \
                 other's privileges, collapsing the hierarchy",
            )
            .with_suggestion(
                "break the cycle: align the hierarchies, or take Admin away from the \
                 junior role",
            ),
        );
    }
    out
}

/// WS010: context-dependent labels that can declassify (effective level
/// drops in some reachable context) on documents with no registered
/// sanitizer. WS003 describes the flow; WS010 checks the paper's
/// *inference-controller* discipline — content must pass a sanitizer before
/// a label drop releases it verbatim.
pub fn ws010_unsanitized_declassification(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, label) in &input.labels {
        if input.sanitized_documents.contains(*name) || label.rule_count() == 0 {
            continue;
        }
        let samples = label_level_samples(label);
        let Some(min_level) = samples.iter().map(|(_, l)| *l).min() else {
            continue;
        };
        let Some(max_level) = samples.iter().map(|(_, l)| *l).max() else {
            continue;
        };
        if max_level <= min_level {
            continue;
        }
        out.push(
            Diagnostic::new(
                "WS010",
                Severity::Warning,
                format!("label for '{name}'"),
                format!(
                    "label can drop from {max_level} to {min_level} across contexts and \
                     no sanitizer is registered for the document: content is released \
                     verbatim at the lower level once the context shifts"
                ),
            )
            .with_suggestion(
                "register the document as sanitized (scrub or re-encrypt on the \
                 declassification path) or make the label context-independent",
            ),
        );
    }
    out
}

/// WS011: UDDI bindings reachable through inquiry with no signed tModel
/// chain. A binding whose `tmodel_keys` resolve to no registered *and*
/// signed tModel offers callers no way to verify the access point against a
/// provider signature — the untrusted-agency threat model's tampering
/// window.
pub fn ws011_unsigned_bindings(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let Some(uddi) = &input.uddi else {
        return Vec::new();
    };
    let mut g = FlowGraph::new();
    let mut signed_nodes: BTreeSet<usize> = BTreeSet::new();
    for key in &uddi.signed_tmodels {
        if uddi.registry.has_tmodel(key) {
            signed_nodes.insert(g.node(FlowNode::TModel(key.clone())));
        }
    }
    let mut out = Vec::new();
    for business in uddi.registry.businesses() {
        for service in &business.services {
            for binding in &service.binding_templates {
                let b = g.node(FlowNode::Binding(binding.binding_key.clone()));
                for key in &binding.tmodel_keys {
                    if uddi.registry.has_tmodel(key) {
                        let t = g.node(FlowNode::TModel(key.clone()));
                        g.edge(b, t, EdgeKind::Implements);
                    }
                }
                let reach = g.reachable(&[b], &[EdgeKind::Implements]);
                if reach.intersection(&signed_nodes).next().is_none() {
                    out.push(
                        Diagnostic::new(
                            "WS011",
                            Severity::Warning,
                            format!(
                                "binding '{}' of service '{}'",
                                binding.binding_key, service.service_key
                            ),
                            "no tModel this binding implements is registered and \
                             signed: callers cannot verify the access point against \
                             any provider signature",
                        )
                        .with_suggestion(
                            "register a signed tModel for the binding's interface, or \
                             withdraw the binding",
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Credential types whose *presence* the expression requires (polarity-
/// aware: types under an odd number of `Not`s are needed absent, not
/// present, and are skipped).
fn required_credential_types(expr: &CredentialExpr, positive: bool, out: &mut BTreeSet<String>) {
    match expr {
        CredentialExpr::OfType(t) => {
            if positive {
                out.insert(t.clone());
            }
        }
        CredentialExpr::And(a, b) | CredentialExpr::Or(a, b) => {
            required_credential_types(a, positive, out);
            required_credential_types(b, positive, out);
        }
        CredentialExpr::Not(e) => required_credential_types(e, !positive, out),
        CredentialExpr::AttrEq(..)
        | CredentialExpr::AttrGe(..)
        | CredentialExpr::AttrLe(..)
        | CredentialExpr::HasAttr(_) => {}
    }
}

/// WS012: dead credential types — positively required by some rule yet held
/// by no registered subject, so the rule branch can never be satisfied as
/// deployed. Complements WS005's issuer check (`known_credential_types`
/// asks "can anyone mint it?"; this asks "does anyone hold it?").
pub fn ws012_dead_credentials(input: &AnalyzerInput<'_>) -> Vec<Diagnostic> {
    let Some(profiles) = &input.registered_profiles else {
        return Vec::new();
    };
    let mut held: BTreeSet<&str> = BTreeSet::new();
    for profile in profiles {
        for credential in &profile.credentials {
            held.insert(credential.ctype.as_str());
        }
    }
    let mut out = Vec::new();
    for a in input.store.authorizations() {
        let SubjectSpec::WithCredentials(expr) = &a.subject else {
            continue;
        };
        let mut types = BTreeSet::new();
        required_credential_types(expr, true, &mut types);
        for t in types {
            if !held.contains(t.as_str()) {
                out.push(
                    Diagnostic::new(
                        "WS012",
                        Severity::Warning,
                        auth_span(a),
                        format!(
                            "credential type '{t}' is held by no registered subject: \
                             the requirement is never satisfiable as deployed"
                        ),
                    )
                    .with_suggestion("enroll a subject holding the credential or retire the rule"),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::Level;
    use websec_privacy::PrivacyLevel;
    use websec_xml::Path;

    fn doc() -> Document {
        Document::parse(
            "<hospital><patient id=\"p1\" ssn=\"1\"><name>A</name></patient>\
             <admin><budget>9</budget></admin></hospital>",
        )
        .unwrap()
    }

    fn portion(path: &str) -> ObjectSpec {
        ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse(path).unwrap(),
        }
    }

    #[test]
    fn clean_base_has_no_findings() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("doc".into()))
                .on(portion("//patient"))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let input = AnalyzerInput::new(&store).with_document("h.xml", &d);
        let report = Analyzer::analyze(&input);
        assert!(report.is_clean(), "{}", report.human());
    }

    #[test]
    fn ws003_condition_toggle_is_warning() {
        let store = PolicyStore::new();
        let d = doc();
        let label =
            ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified);
        let input = AnalyzerInput::new(&store)
            .with_document("war.xml", &d)
            .with_label("war.xml", &label);
        let report = Analyzer::analyze(&input);
        let hits = report.with_code("WS003");
        assert_eq!(hits.len(), 1, "{}", report.human());
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn ws003_epoch_declassification_is_info() {
        let store = PolicyStore::new();
        let d = doc();
        let label = ContextLabel::fixed(Level::Secret).after_epoch(100, Level::Unclassified);
        let input = AnalyzerInput::new(&store)
            .with_document("old.xml", &d)
            .with_label("old.xml", &label);
        let hits = ws003_mls_flows(&input);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Info);
    }

    #[test]
    fn ws003_fixed_label_is_silent() {
        let store = PolicyStore::new();
        let d = doc();
        let label = ContextLabel::fixed(Level::Secret);
        let input = AnalyzerInput::new(&store)
            .with_document("s.xml", &d)
            .with_label("s.xml", &label);
        assert!(ws003_mls_flows(&input).is_empty());
    }

    #[test]
    fn ws004_assemblable_combination() {
        let store = PolicyStore::new();
        let constraints = vec![PrivacyConstraint::new(
            &["name", "diagnosis"],
            PrivacyLevel::Private,
        )];
        let columns: Vec<String> = ["id", "name", "diagnosis"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut input = AnalyzerInput::new(&store).with_schema("patients", &columns);
        input.constraints = &constraints;
        let hits = ws004_inference_channels(&input);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].code, "WS004");
    }

    #[test]
    fn ws004_singleton_guard_blocks_channel() {
        // A sub-constraint at the same level already blocks single-attribute
        // probes, so no channel.
        let store = PolicyStore::new();
        let constraints = vec![
            PrivacyConstraint::new(&["name", "diagnosis"], PrivacyLevel::Private),
            PrivacyConstraint::new(&["diagnosis"], PrivacyLevel::Private),
        ];
        let columns: Vec<String> = ["id", "name", "diagnosis"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut input = AnalyzerInput::new(&store).with_schema("patients", &columns);
        input.constraints = &constraints;
        let hits = ws004_inference_channels(&input);
        assert!(hits.iter().all(|h| !h.span.contains("name")), "{hits:?}");
    }

    #[test]
    fn ws005_dangling_document() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("ghost.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let input = AnalyzerInput::new(&store).with_document("h.xml", &d);
        let report = Analyzer::analyze(&input);
        let hits = report.with_code("WS005");
        assert!(
            hits.iter()
                .any(|f| f.severity == Severity::Error && f.message.contains("ghost.xml")),
            "{}",
            report.human()
        );
    }

    #[test]
    fn ws005_unregistered_collection() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Collection("wards".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let d = doc();
        let input = AnalyzerInput::new(&store).with_document("h.xml", &d);
        let hits = ws005_dangling_references(&input);
        assert!(hits.iter().any(|f| f.message.contains("never registered")));
    }

    #[test]
    fn ws005_unknown_subject_and_credential() {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("ghost".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::WithCredentials(CredentialExpr::OfType(
                "unicorn-wrangler".into(),
            )))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
        );
        let d = doc();
        let mut input = AnalyzerInput::new(&store).with_document("h.xml", &d);
        input.known_subjects = Some(["alice".to_string()].into_iter().collect());
        input.known_credential_types = Some(["physician".to_string()].into_iter().collect());
        let hits = ws005_dangling_references(&input);
        assert!(hits.iter().any(|f| f.message.contains("ghost")));
        assert!(hits.iter().any(|f| f.message.contains("unicorn-wrangler")));
    }
}
