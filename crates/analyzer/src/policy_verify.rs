//! Static verification of the compiled policy plane (WS013–WS018).
//!
//! PR 8 made the decision path an analyzable artifact: every published
//! snapshot carries [`CompiledPolicies`] — interned decision tables and
//! per-document equivalence classes. The passes here reason over that
//! artifact (falling back to the compiled `check` oracle where static
//! coverage alone cannot decide) and emit six diagnostics:
//!
//! * **WS013 rule shadowing** — removing an authorization changes no
//!   decision: another rule covers everything it does and beats it, or
//!   it is a denial every grant it can meet beats.
//! * **WS014 conflict** — a grant and a denial for overlapping subjects
//!   land in the same equivalence class, or bear on the same selected
//!   attribute (its attribute entry plus its element's class), for a
//!   shared privilege; an exact resolution-key tie under a keyed
//!   strategy is an error.
//! * **WS015 dead policy** — an authorization covers no element and no
//!   attribute of any compiled document.
//! * **WS016 privilege-escalation chain** — the role-dominator closure
//!   grants a senior role access that a direct denial on that role
//!   would forbid.
//! * **WS017 revocation gap** — an identity-level denial (a revocation)
//!   is still reachable through a role the identity can activate.
//! * **WS018 inference channel** — a subject is denied an element but
//!   granted every element child, so the permitted views compose to
//!   the denied element's full content. Decided once per (witness,
//!   equivalence class), then read per element and child.
//!
//! WS013, WS014 and WS015 are the stack's only shadowing, grant/denial
//! conflict and dead-rule checks, and the verifier is the stack's only
//! reader of the compiled tables: the analyzer (WS003–WS012) reads the
//! stores alone.
//!
//! All passes read only the [`Section::Policy`] and
//! [`Section::Documents`] sections, so the server's generation-keyed
//! incremental analysis can skip the whole suite when neither changed.
//! Reports are normalized: identical inputs yield byte-identical
//! machine output.

use std::collections::{BTreeSet, HashMap, HashSet};

use websec_policy::{
    AccessDecision, Authorization, CompiledPolicies, ConflictStrategy, Credential, CredentialExpr,
    PolicyEngine, Privilege, RoleHierarchy, Sign, SubjectProfile, SubjectSpec,
};
use websec_xml::Document;

use crate::diagnostics::{Diagnostic, Report, Severity};
use crate::passes::{auth_span, Section};

/// Privileges in implication order, with their relevance-mask bits.
const PRIVILEGES: [(Privilege, u8); 4] = [
    (Privilege::Browse, 1),
    (Privilege::Read, 2),
    (Privilege::Write, 4),
    (Privilege::Admin, 8),
];

/// Input to the policy-verifier passes: the compiled artifact plus the
/// source documents it was compiled over (needed by WS018 to walk
/// element/child structure).
#[derive(Clone)]
pub struct PolicyVerifyInput<'a> {
    /// The compiled decision plane under verification.
    pub compiled: &'a CompiledPolicies,
    /// `(name, document)` pairs; only documents also present in the
    /// compiled artifact are inspected.
    pub documents: Vec<(&'a str, &'a Document)>,
}

impl<'a> PolicyVerifyInput<'a> {
    /// Creates an input over `compiled` with no documents attached.
    #[must_use]
    pub fn new(compiled: &'a CompiledPolicies) -> Self {
        PolicyVerifyInput {
            compiled,
            documents: Vec::new(),
        }
    }

    /// Attaches a source document (builder style).
    #[must_use]
    pub fn with_document(mut self, name: &'a str, doc: &'a Document) -> Self {
        self.documents.push((name, doc));
        self
    }
}

/// Identifies one policy-verifier pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyPassId {
    /// WS013 rule shadowing over the compiled plane.
    Ws013,
    /// WS014 grant/deny conflict inside an equivalence class.
    Ws014,
    /// WS015 dead policy (covers nothing anywhere).
    Ws015,
    /// WS016 privilege escalation through the role-dominator closure.
    Ws016,
    /// WS017 revocation gap through a dominator path.
    Ws017,
    /// WS018 inference channel via view composition.
    Ws018,
}

impl PolicyPassId {
    /// Every policy-verifier pass, in code order.
    pub const ALL: [PolicyPassId; 6] = [
        PolicyPassId::Ws013,
        PolicyPassId::Ws014,
        PolicyPassId::Ws015,
        PolicyPassId::Ws016,
        PolicyPassId::Ws017,
        PolicyPassId::Ws018,
    ];

    /// The stable diagnostic code the pass emits.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            PolicyPassId::Ws013 => "WS013",
            PolicyPassId::Ws014 => "WS014",
            PolicyPassId::Ws015 => "WS015",
            PolicyPassId::Ws016 => "WS016",
            PolicyPassId::Ws017 => "WS017",
            PolicyPassId::Ws018 => "WS018",
        }
    }

    /// One-line description of what the pass proves.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            PolicyPassId::Ws013 => "rule shadowing: removing the rule changes no decision",
            PolicyPassId::Ws014 => {
                "conflict: overlapping subjects both granted and denied in one class or attribute"
            }
            PolicyPassId::Ws015 => "dead policy: authorization matches no element in any document",
            PolicyPassId::Ws016 => {
                "privilege escalation: role-dominator closure overrides a direct denial"
            }
            PolicyPassId::Ws017 => {
                "revocation gap: revoked identity still reachable through a role path"
            }
            PolicyPassId::Ws018 => {
                "inference channel: permitted child views compose to a denied element"
            }
        }
    }

    /// The input sections the pass reads; every policy pass depends on
    /// the policy base and the registered documents, nothing else.
    #[must_use]
    pub fn sections(self) -> &'static [Section] {
        &[Section::Policy, Section::Documents]
    }
}

/// Runs a single policy-verifier pass over `input`.
#[must_use]
pub fn run_policy_pass(input: &PolicyVerifyInput<'_>, pass: PolicyPassId) -> Vec<Diagnostic> {
    match pass {
        PolicyPassId::Ws013 => ws013_shadowing(input),
        PolicyPassId::Ws014 => ws014_class_conflicts(input),
        PolicyPassId::Ws015 => ws015_dead_policies(input),
        PolicyPassId::Ws016 => ws016_escalation_chains(input),
        PolicyPassId::Ws017 => ws017_revocation_gaps(input),
        PolicyPassId::Ws018 => ws018_inference_channels(input),
    }
}

/// Runs WS013–WS018 and aggregates the findings into a normalized
/// report (byte-identical for identical inputs).
#[must_use]
pub fn verify_policies(input: &PolicyVerifyInput<'_>) -> Report {
    let mut diagnostics = Vec::new();
    for pass in PolicyPassId::ALL {
        diagnostics.extend(run_policy_pass(input, pass));
    }
    let mut report = Report { diagnostics };
    report.normalize();
    report
}

fn pair_span(a: &Authorization, b: &Authorization) -> String {
    format!("authorizations #{} and #{}", a.id.0, b.id.0)
}

/// Could a single subject match both specs? Conservative, except that two
/// *unrelated* roles are treated as disjoint — a profile activating both at
/// once is possible but rare enough that flagging every role pair would
/// drown real findings.
fn subjects_may_overlap(a: &SubjectSpec, b: &SubjectSpec, hierarchy: &RoleHierarchy) -> bool {
    match (a, b) {
        (SubjectSpec::Anyone, _) | (_, SubjectSpec::Anyone) => true,
        (SubjectSpec::Identity(x), SubjectSpec::Identity(y)) => x == y,
        (SubjectSpec::InRole(r), SubjectSpec::InRole(s)) => {
            hierarchy.dominates(r, s) || hierarchy.dominates(s, r)
        }
        // Identity vs role, anything vs credentials: membership is not
        // statically known, so assume overlap.
        _ => true,
    }
}

/// Bitmask of privileges the authorization is relevant to (grant of `q`
/// supports any `p ≤ q`; denial of `q` blocks any `p ≥ q`).
fn relevance_mask(auth: &Authorization) -> u8 {
    let mut mask = 0u8;
    for (p, bit) in PRIVILEGES {
        if PolicyEngine::relevant(auth, p) {
            mask |= bit;
        }
    }
    mask
}

/// First (weakest) privilege both masks are relevant to.
fn first_shared_privilege(a: u8, b: u8) -> Option<Privilege> {
    PRIVILEGES
        .iter()
        .find(|(_, bit)| a & bit != 0 && b & bit != 0)
        .map(|&(p, _)| p)
}

/// Does every subject matched by `inner` also match `outer`? A static
/// under-approximation: credential expressions cover only when equal.
fn subject_covers(outer: &SubjectSpec, inner: &SubjectSpec, hierarchy: &RoleHierarchy) -> bool {
    match (outer, inner) {
        (SubjectSpec::Anyone, _) => true,
        (SubjectSpec::Identity(x), SubjectSpec::Identity(y)) => x == y,
        // inner-role subjects activate `ri`; they also activate `ro` when
        // `ri` dominates `ro` (their activating role then dominates both).
        (SubjectSpec::InRole(ro), SubjectSpec::InRole(ri)) => hierarchy.dominates(ri, ro),
        (SubjectSpec::WithCredentials(x), SubjectSpec::WithCredentials(y)) => x == y,
        _ => false,
    }
}

/// Could one profile match both specs? Fully conservative, unlike
/// [`subjects_may_overlap`]: a profile can hold any number of roles and
/// credentials, so only two different identities are disjoint.
fn subjects_can_meet(a: &SubjectSpec, b: &SubjectSpec) -> bool {
    !matches!((a, b), (SubjectSpec::Identity(x), SubjectSpec::Identity(y)) if x != y)
}

/// Does `w` win over `l` wherever both apply, so that with `w` present,
/// removing `l` changes no decision? The same sign at a resolution key at
/// least as strong; a denial over a grant under deny-precedence or at a
/// key at least as strong (keyed ties go to the denial); a grant over a
/// denial under permit-precedence or at a strictly stronger key.
fn beats(compiled: &CompiledPolicies, w: &Authorization, l: &Authorization) -> bool {
    let (kw, kl) = (compiled.resolution_key(w), compiled.resolution_key(l));
    match (w.sign, compiled.strategy()) {
        (sign, _) if sign == l.sign => kw >= kl,
        (_, ConflictStrategy::DenialsTakePrecedence) => w.sign == Sign::Minus,
        (_, ConflictStrategy::PermissionsTakePrecedence) => w.sign == Sign::Plus,
        (Sign::Minus, _) => kw >= kl,
        (Sign::Plus, _) => kw > kl,
    }
}

/// What WS013 reads from the compiled tables, per source authorization
/// (indexed like [`CompiledPolicies::source_authorizations`]).
struct Shadowing<'a> {
    compiled: &'a CompiledPolicies,
    /// Source index of each authorization id.
    index: HashMap<u32, usize>,
    masks: Vec<u8>,
    /// The `(document, class)` pairs a rule decides in: the classes whose
    /// nodes it covers and those of the elements whose attributes it
    /// selects. An attribute is decided over the rules selecting it plus
    /// its element's class rules, so a rule that selects no attribute and
    /// covers every class of this set takes part in every decision the
    /// rule does. Empty for a rule that covers nothing.
    classes: Vec<BTreeSet<(usize, u32)>>,
    selects_attribute: Vec<bool>,
    /// Per denial: some grant can meet it in one of its decisions without
    /// beating it.
    held: Vec<bool>,
}

impl<'a> Shadowing<'a> {
    fn new(compiled: &'a CompiledPolicies) -> Self {
        let auths = compiled.source_authorizations();
        let mut s = Shadowing {
            compiled,
            index: auths.iter().enumerate().map(|(i, a)| (a.id.0, i)).collect(),
            masks: auths.iter().map(|auth| relevance_mask(auth)).collect(),
            classes: vec![BTreeSet::new(); auths.len()],
            selects_attribute: vec![false; auths.len()],
            held: vec![false; auths.len()],
        };
        for (doc, name) in compiled.document_names().into_iter().enumerate() {
            let Some(classes) = compiled.classes_of(name) else {
                continue;
            };
            for cv in &classes {
                for rule in &cv.auths {
                    let i = s.index[&rule.id.0];
                    s.classes[i].insert((doc, cv.class));
                }
                s.meet(&cv.auths, &cv.auths);
            }
            // An entry's decision set depends only on its class and the
            // rules selecting it, so each distinct pair is read once.
            let mut scanned: BTreeSet<(u32, Vec<u32>)> = BTreeSet::new();
            for entry in compiled.attrs_of(name).unwrap_or_default() {
                if !scanned.insert((entry.class, entry.auths.iter().map(|a| a.id.0).collect())) {
                    continue;
                }
                for rule in &entry.auths {
                    let i = s.index[&rule.id.0];
                    s.classes[i].insert((doc, entry.class));
                    s.selects_attribute[i] = true;
                }
                let class_rules = &classes[entry.class as usize].auths;
                s.meet(&entry.auths, &entry.auths);
                s.meet(&entry.auths, class_rules);
                s.meet(class_rules, &entry.auths);
            }
        }
        s
    }

    /// Marks each denial in `denials` that a grant in `grants` can meet —
    /// a shared privilege, subjects not provably disjoint — without
    /// beating it.
    fn meet(&mut self, grants: &[&Authorization], denials: &[&Authorization]) {
        for grant in grants.iter().filter(|a| a.sign == Sign::Plus) {
            let g = self.index[&grant.id.0];
            for denial in denials.iter().filter(|a| a.sign == Sign::Minus) {
                let d = self.index[&denial.id.0];
                if !self.held[d]
                    && self.masks[g] & self.masks[d] != 0
                    && subjects_can_meet(&grant.subject, &denial.subject)
                    && !beats(self.compiled, grant, denial)
                {
                    self.held[d] = true;
                }
            }
        }
    }

    /// Does rule `w` cover every class, subject and privilege rule `l`
    /// does, and beat it? Then `w` takes part in every decision `l` does
    /// and wins it.
    fn dominates(&self, w: usize, l: usize) -> bool {
        let auths = self.compiled.source_authorizations();
        !self.selects_attribute[w]
            && self.masks[w] & self.masks[l] == self.masks[l]
            && beats(self.compiled, &auths[w], &auths[l])
            && subject_covers(
                &auths[w].subject,
                &auths[l].subject,
                self.compiled.hierarchy(),
            )
            && self.classes[l].is_subset(&self.classes[w])
    }
}

/// WS013: a rule whose removal changes no decision, for one of two
/// reasons. Another rule that selects no attribute covers every class,
/// subject and privilege it does and beats it ([`beats`]); of two rules
/// dominating each other, only the later is reported. Or it is a denial
/// that every grant it can meet beats, including a denial that meets no
/// grant: where it applies without a winning grant, the closed-world
/// default denies just the same. Revoking every flagged rule at once changes no decision
/// either: each dominated rule keeps an unflagged dominator. A rule that
/// covers nothing is WS015's.
fn ws013_shadowing(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    let compiled = input.compiled;
    let auths = compiled.source_authorizations();
    let s = Shadowing::new(compiled);
    let mut out = Vec::new();
    for (l, rule) in auths.iter().enumerate() {
        if s.classes[l].is_empty() {
            continue;
        }
        let id = rule.id.0;
        let shadower = (0..auths.len())
            .find(|&w| w != l && s.dominates(w, l) && (w < l || !s.dominates(l, w)));
        if let Some(w) = shadower {
            let sign = match rule.sign {
                Sign::Plus => "grant",
                Sign::Minus => "denial",
            };
            let by = auths[w].id.0;
            let how = if auths[w].sign == rule.sign {
                "at a resolution key at least as strong"
            } else {
                "and overrides it wherever both apply"
            };
            out.push(
                Diagnostic::new(
                    "WS013",
                    Severity::Warning,
                    pair_span(&auths[w], rule),
                    format!(
                        "{sign} #{id} is shadowed: #{by} applies to every subject, privilege, \
                         and equivalence class it covers, {how}"
                    ),
                )
                .with_suggestion(format!(
                    "remove authorization #{id} or narrow #{by} so #{id} can take effect"
                )),
            );
        } else if rule.sign == Sign::Minus && !s.held[l] {
            out.push(
                Diagnostic::new(
                    "WS013",
                    Severity::Warning,
                    auth_span(rule),
                    format!(
                        "denial #{id} is shadowed: every grant it can meet overrides it, and \
                         where it meets none the closed-world default denies without it"
                    ),
                )
                .with_suggestion(format!(
                    "remove authorization #{id}, or make it win over the grants it should block"
                )),
            );
        }
    }
    out
}

/// WS014: a grant and a denial for possibly-overlapping subjects share a
/// decision for a shared privilege: both cover one equivalence class, or
/// both bear on one selected attribute (among the rules selecting it and
/// those covering its element, at least one of the two selecting it).
/// Under a keyed strategy an exact key tie is an error (the outcome rests
/// on the deny-wins tiebreak, not on anything the author expressed);
/// otherwise the overlap is reported as a warning. Each pair is reported
/// once, at its first class in document-name order, else at its first
/// attribute.
fn ws014_class_conflicts(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    let compiled = input.compiled;
    let hierarchy = compiled.hierarchy();
    let collision = |grant: &Authorization, denial: &Authorization| {
        first_shared_privilege(relevance_mask(grant), relevance_mask(denial))
            .filter(|_| subjects_may_overlap(&grant.subject, &denial.subject, hierarchy))
    };
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    // Documents with selected attributes, each with its classes' rules,
    // walked once every class has been.
    let mut attr_docs = Vec::new();
    for name in compiled.document_names() {
        let Some(classes) = compiled.classes_of(name) else {
            continue;
        };
        for cv in &classes {
            for grant in cv.auths.iter().filter(|a| a.sign == Sign::Plus) {
                for denial in cv.auths.iter().filter(|a| a.sign == Sign::Minus) {
                    let Some(privilege) = collision(grant, denial) else {
                        continue;
                    };
                    if seen.insert((grant.id.0, denial.id.0)) {
                        let place = format!("equivalence class {} of '{name}'", cv.class);
                        out.push(ws014_conflict(compiled, grant, denial, privilege, &place));
                    }
                }
            }
        }
        if let Some(attrs) = compiled.attrs_of(name).filter(|attrs| !attrs.is_empty()) {
            let class_rules: Vec<Vec<&Authorization>> =
                classes.into_iter().map(|cv| cv.auths).collect();
            attr_docs.push((name, attrs, class_rules));
        }
    }
    for (name, attrs, class_rules) in attr_docs {
        // An entry's pairs depend only on its class and the rules
        // selecting it, so each distinct (class, selecting rules) is
        // scanned once: a later entry with the same key could only
        // repeat pairs already reported.
        let mut scanned: BTreeSet<(u32, Vec<u32>)> = BTreeSet::new();
        for entry in attrs {
            if !scanned.insert((entry.class, entry.auths.iter().map(|a| a.id.0).collect())) {
                continue;
            }
            // The rules selecting the attribute come first, then those
            // covering its element; a pair of two element rules is the
            // class walk's.
            let selecting = entry.auths.len();
            let rules: Vec<&Authorization> = entry
                .auths
                .iter()
                .chain(&class_rules[entry.class as usize])
                .copied()
                .collect();
            for (gi, grant) in rules.iter().enumerate() {
                if grant.sign != Sign::Plus {
                    continue;
                }
                let denials = if gi < selecting {
                    &rules[..]
                } else {
                    &rules[..selecting]
                };
                for denial in denials.iter().filter(|d| d.sign == Sign::Minus) {
                    let pair = (grant.id.0, denial.id.0);
                    if seen.contains(&pair) {
                        continue;
                    }
                    let Some(privilege) = collision(grant, denial) else {
                        continue;
                    };
                    seen.insert(pair);
                    let place = format!(
                        "attribute '{}' in equivalence class {} of '{name}'",
                        entry.attribute, entry.class
                    );
                    out.push(ws014_conflict(compiled, grant, denial, privilege, &place));
                }
            }
        }
    }
    out
}

/// The WS014 finding for `grant` and `denial` colliding on `place` for
/// `privilege`.
fn ws014_conflict(
    compiled: &CompiledPolicies,
    grant: &Authorization,
    denial: &Authorization,
    privilege: Privilege,
    place: &str,
) -> Diagnostic {
    let tied = compiled.strategy_is_keyed()
        && compiled.resolution_key(grant) == compiled.resolution_key(denial);
    let severity = if tied {
        Severity::Error
    } else {
        Severity::Warning
    };
    let tie_note = if tied {
        " at an exact resolution-key tie"
    } else {
        ""
    };
    Diagnostic::new(
        "WS014",
        severity,
        pair_span(grant, denial),
        format!(
            "grant #{} and denial #{} both cover {place} for privilege {privilege:?} with \
             overlapping subjects{tie_note}",
            grant.id.0, denial.id.0
        ),
    )
    .with_suggestion(
        "separate the subjects or set distinct resolution keys so the intended rule wins",
    )
}

/// WS015: an authorization whose object spec matches no element and no
/// attribute of any compiled document — dead weight in the policy base,
/// usually a typo in a path or document name.
fn ws015_dead_policies(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    let compiled = input.compiled;
    if compiled.doc_count() == 0 {
        // Nothing registered yet: every rule would be trivially "dead".
        return Vec::new();
    }
    let mut live: BTreeSet<u32> = BTreeSet::new();
    for name in compiled.document_names() {
        if let Some(ids) = compiled.covered_auth_ids(name) {
            live.extend(ids.into_iter().map(|id| id.0));
        }
    }
    compiled
        .source_authorizations()
        .iter()
        .filter(|auth| !live.contains(&auth.id.0))
        .map(|auth| {
            Diagnostic::new(
                "WS015",
                Severity::Warning,
                auth_span(auth),
                format!(
                    "dead policy: authorization #{} on {:?} matches no element or attribute \
                     in any registered document",
                    auth.id.0, auth.object
                ),
            )
            .with_suggestion("fix the document name or path, or remove the authorization")
        })
        .collect()
}

/// WS016: inside one equivalence class, a grant to a junior role and a
/// denial to a senior role — and the dominator closure (senior subjects
/// activate everything they dominate) makes the senior *pass* anyway.
/// Confirmed against the compiled oracle before reporting.
fn ws016_escalation_chains(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    let compiled = input.compiled;
    let hierarchy = compiled.hierarchy();
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    for name in compiled.document_names() {
        let Some(classes) = compiled.classes_of(name) else {
            continue;
        };
        for cv in classes {
            for grant in cv.auths.iter().filter(|a| a.sign == Sign::Plus) {
                let SubjectSpec::InRole(junior) = &grant.subject else {
                    continue;
                };
                for denial in cv.auths.iter().filter(|a| a.sign == Sign::Minus) {
                    let SubjectSpec::InRole(senior) = &denial.subject else {
                        continue;
                    };
                    if senior == junior || !hierarchy.dominates(senior, junior) {
                        continue;
                    }
                    let Some(privilege) =
                        first_shared_privilege(relevance_mask(grant), relevance_mask(denial))
                    else {
                        continue;
                    };
                    let witness = SubjectProfile::new("ws016:witness").with_role(senior.clone());
                    if compiled.check(&witness, name, cv.first_node, privilege)
                        != Some(AccessDecision::Granted)
                        || !seen.insert((grant.id.0, denial.id.0))
                    {
                        continue;
                    }
                    out.push(
                        Diagnostic::new(
                            "WS016",
                            Severity::Warning,
                            pair_span(grant, denial),
                            format!(
                                "privilege escalation: role '{}' dominates '{}', so grant #{} \
                                 reaches it through the hierarchy and overrides denial #{} for \
                                 {:?} on class {} of '{}'",
                                senior.0,
                                junior.0,
                                grant.id.0,
                                denial.id.0,
                                privilege,
                                cv.class,
                                name
                            ),
                        )
                        .with_suggestion(
                            "deny at higher priority/specificity, or break the seniority edge \
                             the escalation rides",
                        ),
                    );
                }
            }
        }
    }
    out
}

/// WS017: an identity-level denial (the revocation idiom) coexists with
/// a role grant in the same class, and the identity *with the role
/// activated* still gets through while the bare identity is denied —
/// the revocation has a gap through the dominator path.
fn ws017_revocation_gaps(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    let compiled = input.compiled;
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    for name in compiled.document_names() {
        let Some(classes) = compiled.classes_of(name) else {
            continue;
        };
        for cv in classes {
            for denial in cv.auths.iter().filter(|a| a.sign == Sign::Minus) {
                let SubjectSpec::Identity(who) = &denial.subject else {
                    continue;
                };
                for grant in cv.auths.iter().filter(|a| a.sign == Sign::Plus) {
                    let SubjectSpec::InRole(role) = &grant.subject else {
                        continue;
                    };
                    let Some(privilege) =
                        first_shared_privilege(relevance_mask(grant), relevance_mask(denial))
                    else {
                        continue;
                    };
                    let with_role = SubjectProfile::new(who).with_role(role.clone());
                    let bare = SubjectProfile::new(who);
                    if compiled.check(&with_role, name, cv.first_node, privilege)
                        != Some(AccessDecision::Granted)
                        || compiled.check(&bare, name, cv.first_node, privilege)
                            != Some(AccessDecision::Denied)
                        || !seen.insert((denial.id.0, grant.id.0))
                    {
                        continue;
                    }
                    out.push(
                        Diagnostic::new(
                            "WS017",
                            Severity::Warning,
                            pair_span(denial, grant),
                            format!(
                                "revocation gap: '{}' is denied {:?} by #{} but regains it on \
                                 class {} of '{}' by activating role '{}' (grant #{})",
                                who, privilege, denial.id.0, cv.class, name, role.0, grant.id.0
                            ),
                        )
                        .with_suggestion(
                            "revoke at role level too, or raise the denial's priority above \
                             the role grant",
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Best-effort construction of a credential set satisfying `expr`.
/// `None` when satisfaction cannot be guaranteed statically (negations).
fn satisfy(expr: &CredentialExpr) -> Option<Vec<Credential>> {
    match expr {
        CredentialExpr::OfType(t) => Some(vec![Credential::new(t, "ws018:witness")]),
        CredentialExpr::AttrEq(name, value) => {
            Some(vec![
                Credential::new("ws018:cred", "ws018:witness").with_attr(name, value.clone())
            ])
        }
        CredentialExpr::AttrGe(name, bound) | CredentialExpr::AttrLe(name, bound) => Some(vec![
            Credential::new("ws018:cred", "ws018:witness").with_attr(name, *bound),
        ]),
        CredentialExpr::HasAttr(name) => Some(vec![
            Credential::new("ws018:cred", "ws018:witness").with_attr(name, 1i64)
        ]),
        CredentialExpr::And(a, b) => {
            let mut creds = satisfy(a)?;
            creds.extend(satisfy(b)?);
            Some(creds)
        }
        CredentialExpr::Or(a, b) => satisfy(a).or_else(|| satisfy(b)),
        CredentialExpr::Not(_) => None,
    }
}

/// The identity of WS018's anonymous witness, the first in witness order.
const ANONYMOUS: &str = "ws018:anonymous";

/// Deterministic witness subjects drawn from the policy base: the
/// anonymous subject, then one witness per subject spec in policy-base
/// order, each kept only when no earlier witness has the same identity,
/// roles and credentials. Witness kinds never coincide: an identity
/// witness holds no role or credential, a role witness exactly one role
/// and no credential, a credential witness credentials only.
fn witness_profiles(compiled: &CompiledPolicies) -> Vec<SubjectProfile> {
    let mut out = vec![SubjectProfile::new(ANONYMOUS)];
    let mut identities: HashSet<&str> = HashSet::from([ANONYMOUS]);
    let mut roles: HashSet<&str> = HashSet::new();
    for auth in compiled.source_authorizations() {
        match &auth.subject {
            SubjectSpec::Anyone => {}
            SubjectSpec::Identity(who) => {
                if identities.insert(who) {
                    out.push(SubjectProfile::new(who));
                }
            }
            SubjectSpec::InRole(role) => {
                if roles.insert(&role.0) {
                    out.push(
                        SubjectProfile::new(&format!("ws018:role:{}", role.0))
                            .with_role(role.clone()),
                    );
                }
            }
            SubjectSpec::WithCredentials(expr) => {
                let Some(creds) = satisfy(expr) else { continue };
                let mut profile = SubjectProfile::new("ws018:credentialed");
                for cred in creds {
                    profile = profile.with_credential(cred);
                }
                if !out.iter().any(|w| same_witness(w, &profile)) {
                    out.push(profile);
                }
            }
        }
    }
    out
}

/// Whether two witnesses hold the same identity, roles and credentials
/// (type, holder, attributes, issuer and signature presence; witness
/// credentials are never signed).
fn same_witness(a: &SubjectProfile, b: &SubjectProfile) -> bool {
    let same_credential = |x: &Credential, y: &Credential| {
        x.ctype == y.ctype
            && x.holder == y.holder
            && x.attributes == y.attributes
            && x.issuer == y.issuer
            && x.signature.is_none()
            && y.signature.is_none()
    };
    a.identity == b.identity
        && a.roles == b.roles
        && a.credentials.len() == b.credentials.len()
        && a.credentials
            .iter()
            .zip(&b.credentials)
            .all(|(x, y)| same_credential(x, y))
}

/// WS018: for some witness subject, an element is denied `Read` but
/// every element child is granted it — the union of the permitted child
/// views reconstructs the denied element's full content. This is a
/// decision-plane property: per-portion queries answer for each child
/// regardless of how a single pruned view would be rendered.
///
/// A node's decision depends only on its equivalence class, so whether an
/// element is flagged, and by which witness, depends only on its *shape*:
/// its class and the set of its element children's classes. Each document
/// is walked once to give every element with element children its shape,
/// each distinct shape is decided once against the witnesses in order
/// (each witness resolving each class once through
/// [`CompiledPolicies::class_decisions`]), and every element of a flagged
/// shape is reported, exactly as a per-node [`CompiledPolicies::check`]
/// walk would report it (a node the tables do not hold is denied).
///
/// A witness of identity only that no rule of the document names matches
/// exactly the rules the anonymous witness matches there, and the
/// anonymous witness comes first, so such witnesses are skipped.
fn ws018_inference_channels(input: &PolicyVerifyInput<'_>) -> Vec<Diagnostic> {
    /// The class of a node the tables do not hold.
    const NONE: u32 = u32::MAX;
    let compiled = input.compiled;
    let witnesses = witness_profiles(compiled);
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut out = Vec::new();
    let mut class_of: Vec<u32> = Vec::new();
    let mut shape: Vec<u32> = Vec::new();
    for &(name, doc) in &input.documents {
        let (Some(classes), Some(node_classes)) =
            (compiled.classes_of(name), compiled.node_classes(name))
        else {
            continue;
        };
        class_of.clear();
        class_of.resize(doc.arena_len(), NONE);
        for (node, class) in node_classes {
            if let Some(slot) = class_of.get_mut(node.index()) {
                *slot = class;
            }
        }

        // Every element with element children, with its shape: its class,
        // then its children's classes, sorted and each once. An element
        // sharing its class with a child is never flagged (one class is
        // not both denied and granted), so it gets no shape.
        let mut shape_ids: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut shapes: Vec<Vec<u32>> = Vec::new();
        let mut elements: Vec<(usize, &str, usize, usize)> = Vec::new();
        let nodes = compiled.node_classes(name).into_iter().flatten();
        for (pos, (node, class)) in nodes.enumerate() {
            // Nodes of the compiled document, read in `doc`, which must be
            // that document: one that is not is read only where its arena
            // reaches.
            if node.index() >= doc.arena_len() {
                continue;
            }
            let Some(elem) = doc.name(node) else { continue };
            shape.clear();
            shape.push(class);
            let mut own_class = false;
            for child in doc.children(node).filter(|&c| doc.name(c).is_some()) {
                let child = class_of[child.index()];
                own_class = child == class;
                if own_class {
                    break;
                }
                shape.push(child);
            }
            let children = shape.len() - 1;
            if children == 0 || own_class {
                continue;
            }
            // No child shares the element's class, so deduplicating the
            // whole shape keeps the class in front.
            shape[1..].sort_unstable();
            shape.dedup();
            let id = match shape_ids.get(shape.as_slice()) {
                Some(&id) => id,
                None => {
                    shape_ids.insert(shape.clone(), shapes.len());
                    shapes.push(shape.clone());
                    shapes.len() - 1
                }
            };
            elements.push((pos, elem, children, id));
        }
        if shapes.is_empty() {
            continue;
        }

        // The first witness flagging each shape.
        let named: HashSet<&str> = classes
            .iter()
            .flat_map(|cv| &cv.auths)
            .filter_map(|auth| match &auth.subject {
                SubjectSpec::Identity(who) => Some(who.as_str()),
                _ => None,
            })
            .collect();
        let anonymous_named = named.contains(ANONYMOUS);
        let mut flagged_by: Vec<Option<usize>> = vec![None; shapes.len()];
        let mut open = shapes.len();
        for (w, witness) in witnesses.iter().enumerate() {
            if open == 0 {
                break;
            }
            let identity_only = witness.roles.is_empty() && witness.credentials.is_empty();
            if w > 0 && identity_only && !anonymous_named && !named.contains(&*witness.identity) {
                continue;
            }
            let granted = compiled
                .class_decisions(witness, name, Privilege::Read)
                .unwrap_or_default();
            let allows = |class: u32| granted.get(class as usize).copied().unwrap_or(false);
            for (shape, flag) in shapes.iter().zip(&mut flagged_by) {
                if flag.is_none() && !allows(shape[0]) && shape[1..].iter().all(|&c| allows(c)) {
                    *flag = Some(w);
                    open -= 1;
                }
            }
        }

        for (pos, elem, children, id) in elements {
            let Some(w) = flagged_by[id] else { continue };
            if !seen.insert((name, pos)) {
                continue;
            }
            out.push(
                Diagnostic::new(
                    "WS018",
                    Severity::Warning,
                    format!("document '{name}' element '{elem}'"),
                    format!(
                        "inference channel: subject '{}' is denied Read on <{}> but \
                         granted all {} element children — the permitted views compose \
                         to the denied element's content",
                        witnesses[w].identity, elem, children
                    ),
                )
                .with_suggestion(
                    "propagate the denial to the children (Cascade) or deny the \
                     children explicitly",
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{
        Authorization, ConflictStrategy, ObjectSpec, PolicySnapshot, PolicyStore, Propagation, Role,
    };
    use websec_xml::{Document, DocumentStore, Path};

    fn hospital_doc() -> Document {
        Document::parse(
            "<hospital><patient id=\"p1\" ssn=\"123\"><name>Ann</name><diagnosis>flu\
             </diagnosis></patient><admin><budget>100</budget></admin></hospital>",
        )
        .expect("fixture parses")
    }

    fn compile(
        store: &PolicyStore,
        strategy: ConflictStrategy,
        doc: &Document,
    ) -> std::sync::Arc<CompiledPolicies> {
        let mut documents = DocumentStore::new();
        documents.insert("h.xml", doc.clone());
        PolicySnapshot::new(store, strategy, &documents).compile()
    }

    fn codes(report: &Report) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ws013_fires_on_covered_later_rule_and_respects_keys() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").expect("path"),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let found = run_policy_pass(&input, PolicyPassId::Ws013);
        assert_eq!(found.len(), 1, "portion rule is shadowed: {found:?}");

        // Under MostSpecificObject the finer portion rule wins ties, so it
        // is NOT shadowed.
        let compiled = compile(&store, ConflictStrategy::MostSpecificObject, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert!(run_policy_pass(&input, PolicyPassId::Ws013).is_empty());
    }

    /// WS013 spans of `store` compiled over `doc` under `strategy`.
    fn ws013_spans(store: &PolicyStore, strategy: ConflictStrategy, doc: &Document) -> Vec<String> {
        let compiled = compile(store, strategy, doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", doc);
        run_policy_pass(&input, PolicyPassId::Ws013)
            .into_iter()
            .map(|d| d.span)
            .collect()
    }

    /// A blanket `Anyone` denial of Browse (which blocks every privilege)
    /// dominates a narrower Read grant under deny-precedence; under
    /// permit-precedence the grant wins instead, and the denial, which
    /// every grant it can meet overrides, is the redundant rule.
    #[test]
    fn ws013_denial_dominates_a_grant_across_signs() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Browse)
                .deny(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("bob".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").expect("path"),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        assert_eq!(
            ws013_spans(&store, ConflictStrategy::DenialsTakePrecedence, &doc),
            ["authorizations #0 and #1"]
        );
        assert_eq!(
            ws013_spans(&store, ConflictStrategy::PermissionsTakePrecedence, &doc),
            ["authorization #0"]
        );
    }

    /// A denial is redundant when every grant it can meet overrides it
    /// (permit-precedence) or when it meets no grant at all (two different
    /// identities never meet); one grant it can meet that does not
    /// override it keeps it. An identity and a role always meet: the
    /// identity may hold the role.
    #[test]
    fn ws013_flags_a_denial_every_grant_it_meets_beats() {
        let doc = hospital_doc();
        let rule = |subject: SubjectSpec| {
            Authorization::for_subject(subject)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
        };
        let mut gap = PolicyStore::new();
        gap.add(rule(SubjectSpec::Identity("eve".into())).deny());
        gap.add(rule(SubjectSpec::InRole(Role::new("staff"))).grant());
        assert_eq!(
            ws013_spans(&gap, ConflictStrategy::PermissionsTakePrecedence, &doc),
            ["authorization #0"]
        );
        assert!(ws013_spans(&gap, ConflictStrategy::DenialsTakePrecedence, &doc).is_empty());

        let mut disjoint = PolicyStore::new();
        disjoint.add(rule(SubjectSpec::Identity("ann".into())).grant());
        disjoint.add(rule(SubjectSpec::Identity("bob".into())).deny());
        assert_eq!(
            ws013_spans(&disjoint, ConflictStrategy::DenialsTakePrecedence, &doc),
            ["authorization #1"]
        );
    }

    #[test]
    fn subject_cover_role_hierarchy() {
        let mut h = RoleHierarchy::new();
        h.add_seniority(Role::new("chief"), Role::new("doctor"));
        // Everyone activating "chief" also activates "doctor", so a
        // doctor-rule covers a chief-rule's subjects.
        assert!(subject_covers(
            &SubjectSpec::InRole(Role::new("doctor")),
            &SubjectSpec::InRole(Role::new("chief")),
            &h
        ));
        assert!(!subject_covers(
            &SubjectSpec::InRole(Role::new("chief")),
            &SubjectSpec::InRole(Role::new("doctor")),
            &h
        ));
    }

    #[test]
    fn ws014_tie_is_error_and_disjoint_subjects_are_clean() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .priority(3)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .priority(3)
                .deny(),
        );
        let compiled = compile(&store, ConflictStrategy::ExplicitPriority, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let found = run_policy_pass(&input, PolicyPassId::Ws014);
        assert!(
            found.iter().any(|d| d.severity == Severity::Error),
            "priority tie must be an error: {found:?}"
        );

        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("ann".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("bob".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .deny(),
        );
        let compiled = compile(&store, ConflictStrategy::ExplicitPriority, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert!(run_policy_pass(&input, PolicyPassId::Ws014).is_empty());

        // A pair the strategy resolves is a warning: the outcome rests on
        // the strategy, not on a tie.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("eve".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("/hospital/admin").expect("path"),
                })
                .privilege(Privilege::Read)
                .deny(),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let found = run_policy_pass(&input, PolicyPassId::Ws014);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].severity, Severity::Warning);
        assert_eq!(found[0].span, "authorizations #0 and #1");
    }

    #[test]
    fn ws015_flags_only_rules_that_cover_nothing() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("ghost.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        // A path that selects nothing in a registered document is dead
        // too.
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//nonexistent").expect("path"),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let found = run_policy_pass(&input, PolicyPassId::Ws015);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].message.contains("ghost.xml"));
        assert_eq!(found[1].span, "authorization #2");
    }

    #[test]
    fn ws016_fires_only_when_the_dominator_actually_passes() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store
            .hierarchy
            .add_seniority(Role::new("chief"), Role::new("intern"));
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("intern")))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("chief")))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .deny(),
        );
        let compiled = compile(&store, ConflictStrategy::PermissionsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert_eq!(run_policy_pass(&input, PolicyPassId::Ws016).len(), 1);

        // Deny-wins closes the chain: the chief is denied, no escalation.
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert!(run_policy_pass(&input, PolicyPassId::Ws016).is_empty());
    }

    #[test]
    fn ws017_fires_only_when_the_role_path_reopens_access() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("eve".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .deny(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::InRole(Role::new("staff")))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let compiled = compile(&store, ConflictStrategy::PermissionsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert_eq!(run_policy_pass(&input, PolicyPassId::Ws017).len(), 1);

        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert!(run_policy_pass(&input, PolicyPassId::Ws017).is_empty());
    }

    #[test]
    fn ws018_fires_on_uncascaded_denial_and_not_on_cascade() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("/hospital/admin").expect("path"),
                })
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::None),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let found = run_policy_pass(&input, PolicyPassId::Ws018);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("admin"), "{found:?}");

        // Cascading the denial closes the channel.
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("/hospital/admin").expect("path"),
                })
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::Cascade),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        assert!(run_policy_pass(&input, PolicyPassId::Ws018).is_empty());
    }

    /// An identity witness no rule of a document names decides there like
    /// the anonymous witness, so WS018 skips it, unless a rule of the
    /// document names the anonymous witness itself: then `eve`, named only
    /// by a rule on another document, is the first witness denied `<admin>`
    /// and granted its `<budget>`.
    #[test]
    fn ws018_keeps_identity_witnesses_when_the_anonymous_one_is_named() {
        let doc = hospital_doc();
        let portion = |path: &str| ObjectSpec::Portion {
            document: "h.xml".into(),
            path: Path::parse(path).expect("path"),
        };
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(portion("/hospital/admin"))
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::None),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("eve".into()))
                .on(ObjectSpec::Document("other.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let messages = |store: &PolicyStore| {
            let compiled = compile(store, ConflictStrategy::DenialsTakePrecedence, &doc);
            let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
            run_policy_pass(&input, PolicyPassId::Ws018)
                .into_iter()
                .map(|d| d.message)
                .collect::<Vec<_>>()
        };
        let found = messages(&store);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("subject 'ws018:anonymous'"), "{found:?}");

        store.add(
            Authorization::for_subject(SubjectSpec::Identity(ANONYMOUS.into()))
                .on(portion("//budget"))
                .privilege(Privilege::Read)
                .deny()
                .with_propagation(Propagation::None),
        );
        let found = messages(&store);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("subject 'eve'"), "{found:?}");
    }

    #[test]
    fn verify_policies_is_deterministic() {
        let doc = hospital_doc();
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Anyone)
                .on(ObjectSpec::Document("ghost.xml".into()))
                .privilege(Privilege::Read)
                .deny(),
        );
        let compiled = compile(&store, ConflictStrategy::DenialsTakePrecedence, &doc);
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let a = verify_policies(&input).to_json();
        let b = verify_policies(&input).to_json();
        assert_eq!(a, b);
        assert!(codes(&verify_policies(&input)).contains(&"WS015"));
    }
}
