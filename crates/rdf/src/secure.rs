//! Semantic-level access control for RDF.
//!
//! §3.2: "to make the semantic web secure, we need to ensure that RDF
//! documents are secure … with RDF we also need to ensure that security is
//! preserved at the semantic level."
//!
//! An [`RdfAuthorization`] scopes a grant or denial to a triple pattern and
//! a subject specification (reusing `websec-policy` subjects). Enforcement
//! comes in two modes:
//!
//! * [`EnforcementMode::Syntactic`] filters only the *stored* triples — the
//!   strawman: a denial on `(?x type SecretAgent)` still leaks every
//!   instance typed through a subclass, because the protected fact is
//!   *entailed*, not stored.
//! * [`EnforcementMode::Semantic`] evaluates queries over the RDFS closure
//!   and applies denials there, so inferable protected facts stay hidden.
//!
//! Triples can additionally carry multilevel [`ContextLabel`]s, giving the
//! paper's "declassify an RDF document, once the war is over" behaviour,
//! and the policies themselves can be *written in RDF* and loaded with
//! [`SecureStore::load_policies_from_rdf`].

use crate::schema::Schema;
use crate::store::{rdf, PatternTerm, Triple, TriplePattern, TripleStore};
use crate::term::Term;
use websec_policy::mls::{Clearance, ContextLabel, Level, SecurityContext};
use websec_policy::{RoleHierarchy, Sign, SubjectProfile, SubjectSpec};

/// Vocabulary for policies-in-RDF.
pub mod vocab {
    /// Policy class.
    pub const POLICY: &str = "http://websec.example/sec#Policy";
    /// Links a policy to the identity it applies to.
    pub const APPLIES_TO: &str = "http://websec.example/sec#appliesToIdentity";
    /// Subject-position constant of the protected pattern (optional).
    pub const PATTERN_S: &str = "http://websec.example/sec#patternSubject";
    /// Predicate-position constant of the protected pattern (optional).
    pub const PATTERN_P: &str = "http://websec.example/sec#patternPredicate";
    /// Object-position constant of the protected pattern (optional).
    pub const PATTERN_O: &str = "http://websec.example/sec#patternObject";
    /// Sign literal: `"grant"` or `"deny"`.
    pub const SIGN: &str = "http://websec.example/sec#sign";
}

/// A pattern-scoped authorization.
#[derive(Debug, Clone, PartialEq)]
pub struct RdfAuthorization {
    /// Who the rule applies to.
    pub subject: SubjectSpec,
    /// The protected pattern.
    pub pattern: TriplePattern,
    /// Grant or deny.
    pub sign: Sign,
}

/// Enforcement mode for query filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Filter stored triples only (leaky; kept as the measured baseline).
    Syntactic,
    /// Filter the RDFS closure (protects entailed facts).
    Semantic,
}

/// A triple store with authorizations, optional schema closure, and
/// context-dependent multilevel labels.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SecureStore {
    /// The underlying triples.
    pub store: TripleStore,
    authorizations: Vec<RdfAuthorization>,
    /// Role hierarchy for subject matching.
    pub hierarchy: RoleHierarchy,
    /// `(pattern, label)` pairs: a triple matching the pattern carries the
    /// label (first match wins; unlabeled triples are Unclassified).
    labels: Vec<(TriplePattern, ContextLabel)>,
}

impl SecureStore {
    /// Creates an empty secure store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an authorization.
    pub fn add_authorization(&mut self, authorization: RdfAuthorization) {
        self.authorizations.push(authorization);
    }

    /// Attaches a context label to every triple matching `pattern`.
    pub fn add_label(&mut self, pattern: TriplePattern, label: ContextLabel) {
        self.labels.push((pattern, label));
    }

    /// The effective level of `triple` in `context`.
    #[must_use]
    pub fn triple_level(&self, triple: &Triple, context: &SecurityContext) -> Level {
        for (pattern, label) in &self.labels {
            if pattern.matches(triple) {
                return label.effective(context);
            }
        }
        Level::Unclassified
    }

    /// Is `triple` readable by `profile` under the discretionary rules?
    /// Open policy on grants (RDF data is web data: readable unless denied)
    /// with denials taking precedence, matching §3.2's emphasis on
    /// protecting selected portions.
    fn discretionary_allows(&self, profile: &SubjectProfile, triple: &Triple) -> bool {
        let mut granted = true; // open default
        for auth in &self.authorizations {
            if !auth.subject.matches(profile, &self.hierarchy) {
                continue;
            }
            if auth.pattern.matches(triple) {
                match auth.sign {
                    Sign::Minus => return false, // denials take precedence
                    Sign::Plus => granted = true,
                }
            }
        }
        granted
    }

    /// Queries the store as `profile` with `clearance` in `context`.
    ///
    /// Semantic mode evaluates over the RDFS closure (protecting inferable
    /// facts and returning inferable answers the subject may see);
    /// syntactic mode evaluates over stored triples only.
    #[must_use]
    pub fn query_as(
        &self,
        profile: &SubjectProfile,
        clearance: Clearance,
        context: &SecurityContext,
        pattern: &TriplePattern,
        mode: EnforcementMode,
    ) -> Vec<Triple> {
        let base = match mode {
            EnforcementMode::Syntactic => self.store.query(pattern),
            EnforcementMode::Semantic => Schema::closure(&self.store).query(pattern),
        };
        base.into_iter()
            .filter(|t| self.discretionary_allows(profile, t))
            .filter(|t| self.triple_level(t, context) <= clearance.0)
            .collect()
    }

    /// Counts protected facts leaked to `profile` under `mode`: answers the
    /// subject receives that would be denied under full semantic
    /// enforcement. This is experiment E6's metric.
    #[must_use]
    pub fn leakage(
        &self,
        profile: &SubjectProfile,
        clearance: Clearance,
        context: &SecurityContext,
        probe: &TriplePattern,
        mode: EnforcementMode,
    ) -> usize {
        // What the subject can *learn* under `mode`: the closure of what the
        // mode lets through (the subject can run inference client-side!).
        let visible = match mode {
            EnforcementMode::Syntactic => {
                // Everything stored that passes the filters, then closed by
                // the adversary locally.
                let mut passed = TripleStore::new();
                for t in self.store.all() {
                    if self.discretionary_allows(profile, &t)
                        && self.triple_level(&t, context) <= clearance.0
                    {
                        passed.insert(&t);
                    }
                }
                Schema::closure(&passed)
            }
            EnforcementMode::Semantic => {
                // Semantic enforcement filters the closure itself; the
                // adversary's local closure adds nothing beyond re-deriving
                // from allowed facts — which is exactly what we must count.
                let closed = Schema::closure(&self.store);
                let mut passed = TripleStore::new();
                for t in closed.all() {
                    if self.discretionary_allows(profile, &t)
                        && self.triple_level(&t, context) <= clearance.0
                    {
                        passed.insert(&t);
                    }
                }
                Schema::closure(&passed)
            }
        };
        // Forbidden facts: matches of `probe` in the full closure that the
        // subject is NOT allowed to see.
        Schema::closure(&self.store)
            .query(probe)
            .into_iter()
            .filter(|t| {
                !(self.discretionary_allows(profile, t)
                    && self.triple_level(t, context) <= clearance.0)
            })
            .filter(|t| visible.contains(t))
            .count()
    }

    /// Loads authorizations expressed in RDF (the paper's "Can we specify
    /// security policies in RDF?"). Policy resources are typed
    /// `websec:Policy` and carry `appliesToIdentity`, optional pattern
    /// constants, and a `sign` literal.
    pub fn load_policies_from_rdf(&mut self, policy_graph: &TripleStore) {
        let policies = policy_graph.query(&TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri(rdf::TYPE)),
            PatternTerm::c(Term::iri(vocab::POLICY)),
        ));
        for p in policies {
            let policy_res = p.s;
            let get = |pred: &str| -> Option<Term> {
                policy_graph
                    .query(&TriplePattern::new(
                        PatternTerm::c(policy_res.clone()),
                        PatternTerm::c(Term::iri(pred)),
                        PatternTerm::Any,
                    ))
                    .into_iter()
                    .next()
                    .map(|t| t.o)
            };
            let subject = match get(vocab::APPLIES_TO) {
                Some(Term::Literal(id)) => SubjectSpec::Identity(id),
                _ => SubjectSpec::Anyone,
            };
            let pos = |t: Option<Term>| match t {
                Some(term) => PatternTerm::Const(term),
                None => PatternTerm::Any,
            };
            let pattern = TriplePattern::new(
                pos(get(vocab::PATTERN_S)),
                pos(get(vocab::PATTERN_P)),
                pos(get(vocab::PATTERN_O)),
            );
            let sign = match get(vocab::SIGN) {
                Some(Term::Literal(s)) if s == "grant" => Sign::Plus,
                _ => Sign::Minus,
            };
            self.add_authorization(RdfAuthorization {
                subject,
                pattern,
                sign,
            });
        }
    }

    /// Number of loaded authorizations.
    #[must_use]
    pub fn authorization_count(&self) -> usize {
        self.authorizations.len()
    }

    /// The loaded authorizations, in insertion order (read-only view for
    /// static analysis).
    #[must_use]
    pub fn authorizations(&self) -> &[RdfAuthorization] {
        &self.authorizations
    }

    /// The `(pattern, label)` pairs, in match-priority order (read-only
    /// view for static analysis).
    #[must_use]
    pub fn labels(&self) -> &[(TriplePattern, ContextLabel)] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::rdfs;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// Taxonomy where the protected fact is entailed, not stored:
    /// agent-x is typed CovertOperative, CovertOperative ⊑ SecretAgent.
    fn covert_store() -> SecureStore {
        let mut ss = SecureStore::new();
        ss.store
            .insert(&t("CovertOperative", rdfs::SUB_CLASS_OF, "SecretAgent"));
        ss.store.insert(&t("agent-x", rdf::TYPE, "CovertOperative"));
        ss.store.insert(&t("bob", rdf::TYPE, "Clerk"));
        // Deny anyone seeing who is a SecretAgent.
        ss.add_authorization(RdfAuthorization {
            subject: SubjectSpec::Anyone,
            pattern: TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::c(Term::iri(rdf::TYPE)),
                PatternTerm::c(Term::iri("SecretAgent")),
            ),
            sign: Sign::Minus,
        });
        ss
    }

    fn anyone() -> (SubjectProfile, Clearance, SecurityContext) {
        (
            SubjectProfile::new("user"),
            Clearance(Level::TopSecret),
            SecurityContext::new(),
        )
    }

    #[test]
    fn syntactic_mode_leaks_entailed_fact() {
        let ss = covert_store();
        let (profile, clearance, ctx) = anyone();
        let probe = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri(rdf::TYPE)),
            PatternTerm::c(Term::iri("SecretAgent")),
        );
        // The denied pattern itself returns nothing either way...
        assert!(ss
            .query_as(
                &profile,
                clearance,
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
        // ...but the subclass typing leaks through syntactic enforcement,
        // letting the adversary infer the protected fact:
        assert_eq!(
            ss.leakage(
                &profile,
                clearance,
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            ),
            1
        );
    }

    #[test]
    fn semantic_mode_blocks_inference_channel() {
        let ss = covert_store();
        let (profile, clearance, ctx) = anyone();
        let probe = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri(rdf::TYPE)),
            PatternTerm::c(Term::iri("SecretAgent")),
        );
        // Semantic enforcement alone still leaves the *stored* subclass
        // typing visible; full protection also requires denying the
        // implying fact — which semantic leakage accounting surfaces:
        let leak_semantic =
            ss.leakage(&profile, clearance, &ctx, &probe, EnforcementMode::Semantic);
        // The entailed (agent-x type SecretAgent) is filtered from answers:
        assert!(ss
            .query_as(&profile, clearance, &ctx, &probe, EnforcementMode::Semantic)
            .is_empty());
        // But because (agent-x type CovertOperative) remains visible, the
        // adversary still infers it: the metric is honest about that.
        assert_eq!(leak_semantic, 1);

        // Closing the channel: also deny the implying typing.
        let mut ss2 = covert_store();
        ss2.add_authorization(RdfAuthorization {
            subject: SubjectSpec::Anyone,
            pattern: TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::c(Term::iri(rdf::TYPE)),
                PatternTerm::c(Term::iri("CovertOperative")),
            ),
            sign: Sign::Minus,
        });
        assert_eq!(
            ss2.leakage(&profile, clearance, &ctx, &probe, EnforcementMode::Semantic),
            0
        );
        // Unrelated data still flows.
        let clerk_probe = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri(rdf::TYPE)),
            PatternTerm::c(Term::iri("Clerk")),
        );
        assert_eq!(
            ss2.query_as(
                &profile,
                clearance,
                &ctx,
                &clerk_probe,
                EnforcementMode::Semantic
            )
            .len(),
            1
        );
    }

    #[test]
    fn semantic_mode_returns_entailed_answers_when_allowed() {
        let mut ss = SecureStore::new();
        ss.store.insert(&t("Doctor", rdfs::SUB_CLASS_OF, "Person"));
        ss.store.insert(&t("alice", rdf::TYPE, "Doctor"));
        let (profile, clearance, ctx) = anyone();
        let probe = TriplePattern::new(
            PatternTerm::Any,
            PatternTerm::c(Term::iri(rdf::TYPE)),
            PatternTerm::c(Term::iri("Person")),
        );
        // Syntactic: the entailed answer is missing.
        assert!(ss
            .query_as(
                &profile,
                clearance,
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
        // Semantic: present.
        assert_eq!(
            ss.query_as(&profile, clearance, &ctx, &probe, EnforcementMode::Semantic)
                .len(),
            1
        );
    }

    #[test]
    fn identity_scoped_denial() {
        let mut ss = SecureStore::new();
        ss.store.insert(&t("acme", "revenue", "secret-number"));
        ss.add_authorization(RdfAuthorization {
            subject: SubjectSpec::Identity("mallory".into()),
            pattern: TriplePattern::new(
                PatternTerm::Any,
                PatternTerm::c(Term::iri("revenue")),
                PatternTerm::Any,
            ),
            sign: Sign::Minus,
        });
        let ctx = SecurityContext::new();
        let probe = TriplePattern::new(PatternTerm::Any, PatternTerm::Any, PatternTerm::Any);
        let mallory = SubjectProfile::new("mallory");
        let alice = SubjectProfile::new("alice");
        assert!(ss
            .query_as(
                &mallory,
                Clearance(Level::TopSecret),
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
        assert_eq!(
            ss.query_as(
                &alice,
                Clearance(Level::TopSecret),
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .len(),
            1
        );
    }

    #[test]
    fn context_declassification() {
        let mut ss = SecureStore::new();
        ss.store.insert(&t("op-neptune", "location", "grid-42"));
        ss.add_label(
            TriplePattern::new(
                PatternTerm::c(Term::iri("op-neptune")),
                PatternTerm::Any,
                PatternTerm::Any,
            ),
            ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified),
        );
        let probe = TriplePattern::new(
            PatternTerm::c(Term::iri("op-neptune")),
            PatternTerm::Any,
            PatternTerm::Any,
        );
        let profile = SubjectProfile::new("journalist");
        let clearance = Clearance(Level::Unclassified);
        let war = SecurityContext::new().with_condition("wartime");
        let peace = SecurityContext::new();
        assert!(ss
            .query_as(
                &profile,
                clearance,
                &war,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
        assert_eq!(
            ss.query_as(
                &profile,
                clearance,
                &peace,
                &probe,
                EnforcementMode::Syntactic
            )
            .len(),
            1
        );
    }

    #[test]
    fn reified_statement_protection() {
        // Protecting "statements about statements": deny access to the
        // reification quad of a sensitive triple.
        let mut ss = SecureStore::new();
        let sensitive = t("agent-x", "reportsTo", "hq");
        let stmt = ss.store.reify(&sensitive);
        ss.add_authorization(RdfAuthorization {
            subject: SubjectSpec::Anyone,
            pattern: TriplePattern::new(
                PatternTerm::c(stmt.clone()),
                PatternTerm::Any,
                PatternTerm::Any,
            ),
            sign: Sign::Minus,
        });
        let (profile, clearance, ctx) = anyone();
        let probe = TriplePattern::new(PatternTerm::c(stmt), PatternTerm::Any, PatternTerm::Any);
        assert!(ss
            .query_as(
                &profile,
                clearance,
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
    }

    #[test]
    fn policies_loaded_from_rdf() {
        let mut policy_graph = TripleStore::new();
        let pol = Term::iri("http://websec.example/pol/1");
        policy_graph.insert(&Triple::new(
            pol.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(vocab::POLICY),
        ));
        policy_graph.insert(&Triple::new(
            pol.clone(),
            Term::iri(vocab::APPLIES_TO),
            Term::lit("mallory"),
        ));
        policy_graph.insert(&Triple::new(
            pol.clone(),
            Term::iri(vocab::PATTERN_P),
            Term::iri("salary"),
        ));
        policy_graph.insert(&Triple::new(pol, Term::iri(vocab::SIGN), Term::lit("deny")));

        let mut ss = SecureStore::new();
        ss.store.insert(&t("alice", "salary", "100k"));
        ss.load_policies_from_rdf(&policy_graph);
        assert_eq!(ss.authorization_count(), 1);

        let ctx = SecurityContext::new();
        let probe = TriplePattern::new(PatternTerm::Any, PatternTerm::Any, PatternTerm::Any);
        assert!(ss
            .query_as(
                &SubjectProfile::new("mallory"),
                Clearance(Level::TopSecret),
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .is_empty());
        assert_eq!(
            ss.query_as(
                &SubjectProfile::new("alice"),
                Clearance(Level::TopSecret),
                &ctx,
                &probe,
                EnforcementMode::Syntactic
            )
            .len(),
            1
        );
    }
}
