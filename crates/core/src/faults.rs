//! Deterministic fault injection and client-facing resilience policies.
//!
//! The paper's threat model assumes untrusted, failure-prone parties —
//! third-party publishers, discovery agencies, lossy channels — yet the
//! serving engine's failure paths (`WS103` channel faults, `WS106` shard
//! poisoning, publication races) were previously reachable only by real
//! panics in ad-hoc tests. This module makes every failure path a
//! first-class, *replayable* input:
//!
//! * A [`FaultPlan`] is a seeded set of [`FaultRule`]s. Each rule names a
//!   [`FaultKind`] (what breaks), a scope (which subject / document /
//!   worker it applies to), and a [`FaultSchedule`] (when it fires, as a
//!   pure function of a deterministic per-`(rule, subject, document)`
//!   event index — never of wall time or thread timing).
//! * Installing a plan on a [`crate::server::StackServer`]
//!   ([`crate::server::StackServer::install_faults`]) arms injection hooks
//!   at the four layers that can fail: channel transit, session-shard lock
//!   acquisition, view-cache lookups, and worker evaluation. With no
//!   plan installed the hooks are a single relaxed atomic-bool load — the
//!   zero-cost no-op default.
//! * [`RetryPolicy`] is the client-side half: bounded attempts with
//!   decorrelated-jitter backoff driven by the server's **logical clock**
//!   (ticks, not wall time), so retry traces replay exactly. It pairs with
//!   per-request deadline budgets ([`crate::request::QueryRequest::deadline_ticks`],
//!   `WS107`) and admission-control load shedding
//!   ([`crate::server::StackServer::set_queue_limit`], `WS108`).
//!
//! Determinism guarantee: for a fixed plan, the *multiset* of injected
//! faults over a fixed per-key event count is identical on every run.
//! Event indices are allocated per `(rule, subject, document)` stream, so
//! which worker thread observes a given fault may vary under parallel
//! batches, but how many fire — and therefore every counter in
//! [`crate::server::MetricsSnapshot`] that the chaos suite asserts on —
//! does not.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use crate::hash::{fnv1a, FNV1A_START};
use crate::sync::{TrackedAtomicU64, TrackedMutex};

use websec_crypto::SecureRng;

/// The serving layer a fault hook lives at. Each [`FaultKind`] maps to
/// exactly one layer; a rule only ever fires at its kind's layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// [`websec_services::ChannelSession`] transit (drop / tamper).
    Channel,
    /// Session-shard lock acquisition in the sharded session table.
    Shard,
    /// Policy-view cache lookups.
    Cache,
    /// Worker request evaluation.
    Eval,
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The sealed record is dropped in transit: the request fails with
    /// `WS103` before evaluation. Session state is untouched (the drop is
    /// modelled before the client seals).
    ChannelDrop,
    /// The sealed record is bit-flipped in transit and rejected by the
    /// receiving endpoint's MAC check — the channel's *genuine* tamper
    /// detection runs and the request fails `WS103`. The session's
    /// sequence numbers are rewound (modelling retransmission of the
    /// authentic record), so the session stays usable.
    ChannelTamper,
    /// The evaluation panics inside the worker's panic boundary: the
    /// request degrades to `WS106`, the panicking worker's session mutex
    /// is poisoned, and the eviction/self-heal path runs for real.
    WorkerPanic,
    /// The request's cached view is evicted from the L2 immediately before
    /// lookup, forcing a recomputation. Never changes an answer — only
    /// cache-status and hit counters.
    CacheEvict,
    /// The evaluation consumes extra logical-clock ticks (the deterministic
    /// stand-in for a slow evaluation); interacts with per-request
    /// deadline budgets (`WS107`).
    SlowEval {
        /// Ticks added to the server's logical clock when the fault fires.
        ticks: u64,
    },
    /// The session-shard lock acquisition behaves as poisoned: the request
    /// fails `WS106` and the identity's session is evicted so the next
    /// request re-establishes cleanly.
    LockPoison,
}

impl FaultKind {
    /// The injection layer this kind fires at.
    #[must_use]
    pub fn layer(&self) -> FaultLayer {
        match self {
            FaultKind::ChannelDrop | FaultKind::ChannelTamper => FaultLayer::Channel,
            FaultKind::LockPoison => FaultLayer::Shard,
            FaultKind::CacheEvict => FaultLayer::Cache,
            FaultKind::WorkerPanic | FaultKind::SlowEval { .. } => FaultLayer::Eval,
        }
    }

    /// Stable short name (used in metrics dumps and chaos-test logs).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::ChannelDrop => "channel_drop",
            FaultKind::ChannelTamper => "channel_tamper",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::CacheEvict => "cache_evict",
            FaultKind::SlowEval { .. } => "slow_eval",
            FaultKind::LockPoison => "lock_poison",
        }
    }
}

/// When a rule fires, as a pure function of the rule's derived seed and
/// the deterministic event index of its `(subject, document)` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Fires on every matched event.
    Always,
    /// Fires when `index % every == offset % every`.
    Nth {
        /// Stream period (0 never fires).
        every: u64,
        /// Offset within the period.
        offset: u64,
    },
    /// Fires exactly once, at the given event index.
    At(u64),
    /// Fires for every event index strictly below the bound — the
    /// "transient outage" schedule: the first `n` events fail, then the
    /// fault clears and retries succeed.
    Until(u64),
    /// Seeded Bernoulli trial per event: fires with probability
    /// `permille / 1000`, decided by a [`SecureRng`] stream derived from
    /// the rule seed, the key hash, and the event index (bit-reproducible
    /// across runs and thread interleavings).
    Random {
        /// Firing probability in thousandths (1000 = always).
        permille: u16,
    },
}

impl FaultSchedule {
    fn fires(&self, rule_seed: u64, key_hash: u64, index: u64) -> bool {
        match self {
            FaultSchedule::Always => true,
            FaultSchedule::Nth { every, offset } => *every > 0 && index % every == offset % every,
            FaultSchedule::At(n) => index == *n,
            FaultSchedule::Until(n) => index < *n,
            FaultSchedule::Random { permille } => {
                let mut seed = [0u8; 24];
                seed[..8].copy_from_slice(&rule_seed.to_le_bytes());
                seed[8..16].copy_from_slice(&key_hash.to_le_bytes());
                seed[16..].copy_from_slice(&index.to_le_bytes());
                SecureRng::from_seed(&seed).next_u64() % 1000 < u64::from(*permille)
            }
        }
    }
}

/// One injectable fault: a kind, an optional subject/document/worker
/// scope (unset = match any), and a firing schedule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// What breaks when the rule fires.
    pub kind: FaultKind,
    /// Only requests by this subject identity are matched (any if `None`).
    pub subject: Option<String>,
    /// Only requests for this document are matched (any if `None`).
    pub doc: Option<String>,
    /// Only this batch worker index is matched (any if `None`; the
    /// single-request [`crate::server::StackServer::serve`] path has no
    /// worker index and never matches a worker-scoped rule).
    pub worker: Option<usize>,
    /// When the rule fires within its matched event stream.
    pub schedule: FaultSchedule,
}

impl FaultRule {
    /// A rule of the given kind, unscoped, firing on every matched event.
    #[must_use]
    pub fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            subject: None,
            doc: None,
            worker: None,
            schedule: FaultSchedule::Always,
        }
    }

    /// Scopes the rule to one subject identity.
    #[must_use]
    pub fn for_subject(mut self, subject: &str) -> Self {
        self.subject = Some(subject.to_string());
        self
    }

    /// Scopes the rule to one document name.
    #[must_use]
    pub fn for_doc(mut self, doc: &str) -> Self {
        self.doc = Some(doc.to_string());
        self
    }

    /// Scopes the rule to one batch worker index.
    #[must_use]
    pub fn for_worker(mut self, worker: usize) -> Self {
        self.worker = Some(worker);
        self
    }

    /// Sets the firing schedule.
    #[must_use]
    pub fn on(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    fn matches(&self, site: &FaultSite<'_>) -> bool {
        if let Some(subject) = &self.subject {
            if subject != site.subject {
                return false;
            }
        }
        if let Some(doc) = &self.doc {
            if doc != site.doc {
                return false;
            }
        }
        if let Some(worker) = self.worker {
            if site.worker != Some(worker) {
                return false;
            }
        }
        true
    }
}

/// A seeded, composable set of fault rules. Install on a server with
/// [`crate::server::StackServer::install_faults`]; the same plan against
/// the same workload replays the exact failure schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan whose per-rule randomness derives from `seed` (via a
    /// [`SecureRng`] stream, one sub-seed per rule in order of addition).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder-style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in firing-priority order.
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// True when the plan has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One injection site, described by the layer being entered and the
/// request coordinates a rule's scope can match on.
pub(crate) struct FaultSite<'a> {
    pub layer: FaultLayer,
    pub subject: &'a str,
    pub doc: &'a str,
    pub worker: Option<usize>,
}

impl FaultSite<'_> {
    /// The event-stream key: rules count events per `(subject, document)`
    /// so schedules are stable regardless of worker assignment.
    fn key_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.subject.len() + self.doc.len() + 1);
        bytes.extend_from_slice(self.subject.as_bytes());
        bytes.push(0x1f);
        bytes.extend_from_slice(self.doc.as_bytes());
        fnv1a(&bytes, FNV1A_START)
    }
}

/// The armed form of a [`FaultPlan`]: per-rule event counters plus fired
/// tallies. Returned by [`crate::server::StackServer::install_faults`] so
/// chaos tests can assert the injected schedule exactly.
pub struct FaultInjector {
    plan: FaultPlan,
    rule_seeds: Vec<u64>,
    /// Per rule: event index allocated per `(subject, document)` key hash.
    counters: Vec<TrackedMutex<HashMap<u64, u64>>>,
    fired: Vec<TrackedAtomicU64>,
}

impl FaultInjector {
    /// Arms a plan: derives one sub-seed per rule from the plan seed.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let mut rng = SecureRng::seeded(plan.seed);
        let rule_seeds: Vec<u64> = plan.rules.iter().map(|_| rng.next_u64()).collect();
        let counters = plan
            .rules
            .iter()
            .map(|_| TrackedMutex::new("faults.counters", HashMap::new()))
            .collect();
        let fired = plan
            .rules
            .iter()
            .map(|_| TrackedAtomicU64::counter("faults.fired", 0))
            .collect();
        FaultInjector {
            plan,
            rule_seeds,
            counters,
            fired,
        }
    }

    /// The installed plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many times rule `index` has fired.
    #[must_use]
    pub fn fired(&self, index: usize) -> u64 {
        // Monotonic tally read after the run; relaxed readers tolerate lag.
        self.fired
            .get(index)
            .map_or(0, |f| f.load(Ordering::Relaxed)) // lint:allow(relaxed-counter)
    }

    /// Total fires across all rules.
    #[must_use]
    pub fn fired_total(&self) -> u64 {
        // Monotonic tallies summed for reporting only.
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum() // lint:allow(relaxed-counter)
    }

    /// Per-rule `(kind, fired)` tallies, in rule order.
    #[must_use]
    pub fn fired_counts(&self) -> Vec<(FaultKind, u64)> {
        self.plan
            .rules
            .iter()
            .zip(self.fired.iter())
            // Per-rule tally read for assertions after the run completes.
            .map(|(rule, fired)| (rule.kind, fired.load(Ordering::Relaxed))) // lint:allow(relaxed-counter)
            .collect()
    }

    /// Evaluates every rule of `site.layer` matching `site`, advancing each
    /// matched rule's event stream by one, and returns the kinds that
    /// fired (in rule order). A poisoned counter lock falls back to event
    /// index 0 — injection degrades rather than panics.
    pub(crate) fn check(&self, site: &FaultSite<'_>) -> Vec<FaultKind> {
        let mut fired = Vec::new();
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.kind.layer() != site.layer || !rule.matches(site) {
                continue;
            }
            let key_hash = site.key_hash();
            let index = {
                let mut map = self.counters[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let slot = map.entry(key_hash).or_insert(0);
                let current = *slot;
                *slot += 1;
                current
            };
            if rule.schedule.fires(self.rule_seeds[i], key_hash, index) {
                // Order-free accumulation: no reader derives other memory
                // from the tally, so relaxed increments suffice.
                self.fired[i].fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed-counter)
                fired.push(rule.kind);
            }
        }
        fired
    }
}

/// Everything an injection hook needs: the armed injector plus the
/// request coordinates. Built once per request on the serving path.
pub(crate) struct FaultContext<'a> {
    pub injector: &'a FaultInjector,
    pub subject: &'a str,
    pub doc: &'a str,
    pub worker: Option<usize>,
}

impl FaultContext<'_> {
    /// Rules of `layer` that fire for this request, in rule order.
    pub fn check(&self, layer: FaultLayer) -> Vec<FaultKind> {
        self.injector.check(&FaultSite {
            layer,
            subject: self.subject,
            doc: self.doc,
            worker: self.worker,
        })
    }
}

/// Bounded retry with decorrelated-jitter backoff over the server's
/// logical clock (no wall time anywhere, so retry traces replay exactly).
///
/// Used by [`crate::server::StackServer::serve_with_retry`]: transient
/// failures (`WS103` channel, `WS106` shard/worker, `WS108` overload —
/// see [`crate::error::Error::is_transient`]) are retried up to
/// `max_attempts` total attempts; each retry advances the logical clock
/// by `backoff_ticks`, and any per-request deadline budget bounds the
/// whole sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to ≥ 1 at use).
    pub max_attempts: u32,
    /// Minimum backoff per retry, in logical ticks.
    pub base_ticks: u64,
    /// Maximum backoff per retry, in logical ticks.
    pub cap_ticks: u64,
    /// Seed for the decorrelated jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts, backoff in `[1, 64]`
    /// ticks, and a zero jitter seed.
    #[must_use]
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_ticks: 1,
            cap_ticks: 64,
            seed: 0,
        }
    }

    /// Sets the backoff bounds in logical ticks.
    #[must_use]
    pub fn backoff_range(mut self, base_ticks: u64, cap_ticks: u64) -> Self {
        self.base_ticks = base_ticks.max(1);
        self.cap_ticks = cap_ticks.max(self.base_ticks);
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff before attempt `attempt` (1-based over retries), given
    /// the previous backoff — decorrelated jitter:
    /// `min(cap, uniform(base, prev * 3))`, drawn from a deterministic
    /// stream keyed by `(seed, salt, attempt)` so distinct requests
    /// (distinct salts) desynchronize instead of thundering together.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32, prev: u64, salt: u64) -> u64 {
        let base = self.base_ticks.max(1);
        let cap = self.cap_ticks.max(base);
        let mut seed = [0u8; 24];
        seed[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed[8..16].copy_from_slice(&salt.to_le_bytes());
        seed[16..].copy_from_slice(&u64::from(attempt).to_le_bytes());
        let mut rng = SecureRng::from_seed(&seed);
        let upper = prev.saturating_mul(3).max(base);
        let span = upper - base + 1;
        (base + rng.gen_range(span)).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site<'a>(layer: FaultLayer, subject: &'a str, doc: &'a str) -> FaultSite<'a> {
        FaultSite {
            layer,
            subject,
            doc,
            worker: None,
        }
    }

    #[test]
    fn schedules_fire_deterministically() {
        let always = FaultSchedule::Always;
        let nth = FaultSchedule::Nth {
            every: 3,
            offset: 1,
        };
        let at = FaultSchedule::At(2);
        let until = FaultSchedule::Until(2);
        for index in 0..9 {
            assert!(always.fires(7, 1, index));
            assert_eq!(nth.fires(7, 1, index), index % 3 == 1);
            assert_eq!(at.fires(7, 1, index), index == 2);
            assert_eq!(until.fires(7, 1, index), index < 2);
        }
    }

    #[test]
    fn random_schedule_is_reproducible_and_rate_accurate() {
        let schedule = FaultSchedule::Random { permille: 100 };
        let first: Vec<bool> = (0..2000).map(|i| schedule.fires(42, 9, i)).collect();
        let second: Vec<bool> = (0..2000).map(|i| schedule.fires(42, 9, i)).collect();
        assert_eq!(first, second, "random schedule must replay exactly");
        let rate = first.iter().filter(|&&f| f).count() as f64 / 2000.0;
        assert!((0.05..0.16).contains(&rate), "10% schedule fired at {rate}");
        // A different rule seed yields a different (but still ~10%) stream.
        let other: Vec<bool> = (0..2000).map(|i| schedule.fires(43, 9, i)).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn injector_counts_per_subject_doc_stream() {
        let plan = FaultPlan::seeded(1).rule(
            FaultRule::new(FaultKind::ChannelDrop)
                .for_subject("alice")
                .on(FaultSchedule::Until(2)),
        );
        let injector = FaultInjector::new(plan);
        // First two alice events fire, the third does not.
        assert_eq!(
            injector.check(&site(FaultLayer::Channel, "alice", "d.xml")),
            vec![FaultKind::ChannelDrop]
        );
        assert_eq!(
            injector.check(&site(FaultLayer::Channel, "alice", "d.xml")),
            vec![FaultKind::ChannelDrop]
        );
        assert!(injector
            .check(&site(FaultLayer::Channel, "alice", "d.xml"))
            .is_empty());
        // Bob's stream is independent and unmatched by the subject scope.
        assert!(injector
            .check(&site(FaultLayer::Channel, "bob", "d.xml"))
            .is_empty());
        // A different doc is a different stream for the same subject.
        assert_eq!(
            injector.check(&site(FaultLayer::Channel, "alice", "other.xml")),
            vec![FaultKind::ChannelDrop]
        );
        assert_eq!(injector.fired_total(), 3);
        assert_eq!(injector.fired(0), 3);
        assert_eq!(injector.fired_counts(), vec![(FaultKind::ChannelDrop, 3)]);
    }

    #[test]
    fn rules_only_fire_at_their_kinds_layer() {
        let plan = FaultPlan::seeded(2)
            .rule(FaultRule::new(FaultKind::CacheEvict))
            .rule(FaultRule::new(FaultKind::LockPoison));
        let injector = FaultInjector::new(plan);
        assert_eq!(
            injector.check(&site(FaultLayer::Cache, "a", "d")),
            vec![FaultKind::CacheEvict]
        );
        assert_eq!(
            injector.check(&site(FaultLayer::Shard, "a", "d")),
            vec![FaultKind::LockPoison]
        );
        assert!(injector.check(&site(FaultLayer::Eval, "a", "d")).is_empty());
    }

    #[test]
    fn worker_scope_only_matches_that_worker() {
        let plan = FaultPlan::seeded(3).rule(FaultRule::new(FaultKind::WorkerPanic).for_worker(1));
        let injector = FaultInjector::new(plan);
        let unmatched = FaultSite {
            layer: FaultLayer::Eval,
            subject: "a",
            doc: "d",
            worker: Some(0),
        };
        let matched = FaultSite {
            worker: Some(1),
            ..unmatched
        };
        let serve_path = FaultSite {
            worker: None,
            ..unmatched
        };
        assert!(injector.check(&unmatched).is_empty());
        assert!(injector.check(&serve_path).is_empty());
        assert_eq!(injector.check(&matched), vec![FaultKind::WorkerPanic]);
    }

    #[test]
    fn backoff_is_bounded_decorrelated_and_deterministic() {
        let policy = RetryPolicy::new(5).backoff_range(2, 50).jitter_seed(9);
        let mut prev = policy.base_ticks;
        let mut trace = Vec::new();
        for attempt in 1..=8 {
            let b = policy.backoff_ticks(attempt, prev, 0xAB);
            assert!(
                (policy.base_ticks..=policy.cap_ticks).contains(&b),
                "backoff {b} out of [{}, {}]",
                policy.base_ticks,
                policy.cap_ticks
            );
            trace.push(b);
            prev = b;
        }
        // Replaying the same (seed, salt, attempt, prev) stream is exact.
        let mut prev2 = policy.base_ticks;
        for (attempt, &expected) in (1..=8u32).zip(trace.iter()) {
            let b = policy.backoff_ticks(attempt, prev2, 0xAB);
            assert_eq!(b, expected);
            prev2 = b;
        }
        // A different salt (another request) desynchronizes the jitter.
        let other: Vec<u64> = {
            let mut prev = policy.base_ticks;
            (1..=8u32)
                .map(|a| {
                    let b = policy.backoff_ticks(a, prev, 0xCD);
                    prev = b;
                    b
                })
                .collect()
        };
        assert_ne!(trace, other, "distinct salts should not thunder together");
    }

    #[test]
    fn plan_accessors() {
        let plan = FaultPlan::seeded(77).rule(FaultRule::new(FaultKind::ChannelDrop));
        assert_eq!(plan.seed(), 77);
        assert_eq!(plan.rules().len(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::seeded(0).is_empty());
        assert_eq!(FaultKind::SlowEval { ticks: 3 }.name(), "slow_eval");
        assert_eq!(FaultKind::SlowEval { ticks: 3 }.layer(), FaultLayer::Eval);
    }
}
