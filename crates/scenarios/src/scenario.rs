//! The [`Scenario`] data model.
//!
//! A scenario is everything one run needs, declared as a plain value:
//! corpus shape, traffic recipe, fault plan, revocation storm, UDDI churn,
//! mining pipeline, adversarial channel attacks, worker sweep, and the
//! invariants the run must uphold. Because the whole configuration is
//! data, it is diffable, `Debug`-fingerprintable (see
//! [`Scenario::fingerprint`]), and replayable from its seed alone.

use crate::corpus::HospitalSpec;
use crate::recipe::Recipe;
use websec_core::prelude::*;
use websec_core::{fnv1a, FNV1A_START};

/// How batch measurement rounds treat server state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmup {
    /// One server per worker point; an unmeasured warm batch populates
    /// sessions and view caches before the measured round (the mixed-
    /// workload bench shape).
    Warm,
    /// A fresh server per measured round, after one unmeasured ramp-up
    /// round on a throwaway server (the no-duplicate bench shape — the
    /// workload must stay cold).
    Cold,
}

/// A property the run must uphold; violations fail the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every batch position is byte-identical to the fault-free serial
    /// oracle, or (under an active fault plan) a stable `WS1xx` error —
    /// the chaos contract.
    SerialEquivalence,
    /// Every error anywhere in the run carries a `WS1xx` code (no panics
    /// laundered into ad-hoc failures, no unknown codes).
    ErrorsAreWs1xx,
    /// After a committed revocation epoch, no served view may contain
    /// revoked content and the first post-revocation serve must miss the
    /// view cache (no stale views past the epoch).
    NoStaleAfterRevocation,
    /// The workload is expected to produce no errors at all (used by
    /// deliberately-broken scenarios in the harness's own tests).
    ErrorFree,
}

/// A revocation storm: `updates` published policy mutations, each adding
/// a document-level deny for one of the first `subjects` granted
/// identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationStorm {
    /// Number of `update` calls (one snapshot recompile each).
    pub updates: usize,
    /// Distinct granted subjects revoked by the storm.
    pub subjects: usize,
}

/// UDDI registry churn: seeded saves/deletes/inquiries replayed twice —
/// the second replay must produce a byte-identical operation digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UddiChurn {
    /// Businesses seeded into the registry up front.
    pub businesses: usize,
    /// Churn operations (save / delete / inquire) drawn from the rng.
    pub ops: usize,
}

/// A mining pipeline over a seeded Zipfian basket dataset. Thresholds are
/// integers in parts-per-million so the scenario's `Debug` fingerprint is
/// stable (no float formatting in the fingerprint domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiningSpec {
    /// Number of generated baskets.
    pub baskets: usize,
    /// Item alphabet size.
    pub items: usize,
    /// Expected items per basket.
    pub avg_len: usize,
    /// Zipf exponent in hundredths (110 = 1.10).
    pub s_hundredths: u32,
    /// Apriori minimum support in parts-per-million.
    pub min_support_ppm: u32,
    /// Apriori minimum confidence in parts-per-million.
    pub min_confidence_ppm: u32,
}

/// Adversarial channel attacks driven alongside the workload: in-flight
/// record tampering (MAC rejection) and record replay (sequence-number
/// rejection). Every attempt must be rejected and every failure surfaced
/// as a stable error — never silently delivered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialSpec {
    /// Tampered client→server transits (last wire byte flipped).
    pub tampers: usize,
    /// Replayed wire records (same sealed record opened twice).
    pub replays: usize,
}

/// Whether the orchestrator answered a scenario from the fingerprint
/// cache or ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// The latest history row for this scenario carries the same
    /// fingerprint: the run was skipped.
    Hit,
    /// No history row matched: the scenario was (re-)run.
    Miss,
}

/// One declared scenario. Build with [`Scenario::named`] plus the
/// builder methods; every field is public so tests and tools can also
/// construct or inspect scenarios structurally.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique scenario name (the history/report key).
    pub name: String,
    /// Master seed: workload generation and every seeded sub-pipeline
    /// derive their streams from it.
    pub seed: u64,
    /// Corpus shape served by the stack under test.
    pub corpus: HospitalSpec,
    /// Traffic recipe lowered to the request batch.
    pub traffic: Recipe,
    /// Requests per batch.
    pub requests: usize,
    /// Worker counts swept by the batch rounds.
    pub workers: Vec<usize>,
    /// Warm or cold measurement rounds.
    pub warmup: Warmup,
    /// Measured rounds per worker point (best round is reported).
    pub rounds: usize,
    /// Admission-control queue depth, if bounded.
    pub queue_limit: Option<usize>,
    /// Seeded fault plan installed on the configured servers (the oracle
    /// server always runs fault-free).
    pub fault_plan: Option<FaultPlan>,
    /// Optional revocation storm phase.
    pub revocation: Option<RevocationStorm>,
    /// Optional UDDI churn phase.
    pub uddi: Option<UddiChurn>,
    /// Optional mining pipeline phase.
    pub mining: Option<MiningSpec>,
    /// Optional adversarial channel phase.
    pub adversarial: Option<AdversarialSpec>,
    /// Optional analysis-gate probe phase: under
    /// `AnalysisGate::Deny`, a seeded policy mutation that introduces a
    /// WS014 grant/deny conflict must be rejected (`WS109`) and must
    /// leave the published snapshot untouched.
    pub gate_probe: bool,
    /// Invariants the run must uphold.
    pub invariants: Vec<Invariant>,
}

impl Scenario {
    /// Starts a scenario with harness defaults: the small hospital corpus,
    /// the mixed workload, 256 requests, a `[1, 2]` worker sweep, warm
    /// rounds, and no optional phases.
    #[must_use]
    pub fn named(name: &str, seed: u64) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            corpus: HospitalSpec::small(),
            traffic: Recipe::mixed_hospital(),
            requests: 256,
            workers: vec![1, 2],
            warmup: Warmup::Warm,
            rounds: 1,
            queue_limit: None,
            fault_plan: None,
            revocation: None,
            uddi: None,
            mining: None,
            adversarial: None,
            gate_probe: false,
            invariants: Vec::new(),
        }
    }

    /// Sets the corpus shape.
    #[must_use]
    pub fn corpus(mut self, spec: HospitalSpec) -> Self {
        self.corpus = spec;
        self
    }

    /// Sets the traffic recipe.
    #[must_use]
    pub fn traffic(mut self, recipe: Recipe) -> Self {
        self.traffic = recipe;
        self
    }

    /// Sets the batch size.
    #[must_use]
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the worker sweep.
    #[must_use]
    pub fn workers(mut self, sweep: Vec<usize>) -> Self {
        self.workers = sweep;
        self
    }

    /// Sets the warmup mode.
    #[must_use]
    pub fn warmup(mut self, warmup: Warmup) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measured rounds per worker point.
    #[must_use]
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Bounds the admission queue (sheds with `WS108` beyond it).
    #[must_use]
    pub fn queue_limit(mut self, depth: usize) -> Self {
        self.queue_limit = Some(depth);
        self
    }

    /// Installs a seeded fault plan on the configured servers.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Adds a revocation-storm phase.
    #[must_use]
    pub fn revocation(mut self, storm: RevocationStorm) -> Self {
        self.revocation = Some(storm);
        self
    }

    /// Adds a UDDI churn phase.
    #[must_use]
    pub fn uddi(mut self, churn: UddiChurn) -> Self {
        self.uddi = Some(churn);
        self
    }

    /// Adds a mining pipeline phase.
    #[must_use]
    pub fn mining(mut self, spec: MiningSpec) -> Self {
        self.mining = Some(spec);
        self
    }

    /// Adds an adversarial channel phase.
    #[must_use]
    pub fn adversarial(mut self, spec: AdversarialSpec) -> Self {
        self.adversarial = Some(spec);
        self
    }

    /// Adds the analysis-gate probe phase (a WS014-conflicting policy
    /// mutation that the `Deny` gate must reject without publishing).
    #[must_use]
    pub fn gate_probe(mut self) -> Self {
        self.gate_probe = true;
        self
    }

    /// Declares an invariant the run must uphold.
    #[must_use]
    pub fn invariant(mut self, invariant: Invariant) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// The FNV-1a fingerprint of this scenario at a workspace revision,
    /// as a 16-hex-digit string.
    ///
    /// The hash covers the complete `Debug` rendering of the declared
    /// data (every field participates, including fault-plan rules and
    /// recipe structure) plus the revision — so editing *any* declared
    /// knob, or landing a new commit, changes the fingerprint and busts
    /// the cache, while re-running an unchanged suite hits it.
    #[must_use]
    pub fn fingerprint(&self, workspace_rev: &str) -> String {
        let mut hash = fnv1a(format!("{self:?}").as_bytes(), FNV1A_START);
        hash = fnv1a(workspace_rev.as_bytes(), hash);
        format!("{hash:016x}")
    }
}

/// The deterministic outcome of one scenario run: only counters and
/// digests derived from **serial** passes and seeded sub-pipelines — no
/// wall-clock, no thread-interleaving-dependent counts — so the same
/// `(scenario, seed)` pair yields a byte-identical value on every run
/// (the 100-seed determinism bar). Perf-side numbers live in
/// [`crate::runner::ScenarioPerf`], which is explicitly excluded from
/// this comparison.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Requests in the generated batch.
    pub requests: usize,
    /// Successful positions in the configured serial pass.
    pub ok: u64,
    /// Error positions in the configured serial pass.
    pub errors: u64,
    /// Per-code error counts from the configured serial pass, sorted by
    /// code.
    pub error_codes: Vec<(String, u64)>,
    /// FNV-1a digest over every serial outcome (view bytes and error
    /// codes, in request order), as hex.
    pub view_digest: String,
    /// Updates committed by the revocation storm (0 when undeclared).
    pub revocation_updates: u64,
    /// Post-storm serves that still exposed revoked content or answered
    /// from a stale cache entry.
    pub stale_after_revocation: u64,
    /// Tampered transits rejected by the channel MAC.
    pub tamper_rejected: u64,
    /// Replayed records rejected by the sequence check.
    pub replay_rejected: u64,
    /// Total adversarial attempts driven.
    pub adversarial_attempts: u64,
    /// Digest of the UDDI churn replay (empty when undeclared).
    pub uddi_digest: String,
    /// UDDI operations driven (0 when undeclared).
    pub uddi_ops: u64,
    /// Association rules mined (0 when undeclared).
    pub mining_rules: u64,
    /// Digest over the sorted mined rules (empty when undeclared).
    pub mining_digest: String,
    /// Gate-probe mutations attempted (0 when undeclared).
    pub gate_probes: u64,
    /// Gate-probe mutations rejected by the `Deny` gate with `WS109`.
    pub gate_rejections: u64,
    /// Invariant violations, sorted and deduplicated. Empty means the
    /// scenario passed.
    pub violations: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_declared_knob() {
        let base = Scenario::named("fp", 1);
        let rev = "rev-a";
        let fp = base.clone().fingerprint(rev);
        assert_eq!(fp, base.clone().fingerprint(rev), "fingerprint is stable");
        assert_ne!(fp, base.clone().requests(512).fingerprint(rev));
        assert_ne!(fp, base.clone().gate_probe().fingerprint(rev));
        assert_ne!(
            fp,
            base.clone()
                .faults(FaultPlan::seeded(1).rule(
                    FaultRule::new(FaultKind::CacheEvict)
                        .on(FaultSchedule::Random { permille: 10 })
                ))
                .fingerprint(rev)
        );
        assert_ne!(fp, base.fingerprint("rev-b"), "revision participates");
    }
}
