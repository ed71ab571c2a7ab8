//! The declared scenario suites.
//!
//! Every scenario here is **data** — the acceptance list (baseline
//! serving, no-dup worst case, ~10% faulted, revocation storm,
//! adversarial replay/tamper) plus UDDI churn and a mining pipeline —
//! built from the same corpus/recipe vocabulary tests use. `check.sh`
//! runs [`smoke`]; sizes are bounded so the suite finishes in CI time
//! while still sweeping more than one worker width.

use crate::corpus::HospitalSpec;
use crate::recipe::{Pick, Recipe};
use crate::scenario::{
    AdversarialSpec, Invariant, MiningSpec, RevocationStorm, Scenario, UddiChurn, Warmup,
};
use websec_core::prelude::*;

/// Seed of the smoke suite's chaos plan (replayable; the same value the
/// serving bench's faulted section historically used).
pub const SMOKE_FAULT_SEED: u64 = 0xC0FFEE;

/// The ~10% three-layer fault plan the faulted scenarios run under:
/// dropped channel records, evicted cache entries, slow evaluations.
#[must_use]
pub fn smoke_fault_plan() -> FaultPlan {
    FaultPlan::seeded(SMOKE_FAULT_SEED)
        .rule(FaultRule::new(FaultKind::ChannelDrop).on(FaultSchedule::Random { permille: 40 }))
        .rule(FaultRule::new(FaultKind::CacheEvict).on(FaultSchedule::Random { permille: 40 }))
        .rule(
            FaultRule::new(FaultKind::SlowEval { ticks: 1 })
                .on(FaultSchedule::Random { permille: 20 }),
        )
}

/// The CI smoke suite: eight scenarios covering the acceptance list.
#[must_use]
pub fn smoke() -> Vec<Scenario> {
    vec![
        // The serving bench's mixed workload: heavy-tailed repeats, all
        // three outcome classes, warm caches.
        Scenario::named("baseline_serving", 0x5EED_0001)
            .corpus(HospitalSpec::bench())
            .traffic(Recipe::mixed_hospital())
            .requests(1024)
            .workers(vec![1, 4])
            .warmup(Warmup::Warm)
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // Every request a unique subject: nothing coalesces, no cache
        // level answers twice — pure scheduler + evaluation scaling.
        Scenario::named("nodup_worstcase", 0x5EED_0002)
            .corpus(HospitalSpec::bench())
            .traffic(Recipe::nodup_worstcase())
            .requests(512)
            .workers(vec![1, 4])
            .warmup(Warmup::Cold)
            .rounds(2)
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // The chaos contract under the seeded ~10% plan: every faulted
        // position is byte-identical to the fault-free oracle or a
        // stable WS1xx error.
        Scenario::named("faulted_10pct", 0x5EED_0003)
            .corpus(HospitalSpec::bench())
            .traffic(Recipe::mixed_hospital())
            .requests(1024)
            .workers(vec![4])
            .warmup(Warmup::Warm)
            .faults(smoke_fault_plan())
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // Committed revocations must invalidate every view: the storm
        // denies previously-granted subjects and the first serve past
        // each revocation must recompute, without stale bytes.
        Scenario::named("revocation_storm", 0x5EED_0004)
            .corpus(HospitalSpec::small())
            .traffic(Recipe::PatientRead {
                subject: Pick::Modulo,
                patient: Pick::Modulo,
            })
            .requests(256)
            .workers(vec![2])
            .revocation(RevocationStorm {
                updates: 12,
                subjects: 4,
            })
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::NoStaleAfterRevocation),
        // Channel-layer adversary: tampered records must be rejected by
        // the MAC (session stays usable), replayed records by the
        // sequence check, and every workload error stays WS1xx.
        Scenario::named("adversarial_replay_tamper", 0x5EED_0005)
            .corpus(HospitalSpec::small())
            .traffic(Recipe::Mix(vec![
                (2, Recipe::PatientRead {
                    subject: Pick::Modulo,
                    patient: Pick::Uniform,
                }),
                (1, Recipe::SecretProbe { subject: Pick::Uniform }),
                (1, Recipe::MissingDoc { subject: Pick::Uniform }),
            ]))
            .requests(256)
            .workers(vec![2])
            .adversarial(AdversarialSpec {
                tampers: 32,
                replays: 32,
            })
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // Registry churn: a seeded save/delete/inquire stream replayed
        // twice must produce a byte-identical operation digest.
        Scenario::named("uddi_churn", 0x5EED_0006)
            .corpus(HospitalSpec::small())
            .requests(64)
            .workers(vec![2])
            .uddi(UddiChurn {
                businesses: 48,
                ops: 96,
            })
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // Association-rule mining over a seeded Zipfian dataset; the
        // pipeline replay must reproduce the same rule set bit-for-bit.
        Scenario::named("mining_pipeline", 0x5EED_0007)
            .corpus(HospitalSpec::small())
            .requests(64)
            .workers(vec![2])
            .mining(MiningSpec {
                baskets: 400,
                items: 40,
                avg_len: 6,
                s_hundredths: 110,
                min_support_ppm: 20_000,
                min_confidence_ppm: 600_000,
            })
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
        // The policy-verifier gate: a seeded mutation that introduces a
        // WS014 grant/deny conflict must be rejected by the Deny gate
        // with WS109, naming WS014, without publishing a snapshot.
        Scenario::named("policy_gate_rejection", 0x5EED_0008)
            .corpus(HospitalSpec::small())
            .traffic(Recipe::PatientRead {
                subject: Pick::Modulo,
                patient: Pick::Modulo,
            })
            .requests(64)
            .workers(vec![2])
            .gate_probe()
            .invariant(Invariant::SerialEquivalence)
            .invariant(Invariant::ErrorsAreWs1xx),
    ]
}

/// Resolves a suite by name (`smoke` is the only suite today; `full` is
/// an alias until a larger suite earns its keep).
#[must_use]
pub fn by_name(name: &str) -> Option<Vec<Scenario>> {
    match name {
        "smoke" | "full" => Some(smoke()),
        _ => None,
    }
}

/// A minimal fast scenario for harness tests: tiny corpus, tiny batch,
/// both core invariants.
#[must_use]
pub fn tiny(seed: u64) -> Scenario {
    Scenario::named("tiny", seed)
        .corpus(HospitalSpec::small())
        .traffic(Recipe::mixed_hospital())
        .requests(48)
        .workers(vec![2])
        .invariant(Invariant::SerialEquivalence)
        .invariant(Invariant::ErrorsAreWs1xx)
}

/// A deliberately-broken scenario: it declares [`Invariant::ErrorFree`]
/// over traffic that contains unknown-document requests, so a correct
/// harness MUST report violations. Used to prove invariant failures
/// propagate.
#[must_use]
pub fn broken(seed: u64) -> Scenario {
    Scenario::named("broken", seed)
        .corpus(HospitalSpec::small())
        .traffic(Recipe::Cycle(vec![
            Recipe::PatientRead {
                subject: Pick::Modulo,
                patient: Pick::Modulo,
            },
            Recipe::MissingDoc { subject: Pick::Modulo },
        ]))
        .requests(32)
        .workers(vec![2])
        .invariant(Invariant::ErrorFree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_the_acceptance_list() {
        let suite = smoke();
        assert!(suite.len() >= 5, "at least five declared scenarios");
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        for required in [
            "baseline_serving",
            "nodup_worstcase",
            "faulted_10pct",
            "revocation_storm",
            "adversarial_replay_tamper",
            "policy_gate_rejection",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "scenario names must be unique");
        for scenario in &suite {
            assert!(!scenario.invariants.is_empty(), "{}: no invariants", scenario.name);
            assert!(!scenario.workers.is_empty(), "{}: no worker sweep", scenario.name);
        }
    }

    #[test]
    fn suites_resolve_by_name() {
        assert!(by_name("smoke").is_some());
        assert!(by_name("full").is_some());
        assert!(by_name("nope").is_none());
    }
}
