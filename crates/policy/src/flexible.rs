//! Flexible security policy: tunable enforcement level.
//!
//! §5 of the paper: "we cannot also make the system inefficient if we must
//! guarantee one hundred percent security at all times. What is needed is a
//! flexible security policy. During some situations we may need one hundred
//! percent security while during some other situations say thirty percent
//! security (whatever that means) may be sufficient."
//!
//! This module gives "thirty percent security" a concrete, measurable
//! meaning: an enforcement level `L ∈ [0, 100]` deterministically selects
//! `L%` of requests for full policy evaluation; the rest are admitted with a
//! cheap cached/skipped check. The selection is a hash of the request, so it
//! is stable (the same request is always treated the same way — no lottery
//! retries) and unpredictable without the instance salt. Experiment E11
//! measures the throughput/exposure trade-off this buys.

use std::fmt;
use websec_crypto::sha256::Sha256;

/// Error returned by [`FlexibleEnforcer::try_set_level`] when the
/// requested enforcement level is not a percentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLevel(
    /// The rejected level.
    pub u8,
);

impl fmt::Display for InvalidLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "enforcement level {} is not a percentage (expected 0..=100)",
            self.0
        )
    }
}

impl std::error::Error for InvalidLevel {}

/// Deterministic partial-enforcement gate.
#[derive(Debug, Clone)]
pub struct FlexibleEnforcer {
    /// Percentage of requests that get full enforcement (0–100).
    level: u8,
    salt: [u8; 32],
    enforced: u64,
    admitted_unchecked: u64,
}

/// What the gate decided for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOutcome {
    /// Run the full policy evaluation.
    Enforce,
    /// Admit without full evaluation (the measured "exposure").
    AdmitUnchecked,
}

impl FlexibleEnforcer {
    /// Creates a gate at `level`% enforcement with an instance salt.
    ///
    /// # Panics
    /// Panics if `level > 100`.
    #[must_use]
    pub fn new(level: u8, salt: [u8; 32]) -> Self {
        assert!(level <= 100, "enforcement level is a percentage");
        FlexibleEnforcer {
            level,
            salt,
            enforced: 0,
            admitted_unchecked: 0,
        }
    }

    /// Current enforcement level.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Changes the enforcement level at runtime (the paper's "during some
    /// situations" switch). Rejects levels above 100 without touching the
    /// current level — enforcement knobs are often driven by operator
    /// input, where a typo must not take the gate down.
    ///
    /// # Errors
    /// [`InvalidLevel`] when `level > 100`.
    pub fn try_set_level(&mut self, level: u8) -> Result<(), InvalidLevel> {
        if level > 100 {
            return Err(InvalidLevel(level));
        }
        self.level = level;
        Ok(())
    }

    /// Gates a request identified by `request_key` (e.g. subject ‖ object ‖
    /// privilege bytes).
    pub fn gate(&mut self, request_key: &[u8]) -> GateOutcome {
        let outcome = self.decide(request_key);
        match outcome {
            GateOutcome::Enforce => self.enforced += 1,
            GateOutcome::AdmitUnchecked => self.admitted_unchecked += 1,
        }
        outcome
    }

    /// Pure decision without statistics.
    #[must_use]
    pub fn decide(&self, request_key: &[u8]) -> GateOutcome {
        if self.level == 100 {
            return GateOutcome::Enforce;
        }
        if self.level == 0 {
            return GateOutcome::AdmitUnchecked;
        }
        let mut h = Sha256::new();
        h.update(&self.salt);
        h.update(request_key);
        let d = h.finalize();
        let bucket = u16::from_le_bytes([d[0], d[1]]) % 100;
        if (bucket as u8) < self.level {
            GateOutcome::Enforce
        } else {
            GateOutcome::AdmitUnchecked
        }
    }

    /// `(enforced, admitted_unchecked)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.enforced, self.admitted_unchecked)
    }

    /// Fraction of gated requests admitted without checking — the residual
    /// exposure reported by experiment E11.
    #[must_use]
    pub fn exposure(&self) -> f64 {
        let total = self.enforced + self.admitted_unchecked;
        if total == 0 {
            0.0
        } else {
            self.admitted_unchecked as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("req-{i}").into_bytes()).collect()
    }

    #[test]
    fn full_enforcement() {
        let mut g = FlexibleEnforcer::new(100, [0u8; 32]);
        for k in keys(100) {
            assert_eq!(g.gate(&k), GateOutcome::Enforce);
        }
        assert_eq!(g.stats(), (100, 0));
        assert_eq!(g.exposure(), 0.0);
    }

    #[test]
    fn zero_enforcement() {
        let mut g = FlexibleEnforcer::new(0, [0u8; 32]);
        for k in keys(50) {
            assert_eq!(g.gate(&k), GateOutcome::AdmitUnchecked);
        }
        assert_eq!(g.exposure(), 1.0);
    }

    #[test]
    fn partial_enforcement_near_level() {
        let mut g = FlexibleEnforcer::new(30, [7u8; 32]);
        for k in keys(10_000) {
            g.gate(&k);
        }
        let (enforced, _) = g.stats();
        let rate = enforced as f64 / 10_000.0;
        assert!((rate - 0.30).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn deterministic_per_request() {
        let g = FlexibleEnforcer::new(50, [1u8; 32]);
        for k in keys(100) {
            assert_eq!(g.decide(&k), g.decide(&k));
        }
    }

    #[test]
    fn different_salts_differ() {
        let a = FlexibleEnforcer::new(50, [1u8; 32]);
        let b = FlexibleEnforcer::new(50, [2u8; 32]);
        let diverges = keys(100).iter().any(|k| a.decide(k) != b.decide(k));
        assert!(diverges);
    }

    #[test]
    fn level_change_at_runtime() {
        let mut g = FlexibleEnforcer::new(0, [0u8; 32]);
        assert_eq!(g.decide(b"x"), GateOutcome::AdmitUnchecked);
        g.try_set_level(100).unwrap();
        assert_eq!(g.decide(b"x"), GateOutcome::Enforce);
        assert_eq!(g.level(), 100);
    }

    #[test]
    fn try_set_level_rejects_without_changing_state() {
        let mut g = FlexibleEnforcer::new(30, [0u8; 32]);
        assert_eq!(g.try_set_level(101), Err(InvalidLevel(101)));
        assert_eq!(g.level(), 30, "rejected update must not change the level");
        assert_eq!(
            InvalidLevel(101).to_string(),
            "enforcement level 101 is not a percentage (expected 0..=100)"
        );
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn rejects_bad_level() {
        let _ = FlexibleEnforcer::new(101, [0u8; 32]);
    }
}
