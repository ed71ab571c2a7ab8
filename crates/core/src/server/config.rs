//! Consolidated server construction: the [`ServerConfig`] builder.
//!
//! The server's knobs accreted one setter at a time — `with_shards`,
//! [`StackServer::set_queue_limit`], [`StackServer::install_faults`],
//! [`StackServer::set_analysis_gate`], the global lockdep toggle — which
//! works for tweaking a live server but makes constructing a fully
//! configured one noisy. [`ServerConfig`] gathers those five into one
//! fluent value consumed by [`StackServer::with_config`]; every individual
//! setter remains as a thin delegate, so existing callers compile
//! unchanged. How a cache miss is decided is not a knob: it is always
//! answered from the published snapshot's compiled decision tables.

use super::{AnalysisGate, StackServer, DEFAULT_SHARDS};
use crate::faults::FaultPlan;
use crate::stack::SecureWebStack;

/// Declarative construction-time configuration for a [`StackServer`],
/// consumed by [`StackServer::with_config`]:
///
/// ```
/// use websec_core::prelude::*;
///
/// let stack = SecureWebStack::new([7u8; 32]);
/// let server = StackServer::with_config(
///     stack,
///     ServerConfig::new()
///         .shards(8)
///         .queue_limit(64)
///         .analysis_gate(AnalysisGate::Warn),
/// );
/// assert_eq!(server.shard_count(), 8);
/// assert_eq!(server.queue_limit(), 64);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    shards: Option<usize>,
    queue_limit: Option<usize>,
    analysis_gate: Option<AnalysisGate>,
    fault_plan: Option<FaultPlan>,
    lockdep: Option<bool>,
}

impl ServerConfig {
    /// An empty configuration: every unset knob keeps the server default
    /// (16 shards, unlimited queue, [`AnalysisGate::Off`], no fault plan,
    /// lockdep untouched).
    #[must_use]
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Shard count for the session table and L2 view cache (rounded up to
    /// a power of two, clamped to `1..=4096` — same rules as
    /// [`StackServer::with_shards`]).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Per-worker admission depth for batch load shedding (0 = unlimited;
    /// see [`StackServer::set_queue_limit`]).
    #[must_use]
    pub fn queue_limit(mut self, per_worker_depth: usize) -> Self {
        self.queue_limit = Some(per_worker_depth);
        self
    }

    /// The [`AnalysisGate`] governing [`StackServer::try_update`].
    #[must_use]
    pub fn analysis_gate(mut self, gate: AnalysisGate) -> Self {
        self.analysis_gate = Some(gate);
        self
    }

    /// Arms a deterministic [`FaultPlan`] at construction (equivalent to
    /// calling [`StackServer::install_faults`] immediately after `new`;
    /// retrieve the live injector via a later `install_faults` call if the
    /// test needs to assert fired counts).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Forces the lock-order/race detector on or off for the process
    /// (equivalent to [`crate::sync::set_lockdep_enabled`]; unset leaves
    /// the `WEBSEC_LOCKDEP` environment default in place). Process-global,
    /// like the detector itself.
    #[must_use]
    pub fn lockdep(mut self, enabled: bool) -> Self {
        self.lockdep = Some(enabled);
        self
    }
}

impl StackServer {
    /// Builds a server from a declarative [`ServerConfig`] — the one-stop
    /// replacement for chaining the individual setters after
    /// [`StackServer::new`]. Unset knobs keep their defaults.
    #[must_use]
    pub fn with_config(stack: SecureWebStack, config: ServerConfig) -> Self {
        if let Some(enabled) = config.lockdep {
            crate::sync::set_lockdep_enabled(enabled);
        }
        let server = Self::with_shards(stack, config.shards.unwrap_or(DEFAULT_SHARDS));
        if let Some(depth) = config.queue_limit {
            server.set_queue_limit(depth);
        }
        if let Some(gate) = config.analysis_gate {
            server.set_analysis_gate(gate);
        }
        if let Some(plan) = config.fault_plan {
            let _ = server.install_faults(plan);
        }
        server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultRule};

    #[test]
    fn with_config_applies_every_knob() {
        let config = ServerConfig::new()
            .shards(5)
            .queue_limit(3)
            .analysis_gate(AnalysisGate::Deny)
            .fault_plan(FaultPlan::seeded(9).rule(FaultRule::new(FaultKind::CacheEvict)));
        let server = StackServer::with_config(SecureWebStack::new([1u8; 32]), config);
        assert_eq!(server.shard_count(), 8, "5 rounds up to a power of two");
        assert_eq!(server.queue_limit(), 3);
        assert_eq!(server.analysis_gate(), AnalysisGate::Deny);
        assert!(server.injector().is_some(), "fault plan armed");
    }

    #[test]
    fn defaults_match_plain_new() {
        let server =
            StackServer::with_config(SecureWebStack::new([1u8; 32]), ServerConfig::new());
        let plain = StackServer::new(SecureWebStack::new([1u8; 32]));
        assert_eq!(server.shard_count(), plain.shard_count());
        assert_eq!(server.queue_limit(), plain.queue_limit());
        assert_eq!(server.analysis_gate(), plain.analysis_gate());
        assert!(server.injector().is_none());
    }
}
