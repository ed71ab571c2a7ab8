//! Consolidated server construction: the [`ServerConfig`] builder.
//!
//! The server's construction knobs — `with_shards`,
//! [`StackServer::set_queue_limit`], [`StackServer::set_analysis_gate`] —
//! work for tweaking a live server but make constructing a fully
//! configured one noisy. [`ServerConfig`] gathers those three into one
//! fluent value consumed by [`StackServer::with_config`]; every individual
//! setter remains, so existing callers compile unchanged. Fault plans
//! ([`StackServer::install_faults`], which returns the live injector) and
//! the process-global lock-order detector
//! ([`crate::sync::set_lockdep_enabled`]) are not per-server settings and
//! keep their own calls. How a cache miss is decided is not a knob: it is
//! always answered from the published snapshot's compiled decision
//! tables.

use super::{AnalysisGate, StackServer, DEFAULT_SHARDS};
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
}

impl ServerConfig {
    /// An empty configuration: every unset knob keeps the server default
    /// (16 shards, unlimited queue, [`AnalysisGate::Off`]).
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
}

impl StackServer {
    /// Builds a server from a declarative [`ServerConfig`] — the one-stop
    /// replacement for chaining the individual setters after
    /// [`StackServer::new`]. Unset knobs keep their defaults.
    #[must_use]
    pub fn with_config(stack: SecureWebStack, config: ServerConfig) -> Self {
        let server = Self::with_shards(stack, config.shards.unwrap_or(DEFAULT_SHARDS));
        if let Some(depth) = config.queue_limit {
            server.set_queue_limit(depth);
        }
        if let Some(gate) = config.analysis_gate {
            server.set_analysis_gate(gate);
        }
        server
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_config_applies_every_knob() {
        let config = ServerConfig::new()
            .shards(5)
            .queue_limit(3)
            .analysis_gate(AnalysisGate::Deny);
        let server = StackServer::with_config(SecureWebStack::new([1u8; 32]), config);
        assert_eq!(server.shard_count(), 8, "5 rounds up to a power of two");
        assert_eq!(server.queue_limit(), 3);
        assert_eq!(server.analysis_gate(), AnalysisGate::Deny);
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
