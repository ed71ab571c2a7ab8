//! Subject-identity sharding for the session table.
//!
//! Per-subject state — the established [`ChannelSession`] and the cached
//! policy views — partitions naturally by the authenticated identity (the
//! same observation behind Bertino–Ferrari selective dissemination: state
//! is per-subject, so subjects hash to independent slots). The table is
//! split into a power-of-two number of shards, each behind its own mutex:
//! two requests contend only when their identities hash to the same shard.
//!
//! Every lock acquisition goes through [`lock_counting`], which records a
//! contention event when the lock was already held. A poisoned shard (a
//! worker panicked while holding it) degrades to a `WS106` error for
//! requests routed to that shard instead of propagating the panic.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, TryLockError};

use super::metrics::{Counter, LocalMetrics, ShardStats};
use crate::error::Error;
use crate::faults::{FaultContext, FaultKind, FaultLayer};
use crate::hash::{fnv1a, FNV1A_START};
use crate::sync::{TrackedAtomicU64, TrackedMutex, TrackedMutexGuard};
use websec_services::ChannelSession;

/// Acquires `mutex`, counting a contention event into `waits` when the
/// uncontended `try_lock` fast path fails. Returns `None` when the lock is
/// poisoned (the holder panicked), which callers surface as `WS106`.
pub(crate) fn lock_counting<'a, T>(
    mutex: &'a TrackedMutex<T>,
    waits: &TrackedAtomicU64,
) -> Option<TrackedMutexGuard<'a, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::WouldBlock) => {
            waits.fetch_add(1, Ordering::Relaxed);
            mutex.lock().ok()
        }
        Err(TryLockError::Poisoned(_)) => None,
    }
}

/// One shard of the session table.
struct SessionShard {
    map: TrackedMutex<HashMap<String, Arc<TrackedMutex<ChannelSession>>>>,
    lock_waits: TrackedAtomicU64,
}

/// The session table, sharded by identity hash. Shard count is a power of
/// two fixed at construction, so routing is a hash plus a mask.
pub(crate) struct SessionShards {
    shards: Vec<SessionShard>,
    mask: u64,
}

impl SessionShards {
    /// `shards` must be a power of two (the server constructor rounds up).
    pub fn new(shards: usize) -> Self {
        debug_assert!(shards.is_power_of_two());
        SessionShards {
            shards: (0..shards)
                .map(|_| SessionShard {
                    map: TrackedMutex::new("server.shard_map", HashMap::new()),
                    lock_waits: TrackedAtomicU64::counter("server.shard_lock_waits", 0),
                })
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    /// Shard index for an identity: FNV-1a spreads identities evenly
    /// enough across a power-of-two shard count.
    pub fn shard_index(&self, identity: &str) -> usize {
        (fnv1a(identity.as_bytes(), FNV1A_START) & self.mask) as usize
    }

    /// The session for `identity`, establishing it (one handshake) on first
    /// contact. Only the identity's shard is locked; a poisoned shard
    /// yields `WS106` for identities routed to it while every other shard
    /// keeps serving.
    ///
    /// `faults` is the shard-layer injection hook: a firing `LockPoison`
    /// rule makes this acquisition behave exactly as a genuinely poisoned
    /// shard (`WS106` + the identity's session evicted so the next request
    /// re-establishes cleanly). `None` — the default on every non-chaos
    /// path — is a no-op.
    pub fn get_or_establish(
        &self,
        identity: &str,
        master_key: &[u8; 32],
        protected: bool,
        local: &mut LocalMetrics,
        faults: Option<&FaultContext<'_>>,
    ) -> Result<Arc<TrackedMutex<ChannelSession>>, Error> {
        let shard = &self.shards[self.shard_index(identity)];
        if let Some(ctx) = faults {
            for kind in ctx.check(FaultLayer::Shard) {
                if kind == FaultKind::LockPoison {
                    local.bump(Counter::FaultsInjected);
                    if let Some(mut map) = lock_counting(&shard.map, &shard.lock_waits) {
                        map.remove(identity);
                    }
                    return Err(Error::ShardPoisoned(format!(
                        "injected fault: session shard lock for identity '{identity}' poisoned"
                    )));
                }
            }
        }
        let mut map = lock_counting(&shard.map, &shard.lock_waits).ok_or_else(|| {
            Error::ShardPoisoned(format!(
                "session shard for identity '{identity}' poisoned by a panicked worker"
            ))
        })?;
        if let Some(session) = map.get(identity) {
            local.bump(Counter::SessionReuses);
            return Ok(Arc::clone(session));
        }
        let session = Arc::new(TrackedMutex::new(
            "server.session",
            ChannelSession::establish(master_key, identity, protected),
        ));
        local.bump(Counter::SessionsEstablished);
        map.insert(identity.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Locks one session entry, counting contention into the identity's
    /// shard. `None` when the session mutex is poisoned (its holder
    /// panicked mid-transit), which callers surface as `WS106` and evict.
    pub fn lock_session<'a>(
        &self,
        identity: &str,
        session: &'a TrackedMutex<ChannelSession>,
    ) -> Option<TrackedMutexGuard<'a, ChannelSession>> {
        let shard = &self.shards[self.shard_index(identity)];
        lock_counting(session, &shard.lock_waits)
    }

    /// Drops the session for `identity` (used after its per-session lock is
    /// found poisoned, so the next request re-establishes a clean session).
    pub fn evict(&self, identity: &str) {
        let shard = &self.shards[self.shard_index(identity)];
        if let Some(mut map) = lock_counting(&shard.map, &shard.lock_waits) {
            map.remove(identity);
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Sessions resident across all shards.
    #[cfg(test)]
    pub fn total_sessions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.map.lock().map_or(0, |m| m.len() as u64))
            .sum()
    }

    /// Folds this table's per-shard counters into `stats` (index-aligned;
    /// the cache layer fills in its own fields).
    pub fn fill_stats(&self, stats: &mut [ShardStats]) {
        for (i, shard) in self.shards.iter().enumerate() {
            stats[i].shard = i;
            stats[i].sessions_open = shard.map.lock().map_or(0, |m| m.len() as u64);
            stats[i].session_lock_waits = shard.lock_waits.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_spread_across_shards() {
        let shards = SessionShards::new(16);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(shards.shard_index(&format!("subject-{i}")));
        }
        assert!(seen.len() > 8, "only {} shards used", seen.len());
    }

    #[test]
    fn establish_then_reuse() {
        let shards = SessionShards::new(4);
        let mut local = LocalMetrics::default();
        let key = [7u8; 32];
        let first = shards
            .get_or_establish("alice", &key, true, &mut local, None)
            .unwrap();
        let again = shards
            .get_or_establish("alice", &key, true, &mut local, None)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(local.get(Counter::SessionsEstablished), 1);
        assert_eq!(local.get(Counter::SessionReuses), 1);
        assert_eq!(shards.total_sessions(), 1);
    }

    #[test]
    fn evict_forces_reestablish() {
        let shards = SessionShards::new(4);
        let mut local = LocalMetrics::default();
        let key = [7u8; 32];
        let first = shards
            .get_or_establish("bob", &key, true, &mut local, None)
            .unwrap();
        shards.evict("bob");
        let second = shards
            .get_or_establish("bob", &key, true, &mut local, None)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(local.get(Counter::SessionsEstablished), 2);
    }

    #[test]
    fn poisoned_shard_reports_ws106() {
        let shards = SessionShards::new(1); // everything routes to shard 0
        let mut local = LocalMetrics::default();
        let key = [7u8; 32];
        shards
            .get_or_establish("alice", &key, true, &mut local, None)
            .unwrap();
        // Poison the shard map mutex by panicking while holding it.
        let shard_map = &shards.shards[0].map;
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = shard_map.lock().unwrap();
                    panic!("poison the shard");
                })
                .join()
        });
        let err = match shards.get_or_establish("carol", &key, true, &mut local, None) {
            Err(e) => e,
            Ok(_) => panic!("poisoned shard served a session"),
        };
        assert_eq!(err.code(), "WS106");
    }

    #[test]
    fn lock_counting_fast_path_records_no_wait() {
        let mutex = TrackedMutex::new("test.shard_fastpath", 0u32);
        let waits = TrackedAtomicU64::counter("test.shard_fastpath_waits", 0);
        let g = lock_counting(&mutex, &waits).unwrap();
        drop(g);
        assert_eq!(waits.load(Ordering::Relaxed), 0);
    }
}
