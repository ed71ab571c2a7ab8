//! The policy-view cache (L2) of one published snapshot, sharded by
//! subject-identity hash (same shard count and hash as the session table).
//! Each shard is a map behind its own `RwLock`; two requests contend only
//! when their identities collide on a shard. It is the only view cache:
//! every request, single or batched, reads and fills the cache of the
//! snapshot it runs against, so a view computed by one worker is a hit for
//! every other.
//!
//! A view is a pure function of the snapshot's policy base, subject and
//! document, so a cached view is valid exactly as long as its snapshot:
//! each publication builds an empty cache, and the views of a replaced
//! snapshot are unreachable from the current one and freed with it. The
//! per-shard lock-wait counters are the server's, shared by every
//! snapshot's cache, so they count cumulatively across publications.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use super::metrics::ShardStats;
use crate::hash::{fnv1a, FNV1A_START};
use crate::sync::{TrackedAtomicU64, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard};
use websec_xml::Document;

/// Cache key: the subject *identity* and document name (the server maps
/// each authenticated identity to one profile; see the module docs of
/// [`crate::server`]).
pub(crate) type ViewKey = (String, String);

type Views = HashMap<ViewKey, Arc<Document>>;

/// Per-shard lock-wait counters, one per shard, kept by the server for
/// the caches of all its snapshots.
pub(crate) type LockWaits = Arc<[TrackedAtomicU64]>;

/// Fresh lock-wait counters for `shards` shards.
pub(crate) fn lock_waits(shards: usize) -> LockWaits {
    (0..shards)
        .map(|_| TrackedAtomicU64::counter("server.cache_lock_waits", 0))
        .collect()
}

/// One snapshot's L2 view cache, sharded by identity hash.
pub(crate) struct L2ViewCache {
    shards: Vec<TrackedRwLock<Views>>,
    lock_waits: LockWaits,
    mask: u64,
}

impl L2ViewCache {
    /// An empty cache with one shard per counter of `lock_waits` (a power
    /// of two), counting contention into them.
    pub fn new(lock_waits: LockWaits) -> Self {
        debug_assert!(lock_waits.len().is_power_of_two());
        L2ViewCache {
            shards: (0..lock_waits.len())
                .map(|_| TrackedRwLock::new("server.cache_shard", HashMap::new()))
                .collect(),
            mask: lock_waits.len() as u64 - 1,
            lock_waits,
        }
    }

    fn shard_for(&self, identity: &str) -> usize {
        (fnv1a(identity.as_bytes(), FNV1A_START) & self.mask) as usize
    }

    /// Read-locks shard `i`, counting contention; a poisoned shard heals
    /// itself (cached views are disposable, so recovering the guard is
    /// safe — at worst a view is recomputed).
    fn read(&self, i: usize) -> TrackedReadGuard<'_, Views> {
        match self.shards[i].try_read() {
            Ok(guard) => guard,
            Err(_) => {
                self.lock_waits[i].fetch_add(1, Ordering::Relaxed);
                self.shards[i]
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    fn write(&self, i: usize) -> TrackedWriteGuard<'_, Views> {
        match self.shards[i].try_write() {
            Ok(guard) => guard,
            Err(_) => {
                self.lock_waits[i].fetch_add(1, Ordering::Relaxed);
                self.shards[i]
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// The cached view for `key`, or `None`. Counts nothing: the hit or
    /// miss is counted once, from the request's `CacheStatus`, in the
    /// caller's [`super::metrics::LocalMetrics`], so the lookup path
    /// performs no shared-counter write.
    pub fn lookup(&self, key: &ViewKey) -> Option<Arc<Document>> {
        self.read(self.shard_for(&key.0)).get(key).map(Arc::clone)
    }

    /// Inserts a computed view.
    pub fn insert(&self, key: ViewKey, view: Arc<Document>) {
        self.write(self.shard_for(&key.0)).insert(key, view);
    }

    /// Drops one cached view (fault-injection `CacheEvict` hook: forces
    /// the next lookup for `key` to recompute). A no-op when the entry is
    /// absent.
    pub fn remove(&self, key: &ViewKey) {
        self.write(self.shard_for(&key.0)).remove(key);
    }

    /// Views currently resident across all shards.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// Folds this cache's per-shard counters into `stats` (index-aligned
    /// with the session table's shards).
    pub fn fill_stats(&self, stats: &mut [ShardStats]) {
        for (i, stat) in stats.iter_mut().enumerate() {
            stat.cache_lock_waits = self.lock_waits[i].load(Ordering::Relaxed);
            stat.cached_views = self.read(i).len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Arc<Document> {
        Arc::new(Document::parse("<x/>").unwrap())
    }

    #[test]
    fn remove_evicts_one_entry() {
        let l2 = L2ViewCache::new(lock_waits(4));
        let key = ("alice".to_string(), "d.xml".to_string());
        let other = ("alice".to_string(), "e.xml".to_string());
        l2.insert(key.clone(), doc());
        l2.insert(other.clone(), doc());
        l2.remove(&key);
        assert!(l2.lookup(&key).is_none(), "removed L2 entry served");
        assert!(l2.lookup(&other).is_some(), "remove() evicted a neighbor");
    }
}
