//! The shared policy-view cache (L2), sharded by subject-identity hash
//! (same shard count and hash as the session table). Each shard is an
//! epoch-keyed map behind its own `RwLock`; two requests contend only when
//! their identities collide on a shard. It is the only view cache: every
//! request, single or batched, reads and fills it, so a view computed by
//! one worker is a hit for every other.
//!
//! Every entry is valid only under the [`Token`] its shard was filled at,
//! so a [`websec_policy::PolicyStore`] mutation (epoch bump) or a snapshot
//! swap (generation bump) invalidates views without any cross-thread
//! signalling: stale entries are simply unreachable (token mismatch) and
//! evicted wholesale on the next write to their shard.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use super::metrics::ShardStats;
use crate::sync::{TrackedAtomicU64, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard};
use crate::hash::{fnv1a, FNV1A_START};
use websec_xml::Document;

/// Validity token for cached views: the server's snapshot generation
/// (bumped by every [`crate::server::StackServer::update`] /
/// `invalidate_views`) paired with the policy-store epoch (bumped by every
/// policy mutation). An entry is valid only under the exact token it was
/// computed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Token {
    /// Snapshot generation (covers document/label/context/gate mutations).
    pub generation: u64,
    /// Policy epoch (covers policy-base mutations, including any performed
    /// out of band via [`websec_policy::PolicyStore::bump_epoch`]).
    pub epoch: u64,
}

/// Cache key: the subject *identity* and document name (the server maps
/// each authenticated identity to one profile; see the module docs of
/// [`crate::server`]).
pub(crate) type ViewKey = (String, String);

struct CacheShardInner {
    token: Token,
    views: HashMap<ViewKey, Arc<Document>>,
}

struct CacheShard {
    inner: TrackedRwLock<CacheShardInner>,
    lock_waits: TrackedAtomicU64,
}

impl CacheShard {
    /// Read-locks the shard, counting contention; a poisoned shard heals
    /// itself (cached views are disposable, so recovering the guard is
    /// safe — at worst a view is recomputed).
    fn read(&self) -> TrackedReadGuard<'_, CacheShardInner> {
        match self.inner.try_read() {
            Ok(guard) => guard,
            Err(_) => {
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                self.inner.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    fn write(&self) -> TrackedWriteGuard<'_, CacheShardInner> {
        match self.inner.try_write() {
            Ok(guard) => guard,
            Err(_) => {
                self.lock_waits.fetch_add(1, Ordering::Relaxed);
                self.inner.write().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// The shared L2 view cache, sharded by identity hash.
pub(crate) struct L2ViewCache {
    shards: Vec<CacheShard>,
    mask: u64,
}

impl L2ViewCache {
    pub fn new(shards: usize) -> Self {
        debug_assert!(shards.is_power_of_two());
        L2ViewCache {
            shards: (0..shards)
                .map(|_| CacheShard {
                    inner: TrackedRwLock::new(
                        "server.cache_shard",
                        CacheShardInner {
                            token: Token {
                                generation: 0,
                                epoch: 0,
                            },
                            views: HashMap::new(),
                        },
                    ),
                    lock_waits: TrackedAtomicU64::counter("server.cache_lock_waits", 0),
                })
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    fn shard_for(&self, identity: &str) -> &CacheShard {
        &self.shards[(fnv1a(identity.as_bytes(), FNV1A_START) & self.mask) as usize]
    }

    /// A valid cached view, or `None`. Counts nothing: the hit or miss is
    /// counted once, from the request's `CacheStatus`, in the caller's
    /// [`super::metrics::LocalMetrics`], so the lookup path performs no
    /// shared-counter write.
    pub fn lookup(&self, key: &ViewKey, token: Token) -> Option<Arc<Document>> {
        let guard = self.shard_for(&key.0).read();
        if guard.token == token {
            if let Some(view) = guard.views.get(key) {
                return Some(Arc::clone(view));
            }
        }
        None
    }

    /// Inserts a computed view under `token`, evicting the shard wholesale
    /// first when its resident token is older.
    pub fn insert(&self, key: ViewKey, token: Token, view: Arc<Document>) {
        let shard = self.shard_for(&key.0);
        let mut guard = shard.write();
        if guard.token != token {
            // Never let a newer shard regress to an older token: a racing
            // slow worker may finish a view computed under a superseded
            // snapshot after the shard already advanced.
            if token.generation < guard.token.generation {
                return;
            }
            guard.views.clear();
            guard.token = token;
        }
        guard.views.insert(key, view);
    }

    /// Drops one cached view (fault-injection `CacheEvict` hook: forces
    /// the next lookup for `key` to recompute). A no-op when the entry is
    /// absent.
    pub fn remove(&self, key: &ViewKey) {
        let shard = self.shard_for(&key.0);
        shard.write().views.remove(key);
    }

    /// Drops every cached view in every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().views.clear();
        }
    }

    /// Views currently resident across all shards.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().views.len()).sum()
    }

    /// Folds this cache's per-shard counters into `stats` (index-aligned
    /// with the session table's shards).
    pub fn fill_stats(&self, stats: &mut [ShardStats]) {
        for (i, shard) in self.shards.iter().enumerate() {
            stats[i].cache_lock_waits = shard.lock_waits.load(Ordering::Relaxed);
            stats[i].cached_views = shard.read().views.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Arc<Document> {
        Arc::new(Document::parse("<x/>").unwrap())
    }

    const T0: Token = Token {
        generation: 0,
        epoch: 0,
    };
    const T1: Token = Token {
        generation: 1,
        epoch: 1,
    };

    #[test]
    fn l2_hit_requires_matching_token() {
        let l2 = L2ViewCache::new(4);
        let key = ("alice".to_string(), "d.xml".to_string());
        assert!(l2.lookup(&key, T0).is_none());
        l2.insert(key.clone(), T0, doc());
        assert!(l2.lookup(&key, T0).is_some());
        // A token bump makes the entry unreachable...
        assert!(l2.lookup(&key, T1).is_none());
        // ...and the next insert evicts the stale shard wholesale.
        l2.insert(("bob".to_string(), "d.xml".to_string()), T1, doc());
        assert!(l2.lookup(&key, T0).is_none() || l2.len() <= 2);
    }

    #[test]
    fn l2_never_regresses_to_an_older_generation() {
        let l2 = L2ViewCache::new(1);
        let new_key = ("bob".to_string(), "d.xml".to_string());
        l2.insert(new_key.clone(), T1, doc());
        // A slow worker finishing a view computed under the old snapshot
        // must not clobber the newer shard.
        let old_key = ("alice".to_string(), "d.xml".to_string());
        l2.insert(old_key.clone(), T0, doc());
        assert!(l2.lookup(&new_key, T1).is_some());
        assert!(l2.lookup(&old_key, T0).is_none());
    }

    #[test]
    fn remove_evicts_one_entry() {
        let l2 = L2ViewCache::new(4);
        let key = ("alice".to_string(), "d.xml".to_string());
        let other = ("alice".to_string(), "e.xml".to_string());
        l2.insert(key.clone(), T0, doc());
        l2.insert(other.clone(), T0, doc());
        l2.remove(&key);
        assert!(l2.lookup(&key, T0).is_none(), "removed L2 entry served");
        assert!(l2.lookup(&other, T0).is_some(), "remove() evicted a neighbor");
    }

    #[test]
    fn clear_empties_every_shard() {
        let l2 = L2ViewCache::new(8);
        for i in 0..32 {
            l2.insert((format!("s{i}"), "d.xml".to_string()), T0, doc());
        }
        assert!(l2.len() > 0);
        l2.clear();
        assert_eq!(l2.len(), 0);
    }
}
