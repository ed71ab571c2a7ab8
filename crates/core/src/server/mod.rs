//! Sharded, contention-free serving over an immutable stack snapshot.
//!
//! The ROADMAP's north star is a system that "serves heavy traffic from
//! millions of users". PR 2's serving layer delivered session reuse and a
//! policy-view cache but serialized every request on one session map and
//! one cache lock — its own benchmark showed four workers running *slower*
//! than one. This module restructures the engine so parallel actually
//! beats serial:
//!
//! * **Identity sharding** — the session table and the shared (L2) view
//!   cache are split into a power-of-two number of shards by
//!   subject-identity hash. Two requests contend only when their subjects
//!   collide on a shard ([`shard`], [`cache`]). This per-subject state is
//!   kept once: every request, single or batched, takes its session from
//!   the table and its cached view from the L2 of the snapshot it runs
//!   against. A batch worker keeps only its snapshot handle and its index.
//! * **One claim cursor** — a batch's scheduled request indices are an
//!   immutable list, and workers claim from it with one shared
//!   `fetch_add` cursor: each index is claimed exactly once, with no
//!   mutex, no per-worker queue and no stealing. A one-worker batch
//!   claims in submission order, and a faster worker simply claims more.
//! * **Request coalescing (singleflight), off the hot path** — identical
//!   requests inside one batch (same identity, document, path, clearance)
//!   are grouped *once, serially, at batch entry*: the first occurrence
//!   leads and is scheduled; followers are never scheduled at all and
//!   receive a clone of the leader's evaluation marked
//!   [`CacheStatus::Coalesced`]. Workers therefore take no shared
//!   coalescing lock while requests are in flight. Deadline-carrying
//!   requests never coalesce (a follower must not inherit a leader's
//!   timing).
//! * **One published snapshot** — the immutable stack, the decision
//!   tables compiled from it, its L2 view cache and its generation are
//!   published as one `Arc` behind one `RwLock`. Writers clone, mutate and
//!   compile under a dedicated update mutex, then swap the `Arc` in under
//!   the write lock and bump the generation. A view is a pure function of
//!   its snapshot, so each publication starts with an empty cache, and the
//!   generation is the one key the analysis memo checks. A reader takes the
//!   read lock once per generation and keeps the `Arc` until the generation
//!   moves, so it never waits on a writer's mutation work, and a panicked
//!   update closure cannot poison the read path. Every L2 miss is answered
//!   from the snapshot's compiled tables; the interpreting engine stays the
//!   oracle of [`SecureWebStack::execute`] and the tests.
//! * **Graceful degradation** — a panicking request evaluation, a poisoned
//!   shard, or a dead worker degrades to `WS106`
//!   ([`Error::ShardPoisoned`]) answers for the affected requests; every
//!   other shard and worker keeps serving.
//! * **Deterministic fault injection & resilience policies** — a seeded
//!   [`FaultPlan`] armed via [`StackServer::install_faults`] fires at the
//!   four failure-capable layers (channel transit, shard lock acquisition,
//!   cache lookup, worker evaluation) on replayable schedules; the no-plan
//!   default costs one atomic load per request. On top: per-request
//!   deadline budgets over a **logical clock** (`WS107`), admission-control
//!   load shedding in [`StackServer::serve_batch`] (`WS108`), and
//!   [`StackServer::serve_with_retry`] with decorrelated backoff
//!   ([`RetryPolicy`]). See [`crate::faults`].
//!
//! Everything is observable through [`MetricsSnapshot`]: per-layer timing
//! totals, cache and coalescing counters, and per-shard contention
//! statistics ([`ShardStats`]).
//!
//! The cache and coalescing keys deliberately use the subject *identity*
//! (not the full profile): a server maps each authenticated identity to
//! one profile, the same assumption the per-identity session table makes.
//! Callers that attach different role/credential sets to one identity must
//! invalidate between them.

mod analysis;
mod cache;
mod config;
mod metrics;
mod shard;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use crate::error::Error;
use crate::faults::{FaultContext, FaultInjector, FaultKind, FaultLayer, FaultPlan, RetryPolicy};
use crate::hash::{fnv1a, FNV1A_START};
use crate::request::{BatchRequest, CacheStatus, QueryRequest, QueryResponse};
use crate::stack::{ResolvedView, SecureWebStack, ViewResolver};
use crate::sync::{
    TrackedAtomicBool, TrackedAtomicU64, TrackedAtomicU8, TrackedAtomicUsize, TrackedMutex,
    TrackedRwLock,
};
use cache::{L2ViewCache, LockWaits, ViewKey};
use metrics::{Counter, LocalMetrics, MetricsInner};
use shard::SessionShards;
use websec_policy::{CompiledPolicies, SubjectProfile};
use websec_xml::Document;

pub use analysis::AnalysisGate;
pub use config::ServerConfig;
pub use metrics::{BatchResponse, BatchStats, LatencyHistogram, MetricsSnapshot, ShardStats};

/// Default shard count for the session table and L2 view cache. Sixteen
/// shards keep the expected collision rate low for up to ~8 workers while
/// staying cheap to snapshot; tune with [`StackServer::with_shards`].
const DEFAULT_SHARDS: usize = 16;

/// One published snapshot: the immutable stack, the decision tables
/// compiled from it at publication time, the views computed from it, and
/// its generation. Published and replaced as one `Arc`, so a reader can
/// never pair a stack with another snapshot's tables or views.
struct Published {
    stack: Arc<SecureWebStack>,
    compiled: Arc<CompiledPolicies>,
    /// The snapshot's L2 view cache, empty at publication.
    cache: L2ViewCache,
    /// 0 at construction, one more per publication: the one invalidation
    /// key of everything derived from a snapshot.
    generation: u64,
}

/// A concurrent server over an immutable [`SecureWebStack`] snapshot.
///
/// `serve`, `serve_batch`, `update`, and `invalidate_views` all take
/// `&self`: the stack snapshot lives behind a copy-on-write swap, so
/// configuration can mutate *while a batch is in flight* — in-flight
/// requests finish against the snapshot they started with, and every
/// request that starts after [`StackServer::update`] returns observes the
/// new configuration (cached views live in their snapshot, so no worker
/// can serve a view of a replaced one).
pub struct StackServer {
    /// The published snapshot. Writers prepare the new stack and tables
    /// *outside* this lock and hold the write lock only to swap the `Arc`,
    /// so a reader never waits on a writer's clone/mutate/analyze work.
    snapshot: TrackedRwLock<Arc<Published>>,
    /// Serializes snapshot writers ([`StackServer::update`],
    /// [`StackServer::try_update`], [`StackServer::invalidate_views`]).
    /// Outermost lock of the server: taken before the snapshot lock,
    /// never the reverse. Readers never touch it.
    update_lock: TrackedMutex<()>,
    /// The published snapshot's generation, stored after every swap.
    /// Workers revalidate their cached snapshot against it with one load
    /// instead of taking the lock. A synchronizing atomic: its
    /// Release/Acquire pairs publish the swap.
    generation: TrackedAtomicU64,
    sessions: SessionShards,
    /// Per-shard lock-wait counters of the view caches, shared by every
    /// snapshot's cache so they stay cumulative across publications.
    cache_lock_waits: LockWaits,
    metrics: MetricsInner,
    /// The armed fault injector, if a chaos plan is installed. Guarded by
    /// `faults_enabled` so the no-plan serving path pays one atomic load.
    faults: TrackedMutex<Option<Arc<FaultInjector>>>,
    faults_enabled: TrackedAtomicBool,
    /// The logical clock (ticks, not wall time): advanced only by injected
    /// `SlowEval` faults, retry backoffs, and explicit
    /// [`StackServer::advance_clock`] calls, so every deadline decision is
    /// deterministic and replayable.
    clock: TrackedAtomicU64,
    /// Admission-control capacity per batch worker (0 = unlimited): a
    /// batch larger than `limit × workers` has its tail shed with `WS108`.
    queue_limit: TrackedAtomicUsize,
    /// The analysis memo: the most recently analysed snapshot with its
    /// generation, per-pass analyzer results and both reports, plus the
    /// codes of the last analyzer run. Lock order: taken after
    /// the update mutex, never while the snapshot lock is held.
    analysis: TrackedMutex<analysis::AnalysisMemo>,
    /// The configured [`AnalysisGate`] (stored as its discriminant).
    analysis_gate: TrackedAtomicU8,
}

/// What one batch worker hands back: its `(request index, result)` pairs
/// and its local metrics.
type WorkerOutput = (
    Vec<(usize, Result<QueryResponse, Error>)>,
    Box<LocalMetrics>,
);

/// Worker-local serving state: the last snapshot resolved (revalidated by
/// generation on reuse) and the batch worker's index. Sessions live in the
/// server's shared table and views in the snapshot's cache, never here.
#[derive(Default)]
struct WorkerState {
    snapshot: Option<Arc<Published>>,
    /// Batch worker index (`None` on the single-request serve path);
    /// worker-scoped fault rules match against it.
    index: Option<usize>,
}

impl WorkerState {
    /// The current snapshot, reusing the cached `Arc` while the server's
    /// generation is unchanged (one atomic load on the hot path instead of
    /// a lock).
    fn snapshot(&mut self, server: &StackServer) -> Arc<Published> {
        if let Some(published) = &self.snapshot {
            if published.generation == server.generation.load(Ordering::Acquire) {
                return Arc::clone(published);
            }
        }
        let published = server.published();
        self.snapshot = Some(Arc::clone(&published));
        published
    }
}

/// The server's view resolver: one snapshot's sharded L2 (one shard lock)
/// over that snapshot's compiled decision tables.
struct CachedViews<'a> {
    published: &'a Published,
    local: &'a mut LocalMetrics,
    /// Cache-layer injection hook (`None` on every non-chaos path).
    faults: Option<&'a FaultContext<'a>>,
}

impl ViewResolver for CachedViews<'_> {
    fn resolve(
        &mut self,
        _stack: &SecureWebStack,
        profile: &SubjectProfile,
        doc_name: &str,
        doc: &Document,
    ) -> ResolvedView {
        let key: ViewKey = (profile.identity.clone(), doc_name.to_string());
        if let Some(ctx) = self.faults {
            for kind in ctx.check(FaultLayer::Cache) {
                if kind == FaultKind::CacheEvict {
                    // Evict before lookup: the request recomputes its view
                    // (correctness is unaffected — only hit counters move).
                    self.local.bump(Counter::FaultsInjected);
                    self.published.cache.remove(&key);
                }
            }
        }
        if let Some(view) = self.published.cache.lookup(&key) {
            return ResolvedView {
                view,
                cache: CacheStatus::Hit,
                compile_ns: 0,
            };
        }
        // Compute outside any lock; a racing worker may duplicate the work
        // but both produce the same view.
        let t = Instant::now();
        let view = self
            .published
            .compiled
            .compute_view(profile, doc_name, doc)
            .expect("compile() compiles every document of the stack it publishes");
        let compile_ns = t.elapsed().as_nanos();
        let view = Arc::new(view);
        self.published.cache.insert(key, Arc::clone(&view));
        ResolvedView {
            view,
            cache: CacheStatus::Miss,
            compile_ns,
        }
    }
}

/// The batch's singleflight plan, computed serially at batch entry so no
/// worker ever takes a coalescing lock: `schedule` lists the request
/// indices that actually run (coalesce-group leaders plus every
/// non-coalescable request, in submission order), `followers[i]` lists
/// the duplicate positions answered by cloning leader `i`'s evaluation,
/// and `cursor` is the one claim cursor every worker shares over
/// `schedule`.
struct CoalescePlan {
    schedule: Vec<usize>,
    followers: Vec<Vec<usize>>,
    cursor: TrackedAtomicUsize,
}

impl CoalescePlan {
    /// Groups the first `admitted` requests by [`QueryRequest::coalesce_key`]
    /// in one serial O(n) pass. The first occurrence of a key leads (the
    /// same position the old claim-racing scheme deterministically favored
    /// in serial replay); later occurrences become its followers.
    fn new(requests: &[QueryRequest], admitted: usize) -> Self {
        let mut leader_of: HashMap<String, usize> = HashMap::new();
        let mut followers: Vec<Vec<usize>> = vec![Vec::new(); admitted];
        let mut schedule: Vec<usize> = Vec::with_capacity(admitted);
        for (i, request) in requests.iter().enumerate().take(admitted) {
            match request.coalesce_key() {
                Some(key) => match leader_of.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(i);
                        schedule.push(i);
                    }
                    Entry::Occupied(slot) => followers[*slot.get()].push(i),
                },
                // Pathless and deadline-carrying requests never share an
                // evaluation; they are scheduled individually.
                None => schedule.push(i),
            }
        }
        CoalescePlan {
            schedule,
            followers,
            cursor: TrackedAtomicUsize::synchronizing("server.claim_cursor", 0),
        }
    }

    /// Claims the next scheduled request index, or `None` once the
    /// schedule is drained. The `fetch_add` hands every position to
    /// exactly one caller, and a lone caller claims in submission order.
    /// Each worker stops at its first `None`, so the cursor overshoots the
    /// schedule by at most the worker count. `schedule` is published to
    /// the workers by their spawn; the `AcqRel` pair only orders
    /// consecutive claims for the WS111 detector.
    fn claim(&self) -> Option<usize> {
        let at = self.cursor.fetch_add(1, Ordering::AcqRel);
        self.schedule.get(at).copied()
    }
}

/// Re-marks a shared evaluation as coalesced for a duplicate position.
fn coalesced(result: Result<QueryResponse, Error>) -> Result<QueryResponse, Error> {
    result.map(|response| QueryResponse {
        cache: CacheStatus::Coalesced,
        ..response
    })
}

impl StackServer {
    /// Wraps a configured stack into a serving snapshot with the default
    /// shard count.
    #[must_use]
    pub fn new(stack: SecureWebStack) -> Self {
        Self::with_shards(stack, DEFAULT_SHARDS)
    }

    /// Like [`StackServer::new`] with an explicit shard count for the
    /// session table and L2 view cache (rounded up to a power of two,
    /// clamped to `1..=4096`).
    #[must_use]
    pub fn with_shards(stack: SecureWebStack, shards: usize) -> Self {
        let shards = shards.clamp(1, 4096).next_power_of_two();
        let t = Instant::now();
        let compiled = stack.compile(None);
        let initial_compile_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cache_lock_waits = cache::lock_waits(shards);
        let published = Published {
            stack: Arc::new(stack),
            compiled,
            cache: L2ViewCache::new(Arc::clone(&cache_lock_waits)),
            generation: 0,
        };
        let server = StackServer {
            snapshot: TrackedRwLock::new("server.snapshot", Arc::new(published)),
            update_lock: TrackedMutex::new("server.update", ()),
            generation: TrackedAtomicU64::synchronizing("server.generation", 0),
            sessions: SessionShards::new(shards),
            cache_lock_waits,
            metrics: MetricsInner::default(),
            faults: TrackedMutex::new("server.faults", None),
            faults_enabled: TrackedAtomicBool::synchronizing("server.faults_enabled", false),
            clock: TrackedAtomicU64::counter("server.clock", 0),
            queue_limit: TrackedAtomicUsize::counter("server.queue_limit", 0),
            analysis: TrackedMutex::new("server.analysis", analysis::AnalysisMemo::default()),
            analysis_gate: TrackedAtomicU8::counter("server.analysis_gate", 0),
        };
        server.count_compile(initial_compile_ns);
        server
    }

    /// The decision tables compiled from the current snapshot (published
    /// atomically with it; see [`websec_policy::CompiledPolicies`]).
    #[must_use]
    pub fn compiled_policies(&self) -> Arc<CompiledPolicies> {
        Arc::clone(&self.published().compiled)
    }

    /// Policy compilations performed so far: one at construction plus one
    /// per [`StackServer::update`] / [`StackServer::try_update`]
    /// publication. [`StackServer::invalidate_views`] republishes the
    /// existing artifact without recompiling, so the counter lets tests
    /// pin the compile-exactly-once-per-mutation invariant.
    #[must_use]
    pub fn snapshot_compiles(&self) -> u64 {
        self.metrics.get(Counter::SnapshotCompiles)
    }

    /// Arms a deterministic [`FaultPlan`] on this server and returns the
    /// live [`FaultInjector`] so callers can assert the injected schedule
    /// (per-rule fired counts) exactly. Replaces any previously installed
    /// plan. Every request takes its session from the sharded table, so
    /// each one traverses the shard-layer hook; with no plan the serving
    /// path pays exactly one atomic load.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(plan));
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&injector));
        self.faults_enabled.store(true, Ordering::Release);
        injector
    }

    /// Disarms fault injection: subsequent requests serve normally (the
    /// self-heal contract — evicted sessions re-establish, evicted views
    /// recompute — is asserted by the chaos suite).
    pub fn clear_faults(&self) {
        self.faults_enabled.store(false, Ordering::Release);
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// The armed injector, if any (one atomic load when faults are off).
    fn injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.faults_enabled.load(Ordering::Acquire) {
            return None;
        }
        self.faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The logical clock, in ticks. It advances only on injected
    /// `SlowEval` faults, retry backoffs, and [`StackServer::advance_clock`]
    /// — never on wall time — so deadline behavior replays exactly.
    #[must_use]
    pub fn logical_now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the logical clock by `ticks`, returning the new value
    /// (models elapsed work in tests and simulations).
    pub fn advance_clock(&self, ticks: u64) -> u64 {
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    /// Caps each batch worker's run-queue depth for admission control: a
    /// [`StackServer::serve_batch`] call with more than
    /// `depth × workers` requests sheds the tail with `WS108`
    /// ([`Error::Overloaded`]) before any work starts. `0` (the default)
    /// disables shedding.
    pub fn set_queue_limit(&self, per_worker_depth: usize) {
        self.queue_limit.store(per_worker_depth, Ordering::Relaxed);
    }

    /// The configured per-worker admission depth (0 = unlimited).
    #[must_use]
    pub fn queue_limit(&self) -> usize {
        self.queue_limit.load(Ordering::Relaxed)
    }

    /// Number of shards in the session table and L2 view cache.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.sessions.len()
    }

    /// The current immutable snapshot.
    ///
    /// Never blocks on an in-progress [`StackServer::update`]'s mutation
    /// work and never panics: writers prepare the new stack privately and
    /// hold the snapshot lock only to swap an `Arc`, so the read path
    /// survives a panicked update closure untouched.
    #[must_use]
    pub fn snapshot(&self) -> Arc<SecureWebStack> {
        Arc::clone(&self.published().stack)
    }

    /// The published snapshot: stack, tables, views and generation from
    /// one read of the one lock, so they always belong together. A
    /// poisoned lock heals itself: its value is only ever replaced whole,
    /// so it is always a complete snapshot.
    fn published(&self) -> Arc<Published> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Installs `stack` (with the decision tables compiled from it) as the
    /// new current snapshot, with an empty view cache: swaps the `Arc`
    /// under the write lock and stores the new generation (Release — the
    /// publication edge workers acquire). The replaced snapshot, views
    /// included, is dropped after the lock is released, or by the last
    /// reader still holding it. Returns the new generation.
    ///
    /// Must be called with `update_lock` held, so the generation read here
    /// is still the latest when it is stored back.
    fn publish(&self, stack: Arc<SecureWebStack>, compiled: Arc<CompiledPolicies>) -> u64 {
        let generation = self.generation.load(Ordering::Acquire) + 1;
        let published = Arc::new(Published {
            stack,
            compiled,
            cache: L2ViewCache::new(Arc::clone(&self.cache_lock_waits)),
            generation,
        });
        let replaced = {
            let mut current = self
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, published)
        };
        self.generation.store(generation, Ordering::Release);
        drop(replaced);
        generation
    }

    /// Compiles `stack` under the update lock against `published`, the
    /// tables it replaces, attributing the elapsed time and bumping the
    /// compile counter.
    fn compile_for_publication(
        &self,
        stack: &SecureWebStack,
        published: &CompiledPolicies,
    ) -> Arc<CompiledPolicies> {
        let t = Instant::now();
        let compiled = stack.compile(Some(published));
        self.count_compile(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        compiled
    }

    /// Accounts one published compilation that took `ns` nanoseconds.
    fn count_compile(&self, ns: u64) {
        self.metrics.add(Counter::SnapshotCompiles, 1);
        self.metrics.add(Counter::SnapshotCompileNs, ns);
    }

    /// Mutates the stack configuration (documents, policies, labels,
    /// context, gate) on a private clone of the snapshot, then publishes
    /// the clone with an empty view cache. The clone shares the
    /// snapshot's documents, and `mutate` copies only those it writes, so
    /// a policy change neither copies nor, when the replaced snapshot is
    /// dropped, frees any document. The clone is compiled against the
    /// published tables, so it re-runs only the selections of new cover
    /// keys and of written documents.
    ///
    /// Takes `&self`: mutation is safe *during* concurrent serving.
    /// In-flight requests complete against the snapshot they started with;
    /// any request that starts after `update` returns observes the new
    /// configuration and reads only the new snapshot's views. Readers never
    /// wait on the mutation: `mutate` runs on the private clone, outside
    /// the snapshot lock — and if it panics, the current snapshot is
    /// untouched and serving continues unaffected.
    pub fn update<R>(&self, mutate: impl FnOnce(&mut SecureWebStack) -> R) -> R {
        let _writer = self
            .update_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let published = self.published();
        let mut candidate = (*published.stack).clone();
        let result = mutate(&mut candidate);
        let compiled = self.compile_for_publication(&candidate, &published.compiled);
        drop(published);
        self.publish(Arc::new(candidate), compiled);
        result
    }

    /// Drops every cached view: republishes the current stack and tables
    /// (no clone, and no recompilation — the stack is unchanged, so the
    /// existing compiled artifact stays exact) with an empty view cache
    /// under a new generation, without changing what readers see. No
    /// correctness path needs it, since a view is valid exactly as long as
    /// its snapshot; it gives benchmarks cold views and a generation the
    /// analysis memo has not seen.
    pub fn invalidate_views(&self) {
        let _writer = self
            .update_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let current = self.published();
        self.publish(Arc::clone(&current.stack), Arc::clone(&current.compiled));
    }

    /// The full evaluation of one request against the current snapshot,
    /// taking its session from the sharded table and using (and
    /// populating) the L2 view cache.
    ///
    /// `deadline` is an absolute logical-clock tick (computed from the
    /// request's budget when the server admitted it); the budget is
    /// re-checked here immediately before evaluation so a slow (injected)
    /// wait between queue-pop and eval still surfaces as `WS107`.
    fn serve_one(
        &self,
        request: &QueryRequest,
        worker: &mut WorkerState,
        local: &mut LocalMetrics,
        deadline: Option<u64>,
    ) -> Result<QueryResponse, Error> {
        let published = worker.snapshot(self);
        let stack = &published.stack;
        let identity = &request.subject_profile().identity;
        let injector = self.injector();
        let ctx = injector.as_ref().map(|inj| FaultContext {
            injector: inj,
            subject: identity,
            doc: request.doc_name(),
            worker: worker.index,
        });
        let session = self.sessions.get_or_establish(
            identity,
            &stack.session_key,
            stack.channel_protected,
            local,
            ctx.as_ref(),
        )?;
        let mut guard = match self.sessions.lock_session(identity, &session) {
            Some(guard) => guard,
            None => {
                // The session's holder panicked mid-transit: its sequence
                // state is suspect. Evict so the next request performs a
                // clean handshake; this request degrades to WS106.
                self.sessions.evict(identity);
                return Err(Error::ShardPoisoned(format!(
                    "session '{identity}' poisoned mid-request; evicted for re-establishment"
                )));
            }
        };
        if let Some(ctx) = &ctx {
            for kind in ctx.check(FaultLayer::Channel) {
                match kind {
                    FaultKind::ChannelDrop => {
                        local.bump(Counter::FaultsInjected);
                        return Err(Error::Channel(
                            "injected fault: request record dropped in transit".into(),
                        ));
                    }
                    FaultKind::ChannelTamper => {
                        // Run the channel's *real* MAC rejection: seal the
                        // query, flip a wire byte, open at the server end.
                        local.bump(Counter::FaultsInjected);
                        let payload = request
                            .query_path()
                            .map_or(String::new(), |p| p.source().to_string());
                        return match guard.transit_to_server_tampered(payload.as_bytes()) {
                            Err(e) => Err(Error::Channel(format!("injected tamper: {e}"))),
                            // An unprotected channel has no MAC to refuse
                            // corrupted bytes; the serving layer must not
                            // evaluate a tampered query.
                            Ok(_) => Err(Error::Channel(
                                "injected tamper: unprotected channel delivered a corrupted \
                                 record"
                                    .into(),
                            )),
                        };
                    }
                    _ => {}
                }
            }
            for kind in ctx.check(FaultLayer::Eval) {
                match kind {
                    FaultKind::SlowEval { ticks } => {
                        local.bump(Counter::FaultsInjected);
                        self.clock.fetch_add(ticks, Ordering::Relaxed);
                    }
                    FaultKind::WorkerPanic => {
                        local.bump(Counter::FaultsInjected);
                        // Unwinds through serve_caught's boundary into a
                        // WS106 answer; the held session guard poisons its
                        // mutex, exercising the eviction/self-heal path —
                        // the panic IS the injected fault.
                        // lint:allow(panic)
                        panic!("injected fault: worker panic for '{identity}'");
                    }
                    _ => {}
                }
            }
        }
        if let Some(deadline) = deadline {
            let now = self.clock.load(Ordering::Relaxed);
            if now > deadline {
                return Err(Error::DeadlineExceeded(format!(
                    "budget exhausted before evaluation (logical clock {now} past deadline \
                     {deadline})"
                )));
            }
        }
        let mut resolver = CachedViews {
            published: &published,
            local,
            faults: ctx.as_ref(),
        };
        stack.execute_in_session(request, &mut guard, &mut resolver)
    }

    /// [`StackServer::serve_one`] behind a panic boundary: a panicking
    /// evaluation answers `WS106` instead of killing the worker.
    fn serve_caught(
        &self,
        request: &QueryRequest,
        worker: &mut WorkerState,
        local: &mut LocalMetrics,
        deadline: Option<u64>,
    ) -> Result<QueryResponse, Error> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.serve_one(request, worker, local, deadline)
        }));
        caught.unwrap_or_else(|_| {
            local.bump(Counter::WorkerPanics);
            Err(Error::ShardPoisoned(
                "request evaluation panicked; the batch degraded this request and continued".into(),
            ))
        })
    }

    /// Serves one request: session lookup (handshake only on first
    /// contact), the four-layer evaluation with the snapshot's view cache
    /// plugged in, and metrics accounting. Runs behind the same
    /// panic boundary as batch workers, so an injected (or real) panic
    /// degrades to `WS106` instead of unwinding into the caller.
    pub fn serve(&self, request: &QueryRequest) -> Result<QueryResponse, Error> {
        let mut worker = WorkerState::default();
        let mut local = LocalMetrics::default();
        let deadline = request
            .deadline_budget()
            .map(|budget| self.clock.load(Ordering::Relaxed).saturating_add(budget));
        let result = self.serve_caught(request, &mut worker, &mut local, deadline);
        local.record_outcome(&result);
        self.metrics.absorb(&local);
        result
    }

    /// [`StackServer::serve`] wrapped in the bounded-retry loop of a
    /// [`RetryPolicy`]: transient failures ([`Error::is_transient`] —
    /// channel faults, poisoned shards, overload) are retried up to
    /// `policy.max_attempts` total attempts. Each retry first advances the
    /// logical clock by a decorrelated-jitter backoff (salted by the
    /// request's subject and document so distinct requests desynchronize),
    /// and a request-level deadline budget bounds the whole sequence:
    /// once the clock passes it, the loop stops with `WS107` without
    /// issuing another attempt.
    pub fn serve_with_retry(
        &self,
        request: &QueryRequest,
        policy: &RetryPolicy,
    ) -> Result<QueryResponse, Error> {
        let overall = request
            .deadline_budget()
            .map(|budget| self.clock.load(Ordering::Relaxed).saturating_add(budget));
        let salt = fnv1a(
            format!(
                "{}\u{1f}{}",
                request.subject_profile().identity,
                request.doc_name()
            )
            .as_bytes(),
            FNV1A_START,
        );
        let attempts = policy.max_attempts.max(1);
        let mut prev = policy.base_ticks.max(1);
        let mut last_transient = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = policy.backoff_ticks(attempt, prev, salt);
                prev = backoff;
                self.clock.fetch_add(backoff, Ordering::Relaxed);
                self.metrics.add(Counter::Retries, 1);
            }
            if let Some(deadline) = overall {
                let now = self.clock.load(Ordering::Relaxed);
                if now > deadline {
                    let result = Err(Error::DeadlineExceeded(format!(
                        "retry budget exhausted after {attempt} attempt(s) (logical clock \
                         {now} past deadline {deadline})"
                    )));
                    let mut local = LocalMetrics::default();
                    local.record_outcome(&result);
                    self.metrics.absorb(&local);
                    return result;
                }
            }
            match self.serve(request) {
                Ok(response) => return Ok(response),
                Err(e) if e.is_transient() => last_transient = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_transient
            .unwrap_or_else(|| Error::InvalidRequest("retry policy allowed zero attempts".into())))
    }

    /// Serves a [`BatchRequest`] across its configured workers, which claim
    /// the scheduled requests from one shared cursor.
    ///
    /// Results are positional: `results[i]` answers `requests()[i]`, and
    /// every response payload is byte-identical to what a serial
    /// [`StackServer::serve`] loop would produce (cache/coalescing status
    /// and timings legitimately differ). Identical requests are grouped
    /// serially at batch entry and coalesced onto one evaluation; only
    /// group leaders are scheduled.
    ///
    /// A panicking evaluation or poisoned shard answers the affected
    /// requests with `WS106` ([`Error::ShardPoisoned`]); the rest of the
    /// batch completes normally.
    ///
    /// **Admission control**: when a queue limit is configured
    /// ([`StackServer::set_queue_limit`]), at most `limit × workers`
    /// requests are admitted; the tail of the batch is shed with `WS108`
    /// ([`Error::Overloaded`]) before any evaluation starts — shedding is
    /// positional and deterministic, so the same batch against the same
    /// limit always sheds the same requests. **Deadlines**: each admitted
    /// request's budget — the tighter of its own and the batch-level
    /// [`BatchRequest::deadline_ticks`] — is converted to an absolute
    /// logical-clock deadline at batch entry and checked when a worker
    /// claims the request (and again pre-eval); an exhausted budget
    /// answers `WS107` without evaluating.
    pub fn serve_batch(&self, batch: &BatchRequest) -> BatchResponse {
        let requests = batch.requests();
        let mut stats = BatchStats::default();
        if requests.is_empty() {
            return BatchResponse {
                results: Vec::new(),
                stats,
            };
        }
        let requested_workers = batch.worker_count();
        let limit = self.queue_limit.load(Ordering::Relaxed);
        let admitted = if limit == 0 {
            requests.len()
        } else {
            requests.len().min(limit.saturating_mul(requested_workers))
        };
        let workers = requested_workers.min(admitted);
        stats.workers = workers;
        stats.admitted = admitted;
        stats.shed = requests.len() - admitted;
        let entry_tick = self.clock.load(Ordering::Relaxed);
        let batch_deadline = batch
            .deadline_budget()
            .map(|budget| entry_tick.saturating_add(budget));
        let deadlines: Vec<Option<u64>> = requests[..admitted]
            .iter()
            .map(|r| {
                let own = r
                    .deadline_budget()
                    .map(|budget| entry_tick.saturating_add(budget));
                match (own, batch_deadline) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .collect();
        // Singleflight off the hot path: group duplicates serially now, so
        // workers never touch a coalescing lock while requests are in
        // flight — followers are answered by cloning their leader.
        let plan = CoalescePlan::new(requests, admitted);

        let mut out: Vec<Option<Result<QueryResponse, Error>>> = Vec::new();
        out.resize_with(requests.len(), || None);
        if admitted < requests.len() {
            let mut local = LocalMetrics::default();
            for slot in out.iter_mut().skip(admitted) {
                let result = Err(Error::Overloaded(format!(
                    "admission control shed this request: batch of {} exceeds queue capacity \
                     {admitted} ({workers} worker(s) x depth {limit})",
                    requests.len()
                )));
                local.record_outcome(&result);
                *slot = Some(result);
            }
            self.metrics.absorb(&local);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let plan = &plan;
                    let deadlines = &deadlines;
                    scope.spawn(move || self.worker_loop(w, requests, deadlines, plan))
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok((done, local)) => {
                        stats.coalesced += local.get(Counter::Coalesced);
                        self.metrics.absorb(&local);
                        for (i, result) in done {
                            out[i] = Some(result);
                        }
                    }
                    Err(_) => {
                        // The worker died outside the per-request panic
                        // boundary. Its unfinished slots fall through to
                        // WS106 below; its claimed-but-unanswered indices
                        // are already behind the cursor, so no other
                        // worker double-answers them.
                        self.metrics.add(Counter::WorkerPanics, 1);
                    }
                }
            }
        });
        let results = out
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let result = Err(Error::ShardPoisoned(
                        "worker abandoned this request (panicked outside evaluation)".into(),
                    ));
                    let mut local = LocalMetrics::default();
                    local.record_outcome(&result);
                    self.metrics.absorb(&local);
                    result
                })
            })
            .collect();
        BatchResponse { results, stats }
    }

    /// One batch worker: claim indices from the plan's cursor, answer each
    /// leader and clone its result to any coalesced followers, and return
    /// the local metrics for a single flush at scope exit.
    fn worker_loop(
        &self,
        worker_index: usize,
        requests: &[QueryRequest],
        deadlines: &[Option<u64>],
        plan: &CoalescePlan,
    ) -> WorkerOutput {
        let mut worker = WorkerState {
            index: Some(worker_index),
            ..WorkerState::default()
        };
        let mut local = Box::new(LocalMetrics::default());
        let mut done = Vec::new();
        while let Some(i) = plan.claim() {
            let request = &requests[i];
            // Claim-time deadline check: work that waited past its budget
            // is answered WS107 without paying for an evaluation.
            let expired = deadlines[i].and_then(|deadline| {
                let now = self.clock.load(Ordering::Relaxed);
                (now > deadline).then_some((now, deadline))
            });
            let result = match expired {
                Some((now, deadline)) => Err(Error::DeadlineExceeded(format!(
                    "deadline passed while queued (logical clock {now} past deadline \
                     {deadline})"
                ))),
                None => self.serve_caught(request, &mut worker, &mut local, deadlines[i]),
            };
            local.record_outcome(&result);
            for &follower in &plan.followers[i] {
                let shared = coalesced(result.clone());
                local.record_outcome(&shared);
                done.push((follower, shared));
            }
            done.push((i, result));
        }
        (done, local)
    }

    /// A consistent snapshot of the cumulative serving statistics,
    /// including the per-shard contention breakdown.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut stats = vec![ShardStats::default(); self.sessions.len()];
        self.sessions.fill_stats(&mut stats);
        self.published().cache.fill_stats(&mut stats);
        let mut snap = self.metrics.snapshot(stats);
        let [(errors, warnings), (policy_errors, policy_warnings)] = self.analysis_gauges();
        snap.analysis_errors = errors;
        snap.analysis_warnings = warnings;
        snap.policy_errors = policy_errors;
        snap.policy_warnings = policy_warnings;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::{Clearance, ContextLabel, Level};
    use websec_policy::{Authorization, ObjectSpec, Privilege, SubjectProfile, SubjectSpec};
    use websec_xml::Path;

    fn stack() -> SecureWebStack {
        let mut s = SecureWebStack::new([8u8; 32]);
        s.add_document(
            "h.xml",
            Document::parse(
                "<hospital><patient id=\"p1\"><name>Alice</name></patient><admin><budget>9</budget></admin></hospital>",
            )
            .unwrap(),
            ContextLabel::fixed(Level::Unclassified),
        );
        s.policies.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        s
    }

    fn doctor_request() -> QueryRequest {
        QueryRequest::for_doc("h.xml")
            .path(Path::parse("//patient").unwrap())
            .subject(&SubjectProfile::new("doctor"))
            .clearance(Clearance(Level::Unclassified))
    }

    #[test]
    fn serve_reuses_session_and_cache() {
        let server = StackServer::new(stack());
        let first = server.serve(&doctor_request()).unwrap();
        assert_eq!(first.cache, CacheStatus::Miss);
        for _ in 0..9 {
            let again = server.serve(&doctor_request()).unwrap();
            assert_eq!(again.cache, CacheStatus::Hit);
            assert_eq!(again.xml, first.xml);
        }
        let m = server.metrics();
        assert_eq!(m.requests, 10);
        assert_eq!(m.sessions_established, 1);
        assert_eq!(m.session_reuses, 9);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 9);
        assert!(m.cache_hit_rate() > 0.89);
        assert_eq!(m.sessions_open, 1);
        assert_eq!(m.cached_views, 1);
        // Every hit is an L2 hit; the L1 counter stays at zero.
        assert_eq!(m.l1_hits, 0);
        assert_eq!(m.l2_hits, 9);
        assert_eq!(m.latency.count, 10);
        assert!(m.latency.mean_ns() > 0.0);
        assert!(m.latency.quantile_upper_ns(0.5) > 0);
    }

    #[test]
    fn update_publishes_a_new_generation_with_an_empty_view_cache() {
        let server = StackServer::new(stack());
        let before = server.serve(&doctor_request()).unwrap();
        assert!(before.xml.contains("Alice"));
        assert_eq!(server.metrics().cached_views, 1);
        let generation_before = server.published().generation;
        server.update(|s| {
            s.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                    .on(ObjectSpec::Document("h.xml".into()))
                    .privilege(Privilege::Read)
                    .deny(),
            );
        });
        assert_eq!(server.published().generation, generation_before + 1);
        assert_eq!(server.metrics().cached_views, 0, "stale views evicted");
        let after = server.serve(&doctor_request()).unwrap();
        assert_eq!(after.cache, CacheStatus::Miss, "view recomputed");
        assert!(!after.xml.contains("Alice"), "{}", after.xml);
    }

    #[test]
    fn every_read_pairs_stack_and_tables_while_updates_publish() {
        const UPDATES: u64 = 50;
        let server = StackServer::new(stack());
        let done = TrackedAtomicBool::synchronizing("test.updates_done", false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last_generation = 0;
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            let published = server.published();
                            assert_eq!(
                                published.compiled.auth_count(),
                                published.stack.policies.len(),
                                "tables of another snapshot at generation {}",
                                published.generation
                            );
                            assert!(
                                published.generation >= last_generation,
                                "generation went back from {last_generation} to {}",
                                published.generation
                            );
                            last_generation = published.generation;
                            if finished {
                                return last_generation;
                            }
                        }
                    })
                })
                .collect();
            let first_len = server.snapshot().policies.len();
            for i in 0..UPDATES {
                server.update(|s| {
                    s.policies.add(
                        Authorization::for_subject(SubjectSpec::Identity(format!("s{i}")))
                            .on(ObjectSpec::Document("h.xml".into()))
                            .privilege(Privilege::Read)
                            .deny(),
                    );
                });
            }
            assert_eq!(
                server.snapshot().policies.len(),
                first_len + UPDATES as usize
            );
            done.store(true, Ordering::Release);
            for reader in readers {
                assert_eq!(reader.join().unwrap(), UPDATES, "missed the last update");
            }
        });
    }

    #[test]
    fn a_view_from_a_replaced_snapshot_is_never_served() {
        let server = StackServer::new(stack());
        let old = server.published();
        server.update(|s| {
            s.policies.add(
                Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                    .on(ObjectSpec::Document("h.xml".into()))
                    .privilege(Privilege::Read)
                    .deny(),
            );
        });
        // A slow worker finishing a view of the replaced snapshot can only
        // fill that snapshot's cache.
        let doc = old.stack.documents.get("h.xml").unwrap();
        let stale = old
            .compiled
            .compute_view(&SubjectProfile::new("doctor"), "h.xml", doc)
            .unwrap();
        assert!(stale.to_xml_string().contains("Alice"));
        old.cache
            .insert(("doctor".into(), "h.xml".into()), Arc::new(stale));
        let served = server.serve(&doctor_request()).unwrap();
        assert_eq!(served.cache, CacheStatus::Miss);
        assert!(!served.xml.contains("Alice"), "{}", served.xml);
        assert_eq!(old.cache.len(), 1);
        assert_eq!(
            server.metrics().cached_views,
            1,
            "only the current snapshot's views count"
        );
    }

    #[test]
    fn batch_results_are_positional() {
        let server = StackServer::new(stack());
        let requests: Vec<QueryRequest> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    doctor_request()
                } else {
                    QueryRequest::for_doc("nope.xml")
                        .path(Path::parse("//x").unwrap())
                        .subject(&SubjectProfile::new("doctor"))
                }
            })
            .collect();
        let response = server.serve_batch(&BatchRequest::new(requests).workers(8));
        assert_eq!(response.results.len(), 64);
        for (i, result) in response.results.iter().enumerate() {
            if i % 2 == 0 {
                assert!(result.as_ref().unwrap().xml.contains("Alice"));
            } else {
                assert_eq!(result.as_ref().unwrap_err().code(), "WS101");
            }
        }
        assert_eq!(response.stats.admitted, 64);
        assert_eq!(response.stats.shed, 0);
        assert!(response.stats.workers <= 8);
        let m = server.metrics();
        assert_eq!(m.requests, 64);
        assert_eq!(m.allowed, 32);
        assert_eq!(m.errors, 32);
    }

    #[test]
    fn identical_batch_requests_coalesce_onto_one_evaluation() {
        let server = StackServer::new(stack());
        let requests = vec![doctor_request(); 256];
        let response = server.serve_batch(&BatchRequest::new(requests).workers(4));
        let baseline = server.serve(&doctor_request()).unwrap();
        for result in &response.results {
            assert_eq!(result.as_ref().unwrap().xml, baseline.xml);
        }
        // The serial precompute groups all 256 identical requests under one
        // leader: exactly one evaluation, 255 coalesced clones.
        assert_eq!(response.stats.coalesced, 255);
        let m = server.metrics();
        assert_eq!(m.coalesced, 255);
        // Evaluations actually run: misses + real hits + coalesced = allowed.
        assert_eq!(m.cache_hits + m.cache_misses + m.coalesced, m.allowed);
    }

    #[test]
    fn scheduler_completes_skewed_batches_and_counts_consistently() {
        let server = StackServer::new(stack());
        // 64 distinct paths, each requested twice: 64 leaders are claimed
        // and evaluated, 64 duplicates coalesce onto them.
        let requests: Vec<QueryRequest> = (0..128)
            .map(|i| {
                QueryRequest::for_doc("h.xml")
                    .path(Path::parse(&format!("//patient[@id='p{}']", i % 64)).unwrap())
                    .subject(&SubjectProfile::new("doctor"))
                    .clearance(Clearance(Level::Unclassified))
            })
            .collect();
        let response = server.serve_batch(&BatchRequest::new(requests).workers(4));
        assert_eq!(response.results.len(), 128);
        assert!(response.results.iter().all(Result::is_ok));
        assert_eq!(response.stats.coalesced, 64);
        // Every evaluation took its session from the shared table: one
        // handshake, then reuses, whichever worker claimed the request.
        let m = server.metrics();
        assert_eq!(m.sessions_established, 1);
        assert_eq!(m.sessions_established + m.session_reuses, 64);
    }

    #[test]
    fn batch_deadline_caps_every_member_request() {
        use crate::faults::{FaultKind, FaultRule};
        // Every evaluation injects a 10-tick slowdown. With a batch budget
        // of 0 ticks the first evaluation pushes the logical clock past
        // the batch deadline, so every request — even those carrying a
        // generous 100-tick budget of their own (the batch's bound is the
        // tighter one) — answers WS107.
        let server = StackServer::new(stack());
        let _ = server.install_faults(
            FaultPlan::seeded(3).rule(FaultRule::new(FaultKind::SlowEval { ticks: 10 })),
        );
        let requests: Vec<QueryRequest> = (0..6)
            .map(|i| {
                QueryRequest::for_doc("h.xml")
                    .path(Path::parse("//patient").unwrap())
                    .subject(&SubjectProfile::new(&format!("subject-{i}")))
                    .deadline_ticks(100)
            })
            .collect();
        let batch = BatchRequest::new(requests.clone())
            .workers(1)
            .deadline_ticks(0);
        let response = server.serve_batch(&batch);
        for result in &response.results {
            assert_eq!(result.as_ref().unwrap_err().code(), "WS107");
        }
        // Without the batch cap the per-request 100-tick budgets absorb
        // the same slowdowns comfortably.
        server.clear_faults();
        let _ = server.install_faults(
            FaultPlan::seeded(3).rule(FaultRule::new(FaultKind::SlowEval { ticks: 10 })),
        );
        let response = server.serve_batch(&BatchRequest::new(requests).workers(1));
        assert!(response.results.iter().all(Result::is_ok));
    }

    #[test]
    fn poisoned_session_degrades_to_ws106_and_recovers() {
        let server = StackServer::new(stack());
        server.serve(&doctor_request()).unwrap();
        // Poison the doctor's session mutex by panicking while holding it.
        let session = {
            let mut local = LocalMetrics::default();
            let stack = server.snapshot();
            server
                .sessions
                .get_or_establish(
                    "doctor",
                    &stack.session_key,
                    stack.channel_protected,
                    &mut local,
                    None,
                )
                .unwrap()
        };
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = session.lock().unwrap();
                    panic!("poison the session");
                })
                .join()
        });
        let err = server.serve(&doctor_request()).unwrap_err();
        assert_eq!(err.code(), "WS106");
        assert!(err.to_string().contains("WS106"));
        // The poisoned session was evicted: the next request re-establishes
        // a clean one and succeeds.
        let recovered = server.serve(&doctor_request()).unwrap();
        assert!(recovered.xml.contains("Alice"));
        let m = server.metrics();
        assert_eq!(m.errors, 1);
        assert!(m.sessions_established >= 2);
    }

    #[test]
    fn per_shard_stats_cover_all_shards() {
        let server = StackServer::with_shards(stack(), 8);
        assert_eq!(server.shard_count(), 8);
        for i in 0..32 {
            let request = QueryRequest::for_doc("h.xml")
                .path(Path::parse("//patient").unwrap())
                .subject(&SubjectProfile::new(&format!("subject-{i}")))
                .clearance(Clearance(Level::Unclassified));
            let _ = server.serve(&request);
        }
        let m = server.metrics();
        assert_eq!(m.per_shard.len(), 8);
        assert_eq!(m.per_shard.iter().map(|s| s.sessions_open).sum::<u64>(), 32);
        let used = m.per_shard.iter().filter(|s| s.sessions_open > 0).count();
        assert!(used > 2, "identities clumped into {used} shards");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(StackServer::with_shards(stack(), 3).shard_count(), 4);
        assert_eq!(StackServer::with_shards(stack(), 0).shard_count(), 1);
        assert_eq!(StackServer::with_shards(stack(), 16).shard_count(), 16);
    }

    /// A plan over `n` distinct requests: every position is scheduled.
    fn distinct_plan(n: usize) -> CoalescePlan {
        let requests: Vec<QueryRequest> = (0..n)
            .map(|i| {
                QueryRequest::for_doc("h.xml")
                    .path(Path::parse(&format!("//patient[@id='p{i}']")).unwrap())
                    .subject(&SubjectProfile::new("doctor"))
            })
            .collect();
        CoalescePlan::new(&requests, n)
    }

    #[test]
    fn single_worker_drains_in_submission_order() {
        let plan = distinct_plan(500);
        let claimed: Vec<usize> = std::iter::from_fn(|| plan.claim()).collect();
        assert_eq!(claimed, (0..500).collect::<Vec<_>>());
        assert_eq!(plan.claim(), None, "a drained cursor stays drained");
    }

    #[test]
    fn claim_storm_takes_every_index_exactly_once() {
        for _ in 0..50 {
            let plan = distinct_plan(64);
            let mut claimed: Vec<usize> = std::thread::scope(|scope| {
                let claimers: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| std::iter::from_fn(|| plan.claim()).collect::<Vec<_>>())
                    })
                    .collect();
                claimers
                    .into_iter()
                    .flat_map(|claimer| claimer.join().unwrap())
                    .collect()
            });
            claimed.sort_unstable();
            let expected: Vec<usize> = (0..64).collect();
            assert_eq!(claimed, expected, "an index was lost or double-claimed");
        }
    }
}
