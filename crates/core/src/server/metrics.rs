//! Serving metrics: per-worker local accounting, the lock-free cumulative
//! store, and the `#[non_exhaustive]` snapshot returned to callers.
//!
//! The metrics pipeline is deliberately contention-free:
//!
//! * every batch worker accumulates into a plain-`u64` [`LocalMetrics`]
//!   (no shared cache lines while requests are in flight),
//! * workers flush once into the atomic [`MetricsInner`] when their queue
//!   drains ([`MetricsInner::absorb`]),
//! * callers read a [`MetricsSnapshot`] — a `#[non_exhaustive]` value
//!   struct, so counters (such as the per-shard [`ShardStats`]) can be
//!   added without a breaking change.

use std::sync::atomic::Ordering;

use crate::error::Error;
use crate::sync::TrackedAtomicU64;
use crate::request::{CacheStatus, Decision, QueryResponse};
use crate::stack::LayerTimings;

/// Number of log₂ latency buckets (bucket `i` covers `[2^i, 2^{i+1})` ns;
/// 40 buckets span ~18 minutes, far beyond any sane request).
pub(crate) const LATENCY_BUCKETS: usize = 40;

/// A snapshot of the server's cumulative latency distribution.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts requests whose total latency fell in
    /// `[2^i, 2^{i+1})` nanoseconds.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total recorded requests.
    pub count: u64,
    /// Sum of recorded latencies in nanoseconds.
    pub sum_ns: u64,
}

impl LatencyHistogram {
    /// Mean latency in nanoseconds (0 when nothing was recorded).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive, in ns) of the bucket containing quantile `q`
    /// (e.g. `0.5`, `0.99`). Returns 0 when nothing was recorded.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Point-in-time statistics for one shard of the session table and the L2
/// view cache (shard `i` of both structures covers the same identity-hash
/// slice).
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Sessions resident in this shard of the session table.
    pub sessions_open: u64,
    /// Contended acquisitions of this shard's session-table lock (the
    /// acquiring thread found it held and had to block).
    pub session_lock_waits: u64,
    /// Contended acquisitions of this shard's L2 view-cache lock.
    pub cache_lock_waits: u64,
    /// L2 view-cache hits served from this shard.
    pub l2_hits: u64,
    /// L2 view-cache misses (view computed and inserted) in this shard.
    pub l2_misses: u64,
    /// Views currently cached in this shard (current token only).
    pub cached_views: u64,
}

/// Per-batch scheduler statistics, returned inside a [`BatchResponse`].
///
/// `#[non_exhaustive]`: constructed only by the serving layer, so future
/// PRs can add counters without breaking downstream struct literals.
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Workers the scheduler actually ran (the requested count, shrunk
    /// when admission control leaves fewer requests than workers).
    pub workers: usize,
    /// Requests admitted past the queue-capacity check.
    pub admitted: usize,
    /// Requests answered `WS108` by admission control (positions at the
    /// tail of the batch; no work was started for them).
    pub shed: usize,
    /// Requests answered by coalescing onto an identical in-batch leader's
    /// evaluation.
    pub coalesced: u64,
    /// Always 0: batch workers claim from one shared cursor and never
    /// steal. Kept only because the `wsbench` harness still reads it;
    /// removed with the next benchmark change.
    pub steals: u64,
    /// Always 0: there is no overflow injector behind the claim cursor.
    /// Kept only because the `wsbench` harness still reads it; removed
    /// with the next benchmark change.
    pub injector_pops: u64,
}

/// The answer to a [`crate::request::BatchRequest`]: positional results
/// (index `i` answers request `i`) plus the batch's scheduler statistics.
///
/// `#[non_exhaustive]`: constructed only by
/// [`crate::server::StackServer::serve_batch`], so later PRs can attach
/// more per-batch data without a breaking change.
#[non_exhaustive]
#[derive(Debug)]
pub struct BatchResponse {
    /// Per-request outcomes, index-aligned with the submitted batch.
    pub results: Vec<Result<QueryResponse, Error>>,
    /// Scheduler-level statistics for this batch alone (the cumulative
    /// server totals live in [`MetricsSnapshot`]).
    pub stats: BatchStats,
}

/// Cumulative serving statistics, reported by
/// [`crate::server::StackServer::metrics`].
///
/// `#[non_exhaustive]`: constructed only by the serving layer, so future
/// PRs can add counters without breaking downstream pattern matches or
/// struct literals.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Total requests received (including failures).
    pub requests: u64,
    /// Requests answered with a view (possibly empty).
    pub allowed: u64,
    /// Requests refused by the RDF label layer (`WS102`).
    pub denied: u64,
    /// Requests failing for any other reason (unknown document, channel,
    /// malformed request, poisoned shard).
    pub errors: u64,
    /// Requests that ran the full policy evaluation.
    pub enforced: u64,
    /// Requests admitted unchecked by the flexible gate (the measured
    /// exposure at reduced enforcement levels).
    pub admitted_unchecked: u64,
    /// Policy-view cache hits (every one served by the L2 cache).
    pub cache_hits: u64,
    /// Policy-view cache misses (view computed and inserted).
    pub cache_misses: u64,
    /// Always 0: there is no worker-local view cache, so every hit is an
    /// L2 hit. Kept only because the `wsbench` harness still reads it;
    /// removed with the next benchmark change.
    pub l1_hits: u64,
    /// Hits served by the sharded L2 view cache (one shard lock).
    pub l2_hits: u64,
    /// Batch requests answered by coalescing onto an identical in-batch
    /// request's evaluation (singleflight).
    pub coalesced: u64,
    /// Requests whose evaluation panicked (each answered with `WS106`
    /// instead of propagating the panic).
    pub worker_panics: u64,
    /// Requests answered `WS107` because their logical-tick deadline
    /// budget was exhausted (at queue-pop or immediately before eval).
    pub deadline_exceeded: u64,
    /// Requests answered `WS108` by admission control before any work
    /// started (batch exceeded the configured queue capacity).
    pub shed: u64,
    /// Retry attempts performed by
    /// [`crate::server::StackServer::serve_with_retry`] (each advanced the
    /// logical clock by its backoff).
    pub retries: u64,
    /// Faults fired by the installed [`crate::faults::FaultPlan`] (0 unless
    /// a plan is armed; one request can absorb several).
    pub faults_injected: u64,
    /// Channel sessions established (one handshake each).
    pub sessions_established: u64,
    /// Requests that reused an existing session (handshakes avoided).
    pub session_reuses: u64,
    /// Sessions currently resident across all shards.
    pub sessions_open: u64,
    /// Views currently cached in the L2 cache across all shards.
    pub cached_views: u64,
    /// Contended session-shard lock acquisitions across all shards.
    pub session_lock_waits: u64,
    /// Contended L2 cache-shard lock acquisitions across all shards.
    pub cache_lock_waits: u64,
    /// Analyzer passes actually executed across all
    /// [`crate::server::StackServer::analyze`] calls.
    pub analysis_passes_run: u64,
    /// Analyzer passes answered from the incremental cache (unchanged
    /// token or unchanged input sections).
    pub analysis_passes_reused: u64,
    /// Error-severity findings in the most recent cached analysis report
    /// (0 until the first analyze).
    pub analysis_errors: u64,
    /// Warning-severity findings in the most recent cached analysis report.
    pub analysis_warnings: u64,
    /// Updates rejected by [`crate::server::AnalysisGate::Deny`] with
    /// `WS109`.
    pub gate_denials: u64,
    /// Policy-verifier passes (WS013–WS018) actually executed across all
    /// [`crate::server::StackServer::verify_policies`] calls.
    pub policy_passes_run: u64,
    /// Policy-verifier passes answered from the incremental cache
    /// (unchanged token or unchanged policy/document sections).
    pub policy_passes_reused: u64,
    /// Error-severity findings in the most recent cached policy-verifier
    /// report (0 until the first verify).
    pub policy_errors: u64,
    /// Warning-severity findings in the most recent cached policy-verifier
    /// report.
    pub policy_warnings: u64,
    /// Views built by the snapshot-compiled decision tables
    /// ([`websec_policy::CompiledPolicies`]): every L2 miss is answered
    /// from them, so this always equals `cache_misses`.
    pub compiled_hits: u64,
    /// Total nanoseconds spent inside the compiled decision tables across
    /// all requests (an attribution within `layer_totals.xml_ns`).
    pub compile_ns: u64,
    /// Policy compilations performed at snapshot publication: one at
    /// construction plus one per committed update.
    /// [`crate::server::StackServer::invalidate_views`] reuses the current
    /// artifact and does not recompile.
    pub snapshot_compiles: u64,
    /// Total nanoseconds spent compiling snapshots (publication-time cost,
    /// never paid on a request path).
    pub snapshot_compile_ns: u64,
    /// Cumulative per-layer time across all successful requests.
    pub layer_totals: LayerTimings,
    /// Distribution of total request latency.
    pub latency: LatencyHistogram,
    /// Per-shard breakdown of the contention and cache counters.
    pub per_shard: Vec<ShardStats>,
}

impl MetricsSnapshot {
    /// Cache hits over cache-eligible (enforced) view lookups.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The counter movement between an `earlier` snapshot of the same
    /// server and this one: every monotonic counter (requests, cache
    /// tallies, coalescing, fault/shed/retry counts, per-layer and
    /// latency time) is subtracted pairwise, so callers measuring one
    /// batch no longer hand-subtract individual fields. Saturating — a
    /// snapshot from a *different* server yields zeros, not wrap-around
    /// garbage. Gauges that describe current state rather than
    /// accumulation (`sessions_open`, `cached_views`, `per_shard`) keep
    /// this snapshot's values.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = self.clone();
        d.requests = self.requests.saturating_sub(earlier.requests);
        d.allowed = self.allowed.saturating_sub(earlier.allowed);
        d.denied = self.denied.saturating_sub(earlier.denied);
        d.errors = self.errors.saturating_sub(earlier.errors);
        d.enforced = self.enforced.saturating_sub(earlier.enforced);
        d.admitted_unchecked = self.admitted_unchecked.saturating_sub(earlier.admitted_unchecked);
        d.cache_hits = self.cache_hits.saturating_sub(earlier.cache_hits);
        d.cache_misses = self.cache_misses.saturating_sub(earlier.cache_misses);
        d.l2_hits = self.l2_hits.saturating_sub(earlier.l2_hits);
        d.coalesced = self.coalesced.saturating_sub(earlier.coalesced);
        d.worker_panics = self.worker_panics.saturating_sub(earlier.worker_panics);
        d.deadline_exceeded = self.deadline_exceeded.saturating_sub(earlier.deadline_exceeded);
        d.shed = self.shed.saturating_sub(earlier.shed);
        d.retries = self.retries.saturating_sub(earlier.retries);
        d.faults_injected = self.faults_injected.saturating_sub(earlier.faults_injected);
        d.sessions_established =
            self.sessions_established.saturating_sub(earlier.sessions_established);
        d.session_reuses = self.session_reuses.saturating_sub(earlier.session_reuses);
        d.session_lock_waits = self.session_lock_waits.saturating_sub(earlier.session_lock_waits);
        d.cache_lock_waits = self.cache_lock_waits.saturating_sub(earlier.cache_lock_waits);
        d.analysis_passes_run =
            self.analysis_passes_run.saturating_sub(earlier.analysis_passes_run);
        d.analysis_passes_reused =
            self.analysis_passes_reused.saturating_sub(earlier.analysis_passes_reused);
        d.analysis_errors = self.analysis_errors.saturating_sub(earlier.analysis_errors);
        d.analysis_warnings = self.analysis_warnings.saturating_sub(earlier.analysis_warnings);
        d.gate_denials = self.gate_denials.saturating_sub(earlier.gate_denials);
        d.policy_passes_run = self.policy_passes_run.saturating_sub(earlier.policy_passes_run);
        d.policy_passes_reused =
            self.policy_passes_reused.saturating_sub(earlier.policy_passes_reused);
        d.policy_errors = self.policy_errors.saturating_sub(earlier.policy_errors);
        d.policy_warnings = self.policy_warnings.saturating_sub(earlier.policy_warnings);
        d.compiled_hits = self.compiled_hits.saturating_sub(earlier.compiled_hits);
        d.compile_ns = self.compile_ns.saturating_sub(earlier.compile_ns);
        d.snapshot_compiles = self.snapshot_compiles.saturating_sub(earlier.snapshot_compiles);
        d.snapshot_compile_ns =
            self.snapshot_compile_ns.saturating_sub(earlier.snapshot_compile_ns);
        d.layer_totals = LayerTimings {
            channel_ns: self.layer_totals.channel_ns.saturating_sub(earlier.layer_totals.channel_ns),
            rdf_ns: self.layer_totals.rdf_ns.saturating_sub(earlier.layer_totals.rdf_ns),
            xml_ns: self.layer_totals.xml_ns.saturating_sub(earlier.layer_totals.xml_ns),
            gate_ns: self.layer_totals.gate_ns.saturating_sub(earlier.layer_totals.gate_ns),
            compile_ns: self.layer_totals.compile_ns.saturating_sub(earlier.layer_totals.compile_ns),
        };
        let mut buckets = self.latency.buckets;
        for (slot, prior) in buckets.iter_mut().zip(earlier.latency.buckets.iter()) {
            *slot = slot.saturating_sub(*prior);
        }
        d.latency = LatencyHistogram {
            buckets,
            count: self.latency.count.saturating_sub(earlier.latency.count),
            sum_ns: self.latency.sum_ns.saturating_sub(earlier.latency.sum_ns),
        };
        d
    }

    /// Fraction of gated requests admitted without checking (mirrors
    /// [`websec_policy::FlexibleEnforcer::exposure`] but aggregated across
    /// the server's immutable snapshot).
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

/// Per-worker metric accumulator: plain integers, owned by one thread, so
/// recording a request outcome touches no shared cache line. Flushed into
/// [`MetricsInner`] once per batch (or per request on the single-request
/// [`crate::server::StackServer::serve`] path).
#[derive(Debug)]
pub(crate) struct LocalMetrics {
    pub requests: u64,
    pub allowed: u64,
    pub denied: u64,
    pub errors: u64,
    pub enforced: u64,
    pub admitted_unchecked: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub worker_panics: u64,
    pub deadline_exceeded: u64,
    pub shed: u64,
    pub retries: u64,
    pub faults_injected: u64,
    pub sessions_established: u64,
    pub session_reuses: u64,
    pub channel_ns: u64,
    pub rdf_ns: u64,
    pub xml_ns: u64,
    pub gate_ns: u64,
    pub compile_ns: u64,
    pub latency_sum_ns: u64,
    pub latency_count: u64,
    pub latency: [u64; LATENCY_BUCKETS],
    /// Per-L2-shard hit tallies, indexed by shard, lazily sized. Folded
    /// into the shard counters once per worker by
    /// [`crate::server::StackServer`]'s `absorb_local` instead of one
    /// shared-cacheline RMW per request on the lookup path.
    pub l2_shard_hits: Vec<u64>,
    /// Per-L2-shard miss tallies (same flush discipline as the hits).
    pub l2_shard_misses: Vec<u64>,
}

impl Default for LocalMetrics {
    fn default() -> Self {
        LocalMetrics {
            requests: 0,
            allowed: 0,
            denied: 0,
            errors: 0,
            enforced: 0,
            admitted_unchecked: 0,
            cache_hits: 0,
            cache_misses: 0,
            coalesced: 0,
            worker_panics: 0,
            deadline_exceeded: 0,
            shed: 0,
            retries: 0,
            faults_injected: 0,
            sessions_established: 0,
            session_reuses: 0,
            channel_ns: 0,
            rdf_ns: 0,
            xml_ns: 0,
            gate_ns: 0,
            compile_ns: 0,
            latency_sum_ns: 0,
            latency_count: 0,
            latency: [0; LATENCY_BUCKETS],
            l2_shard_hits: Vec::new(),
            l2_shard_misses: Vec::new(),
        }
    }
}

impl LocalMetrics {
    /// Tallies one L2 hit against `shard` locally (flushed to the shard's
    /// atomic counter once per worker, not once per request).
    pub fn bump_l2_shard_hit(&mut self, shard: usize) {
        if self.l2_shard_hits.len() <= shard {
            self.l2_shard_hits.resize(shard + 1, 0);
        }
        self.l2_shard_hits[shard] += 1;
    }

    /// Tallies one L2 miss against `shard` locally.
    pub fn bump_l2_shard_miss(&mut self, shard: usize) {
        if self.l2_shard_misses.len() <= shard {
            self.l2_shard_misses.resize(shard + 1, 0);
        }
        self.l2_shard_misses[shard] += 1;
    }

    fn record_latency(&mut self, total_ns: u128) {
        let ns = u64::try_from(total_ns).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket] += 1;
        self.latency_sum_ns = self.latency_sum_ns.saturating_add(ns);
        self.latency_count += 1;
    }

    /// Accounts one request outcome (coalesced responses count as requests
    /// too: every position in a batch is a served request).
    pub fn record_outcome(&mut self, result: &Result<QueryResponse, Error>) {
        self.requests += 1;
        match result {
            Ok(response) => {
                self.allowed += 1;
                match response.decision {
                    Decision::Enforced => self.enforced += 1,
                    Decision::AdmittedUnchecked => self.admitted_unchecked += 1,
                }
                match response.cache {
                    CacheStatus::Hit => self.cache_hits += 1,
                    CacheStatus::Miss => self.cache_misses += 1,
                    CacheStatus::Coalesced => self.coalesced += 1,
                    _ => {}
                }
                let t = &response.timings;
                let add = |a: &mut u64, v: u128| {
                    *a = a.saturating_add(u64::try_from(v).unwrap_or(u64::MAX));
                };
                add(&mut self.channel_ns, t.channel_ns);
                add(&mut self.rdf_ns, t.rdf_ns);
                add(&mut self.xml_ns, t.xml_ns);
                add(&mut self.gate_ns, t.gate_ns);
                add(&mut self.compile_ns, t.compile_ns);
                self.record_latency(t.total_ns());
            }
            Err(Error::ClearanceViolation) => {
                self.denied += 1;
                // A denial is the *result* of full enforcement.
                self.enforced += 1;
            }
            Err(Error::DeadlineExceeded(_)) => {
                self.errors += 1;
                self.deadline_exceeded += 1;
            }
            Err(Error::Overloaded(_)) => {
                self.errors += 1;
                self.shed += 1;
            }
            Err(_) => {
                self.errors += 1;
            }
        }
    }
}

/// Lock-free cumulative counters (the mutable twin of [`MetricsSnapshot`]).
pub(crate) struct MetricsInner {
    requests: TrackedAtomicU64,
    allowed: TrackedAtomicU64,
    denied: TrackedAtomicU64,
    errors: TrackedAtomicU64,
    enforced: TrackedAtomicU64,
    admitted_unchecked: TrackedAtomicU64,
    cache_hits: TrackedAtomicU64,
    cache_misses: TrackedAtomicU64,
    coalesced: TrackedAtomicU64,
    worker_panics: TrackedAtomicU64,
    deadline_exceeded: TrackedAtomicU64,
    shed: TrackedAtomicU64,
    retries: TrackedAtomicU64,
    faults_injected: TrackedAtomicU64,
    sessions_established: TrackedAtomicU64,
    session_reuses: TrackedAtomicU64,
    channel_ns: TrackedAtomicU64,
    rdf_ns: TrackedAtomicU64,
    xml_ns: TrackedAtomicU64,
    gate_ns: TrackedAtomicU64,
    compile_ns: TrackedAtomicU64,
    latency_sum_ns: TrackedAtomicU64,
    latency_count: TrackedAtomicU64,
    latency: [TrackedAtomicU64; LATENCY_BUCKETS],
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            requests: TrackedAtomicU64::counter("server.metrics.requests", 0),
            allowed: TrackedAtomicU64::counter("server.metrics.allowed", 0),
            denied: TrackedAtomicU64::counter("server.metrics.denied", 0),
            errors: TrackedAtomicU64::counter("server.metrics.errors", 0),
            enforced: TrackedAtomicU64::counter("server.metrics.enforced", 0),
            admitted_unchecked: TrackedAtomicU64::counter("server.metrics.admitted_unchecked", 0),
            cache_hits: TrackedAtomicU64::counter("server.metrics.cache_hits", 0),
            cache_misses: TrackedAtomicU64::counter("server.metrics.cache_misses", 0),
            coalesced: TrackedAtomicU64::counter("server.metrics.coalesced", 0),
            worker_panics: TrackedAtomicU64::counter("server.metrics.worker_panics", 0),
            deadline_exceeded: TrackedAtomicU64::counter("server.metrics.deadline_exceeded", 0),
            shed: TrackedAtomicU64::counter("server.metrics.shed", 0),
            retries: TrackedAtomicU64::counter("server.metrics.retries", 0),
            faults_injected: TrackedAtomicU64::counter("server.metrics.faults_injected", 0),
            sessions_established: TrackedAtomicU64::counter("server.metrics.sessions_established", 0),
            session_reuses: TrackedAtomicU64::counter("server.metrics.session_reuses", 0),
            channel_ns: TrackedAtomicU64::counter("server.metrics.channel_ns", 0),
            rdf_ns: TrackedAtomicU64::counter("server.metrics.rdf_ns", 0),
            xml_ns: TrackedAtomicU64::counter("server.metrics.xml_ns", 0),
            gate_ns: TrackedAtomicU64::counter("server.metrics.gate_ns", 0),
            compile_ns: TrackedAtomicU64::counter("server.metrics.compile_ns", 0),
            latency_sum_ns: TrackedAtomicU64::counter("server.metrics.latency_sum_ns", 0),
            latency_count: TrackedAtomicU64::counter("server.metrics.latency_count", 0),
            latency: std::array::from_fn(|_| {
                TrackedAtomicU64::counter("server.metrics.latency", 0)
            }),
        }
    }
}

impl MetricsInner {
    /// Folds a worker's local accumulator into the cumulative store.
    pub fn absorb(&self, local: &LocalMetrics) {
        let add = |a: &TrackedAtomicU64, v: u64| {
            if v != 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        };
        add(&self.requests, local.requests);
        add(&self.allowed, local.allowed);
        add(&self.denied, local.denied);
        add(&self.errors, local.errors);
        add(&self.enforced, local.enforced);
        add(&self.admitted_unchecked, local.admitted_unchecked);
        add(&self.cache_hits, local.cache_hits);
        add(&self.cache_misses, local.cache_misses);
        add(&self.coalesced, local.coalesced);
        add(&self.worker_panics, local.worker_panics);
        add(&self.deadline_exceeded, local.deadline_exceeded);
        add(&self.shed, local.shed);
        add(&self.retries, local.retries);
        add(&self.faults_injected, local.faults_injected);
        add(&self.sessions_established, local.sessions_established);
        add(&self.session_reuses, local.session_reuses);
        add(&self.channel_ns, local.channel_ns);
        add(&self.rdf_ns, local.rdf_ns);
        add(&self.xml_ns, local.xml_ns);
        add(&self.gate_ns, local.gate_ns);
        add(&self.compile_ns, local.compile_ns);
        add(&self.latency_sum_ns, local.latency_sum_ns);
        add(&self.latency_count, local.latency_count);
        for (slot, &v) in self.latency.iter().zip(local.latency.iter()) {
            add(slot, v);
        }
    }

    /// Materializes the snapshot; shard-level counters (and the L2 hit
    /// total, which lives in the cache shards) are supplied by the caller.
    pub fn snapshot(&self, per_shard: Vec<ShardStats>) -> MetricsSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, counter) in buckets.iter_mut().zip(self.latency.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        let sum = |f: fn(&ShardStats) -> u64| per_shard.iter().map(f).sum::<u64>();
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            allowed: self.allowed.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            enforced: self.enforced.load(Ordering::Relaxed),
            admitted_unchecked: self.admitted_unchecked.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses,
            l1_hits: 0,
            l2_hits: sum(|s| s.l2_hits),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            // Monotonic totals; a snapshot read needs no stronger order.
            shed: self.shed.load(Ordering::Relaxed), // lint:allow(relaxed-counter)
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed), // lint:allow(relaxed-counter)
            sessions_established: self.sessions_established.load(Ordering::Relaxed),
            session_reuses: self.session_reuses.load(Ordering::Relaxed),
            sessions_open: sum(|s| s.sessions_open),
            cached_views: sum(|s| s.cached_views),
            session_lock_waits: sum(|s| s.session_lock_waits),
            cache_lock_waits: sum(|s| s.cache_lock_waits),
            // Overwritten by `StackServer::metrics`, which owns the
            // analysis cache, gate, and snapshot-compile counters.
            analysis_passes_run: 0,
            analysis_passes_reused: 0,
            analysis_errors: 0,
            analysis_warnings: 0,
            gate_denials: 0,
            policy_passes_run: 0,
            policy_passes_reused: 0,
            policy_errors: 0,
            policy_warnings: 0,
            snapshot_compiles: 0,
            snapshot_compile_ns: 0,
            compiled_hits: cache_misses,
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
            layer_totals: LayerTimings {
                channel_ns: u128::from(self.channel_ns.load(Ordering::Relaxed)),
                rdf_ns: u128::from(self.rdf_ns.load(Ordering::Relaxed)),
                xml_ns: u128::from(self.xml_ns.load(Ordering::Relaxed)),
                gate_ns: u128::from(self.gate_ns.load(Ordering::Relaxed)),
                compile_ns: u128::from(self.compile_ns.load(Ordering::Relaxed)),
            },
            latency: LatencyHistogram {
                buckets,
                count: self.latency_count.load(Ordering::Relaxed),
                sum_ns: self.latency_sum_ns.load(Ordering::Relaxed),
            },
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CacheStatus, Decision};

    fn ok_response(cache: CacheStatus) -> Result<QueryResponse, Error> {
        Ok(QueryResponse {
            xml: String::new(),
            decision: Decision::Enforced,
            cache,
            timings: LayerTimings {
                channel_ns: 10,
                rdf_ns: 20,
                xml_ns: 30,
                gate_ns: 40,
                compile_ns: 7,
            },
        })
    }

    #[test]
    fn local_metrics_roundtrip_through_absorb() {
        let mut local = LocalMetrics::default();
        local.record_outcome(&ok_response(CacheStatus::Hit));
        local.record_outcome(&ok_response(CacheStatus::Miss));
        local.record_outcome(&ok_response(CacheStatus::Coalesced));
        local.record_outcome(&Err(Error::ClearanceViolation));
        local.record_outcome(&Err(Error::UnknownDocument("d".into())));
        local.record_outcome(&Err(Error::DeadlineExceeded("budget".into())));
        local.record_outcome(&Err(Error::Overloaded("queue full".into())));
        local.bump_l2_shard_hit(2);
        local.bump_l2_shard_miss(0);
        assert_eq!(local.l2_shard_hits, vec![0, 0, 1], "lazy shard sizing");
        assert_eq!(local.l2_shard_misses, vec![1]);

        let inner = MetricsInner::default();
        inner.absorb(&local);
        let snap = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 3,
            session_lock_waits: 1,
            cache_lock_waits: 2,
            l2_hits: 7,
            l2_misses: 1,
            cached_views: 4,
        }]);
        assert_eq!(snap.requests, 7);
        assert_eq!(snap.allowed, 3);
        assert_eq!(snap.denied, 1);
        assert_eq!(snap.errors, 3);
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.l1_hits, 0);
        assert_eq!(snap.l2_hits, 7);
        assert_eq!(snap.sessions_open, 3);
        assert_eq!(snap.cached_views, 4);
        assert_eq!(snap.session_lock_waits, 1);
        assert_eq!(snap.cache_lock_waits, 2);
        assert_eq!(snap.latency.count, 3);
        assert_eq!(snap.layer_totals.total_ns(), 300, "compile_ns attributes, not adds");
        assert_eq!(snap.compiled_hits, 1, "only the Miss built a view");
        assert_eq!(snap.compile_ns, 21);
        assert_eq!(snap.layer_totals.compile_ns, 21);
        assert!(snap.cache_hit_rate() > 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut local = LocalMetrics::default();
        for _ in 0..100 {
            local.record_outcome(&ok_response(CacheStatus::Hit));
        }
        let inner = MetricsInner::default();
        inner.absorb(&local);
        let snap = inner.snapshot(Vec::new());
        assert_eq!(snap.latency.count, 100);
        assert!(snap.latency.mean_ns() > 0.0);
        assert!(snap.latency.quantile_upper_ns(0.5) >= 128);
        assert_eq!(snap.latency.quantile_upper_ns(0.99), 128);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let inner = MetricsInner::default();
        let mut warm = LocalMetrics::default();
        warm.record_outcome(&ok_response(CacheStatus::Hit));
        warm.record_outcome(&ok_response(CacheStatus::Coalesced));
        inner.absorb(&warm);
        let earlier = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 1,
            session_lock_waits: 0,
            cache_lock_waits: 0,
            l2_hits: 0,
            l2_misses: 0,
            cached_views: 2,
        }]);

        let mut batch = LocalMetrics::default();
        batch.record_outcome(&ok_response(CacheStatus::Miss));
        batch.record_outcome(&ok_response(CacheStatus::Coalesced));
        batch.record_outcome(&Err(Error::ClearanceViolation));
        inner.absorb(&batch);
        let later = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 4,
            session_lock_waits: 0,
            cache_lock_waits: 0,
            l2_hits: 0,
            l2_misses: 0,
            cached_views: 5,
        }]);

        let d = later.delta(&earlier);
        assert_eq!(d.requests, 3);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.coalesced, 1);
        assert_eq!(d.denied, 1);
        assert_eq!(d.latency.count, 2, "errors don't reach the histogram");
        assert_eq!(d.layer_totals.total_ns(), 200);
        // Gauges reflect the later snapshot, not a nonsensical difference.
        assert_eq!(d.sessions_open, 4);
        assert_eq!(d.cached_views, 5);
        // Different-server misuse saturates to zero instead of wrapping.
        assert_eq!(earlier.delta(&later).requests, 0);
    }

    #[test]
    fn delta_saturates_on_counter_reset() {
        // A server restart (fresh MetricsInner) resets every cumulative
        // counter; a delta computed across the reset must saturate to 0
        // everywhere, never wrap to huge u64 values.
        let before_restart = {
            let inner = MetricsInner::default();
            let mut local = LocalMetrics::default();
            for _ in 0..10 {
                local.record_outcome(&ok_response(CacheStatus::Hit));
            }
            inner.absorb(&local);
            inner.snapshot(Vec::new())
        };
        let after_restart = {
            let inner = MetricsInner::default();
            let mut local = LocalMetrics::default();
            local.record_outcome(&ok_response(CacheStatus::Miss));
            inner.absorb(&local);
            inner.snapshot(Vec::new())
        };
        assert!(after_restart.requests < before_restart.requests);
        let d = after_restart.delta(&before_restart);
        assert_eq!(d.requests, 0);
        assert_eq!(d.allowed, 0);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(d.latency.count, 0);
        assert_eq!(d.latency.sum_ns, 0);
        assert!(d.latency.buckets.iter().all(|&b| b == 0));
        assert_eq!(d.layer_totals.total_ns(), 0);
        // The one direction that did move still reads correctly.
        assert_eq!(d.cache_misses, 1);
    }

    #[test]
    fn delta_against_empty_snapshot_is_identity_on_counters() {
        let empty = MetricsInner::default().snapshot(Vec::new());
        assert_eq!(empty.requests, 0);
        assert_eq!(empty.latency.count, 0);
        assert_eq!(empty.latency.mean_ns(), 0.0);
        assert_eq!(empty.latency.quantile_upper_ns(0.99), 0);

        let inner = MetricsInner::default();
        let mut local = LocalMetrics::default();
        local.record_outcome(&ok_response(CacheStatus::Hit));
        local.record_outcome(&Err(Error::ClearanceViolation));
        inner.absorb(&local);
        let populated = inner.snapshot(Vec::new());

        // populated - empty leaves every counter untouched...
        let d = populated.delta(&empty);
        assert_eq!(d.requests, populated.requests);
        assert_eq!(d.denied, populated.denied);
        assert_eq!(d.enforced, populated.enforced);
        assert_eq!(d.latency.count, populated.latency.count);
        assert_eq!(d.latency.sum_ns, populated.latency.sum_ns);
        assert_eq!(d.layer_totals.total_ns(), populated.layer_totals.total_ns());
        // ...empty - populated saturates, and empty - empty is still empty.
        assert_eq!(empty.delta(&populated).requests, 0);
        assert_eq!(empty.delta(&empty).requests, 0);
    }

    #[test]
    fn delta_keeps_later_gauges_even_when_they_shrink() {
        // Gauges (current state, not accumulation) always read from the
        // *later* snapshot — including when the value went down, where a
        // subtraction would report nonsense.
        let inner = MetricsInner::default();
        let earlier = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 9,
            session_lock_waits: 0,
            cache_lock_waits: 0,
            l2_hits: 0,
            l2_misses: 0,
            cached_views: 12,
        }]);
        let later = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 2,
            session_lock_waits: 0,
            cache_lock_waits: 0,
            l2_hits: 0,
            l2_misses: 0,
            cached_views: 3,
        }]);
        let d = later.delta(&earlier);
        assert_eq!(d.sessions_open, 2, "gauge keeps the later value");
        assert_eq!(d.cached_views, 3);
        assert_eq!(d.per_shard.len(), 1, "per-shard breakdown is a gauge too");
        assert_eq!(d.per_shard[0].sessions_open, 2);
        // The finding tallies are subtracted like every other counter, so
        // a report that *improved* (fewer findings) saturates to 0 rather
        // than underflowing.
        let mut later2 = later.clone();
        let mut earlier2 = earlier.clone();
        earlier2.analysis_errors = 4;
        earlier2.policy_warnings = 6;
        later2.analysis_errors = 1;
        later2.policy_warnings = 2;
        let d2 = later2.delta(&earlier2);
        assert_eq!(d2.analysis_errors, 0, "saturating counter semantics");
        assert_eq!(d2.policy_warnings, 0);
    }

    #[test]
    fn delta_covers_the_policy_verifier_counters() {
        let inner = MetricsInner::default();
        let mut earlier = inner.snapshot(Vec::new());
        earlier.policy_passes_run = 6;
        earlier.policy_passes_reused = 0;
        let mut later = inner.snapshot(Vec::new());
        later.policy_passes_run = 6;
        later.policy_passes_reused = 12;
        let d = later.delta(&earlier);
        assert_eq!(d.policy_passes_run, 0, "no fresh pass executions");
        assert_eq!(d.policy_passes_reused, 12);
    }
}
