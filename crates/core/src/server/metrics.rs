//! Serving metrics: per-worker local accounting, the lock-free cumulative
//! store, and the `#[non_exhaustive]` snapshot returned to callers.
//!
//! Every cumulative counter is declared once, as a [`Counter`]. A counter
//! indexes the plain array of a [`LocalMetrics`] and the atomic array of
//! [`MetricsInner`], and one mapping ([`MetricsSnapshot::cumulative`])
//! names the public field it fills, for [`MetricsInner::snapshot`] and
//! [`MetricsSnapshot::delta`] alike.
//!
//! The metrics pipeline is deliberately contention-free:
//!
//! * every request path accumulates into a plain-`u64` [`LocalMetrics`]
//!   (no shared cache lines while requests are in flight),
//! * a batch worker's accumulator is flushed once into the atomic
//!   [`MetricsInner`] when the batch joins the worker, and a single
//!   request's once when it is answered ([`MetricsInner::absorb`]);
//!   statistics kept off the request path (analysis passes, gate denials,
//!   snapshot compiles) are added to [`MetricsInner`] directly,
//! * callers read a [`MetricsSnapshot`] — a `#[non_exhaustive]` value
//!   struct, so counters (such as the per-shard [`ShardStats`]) can be
//!   added without a breaking change.

use std::sync::atomic::Ordering;

use crate::error::Error;
use crate::request::{CacheStatus, Decision, QueryResponse};
use crate::stack::LayerTimings;
use crate::sync::TrackedAtomicU64;

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
    /// Contended acquisitions of this shard's L2 view-cache lock, summed
    /// over every snapshot's cache.
    pub cache_lock_waits: u64,
    /// Views currently cached in this shard of the current snapshot's
    /// cache.
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
    /// generation or unchanged input sections).
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
    /// (unchanged generation or unchanged policy/document sections).
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
        let mut earlier = earlier.clone();
        for ((_, now), (_, then)) in d.cumulative().into_iter().zip(earlier.cumulative()) {
            now.set(now.get().saturating_sub(then.get()));
        }
        for (slot, prior) in d.latency.buckets.iter_mut().zip(earlier.latency.buckets) {
            *slot = slot.saturating_sub(prior);
        }
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

    /// A snapshot of `per_shard` whose counters are all zero; the
    /// aggregate gauges and lock waits are the shard sums.
    fn zeroed(per_shard: Vec<ShardStats>) -> MetricsSnapshot {
        let sum = |f: fn(&ShardStats) -> u64| per_shard.iter().map(f).sum::<u64>();
        MetricsSnapshot {
            requests: 0,
            allowed: 0,
            denied: 0,
            errors: 0,
            enforced: 0,
            admitted_unchecked: 0,
            cache_hits: 0,
            cache_misses: 0,
            l1_hits: 0,
            l2_hits: 0,
            coalesced: 0,
            worker_panics: 0,
            deadline_exceeded: 0,
            shed: 0,
            retries: 0,
            faults_injected: 0,
            sessions_established: 0,
            session_reuses: 0,
            sessions_open: sum(|s| s.sessions_open),
            cached_views: sum(|s| s.cached_views),
            session_lock_waits: sum(|s| s.session_lock_waits),
            cache_lock_waits: sum(|s| s.cache_lock_waits),
            analysis_passes_run: 0,
            analysis_passes_reused: 0,
            analysis_errors: 0,
            analysis_warnings: 0,
            gate_denials: 0,
            policy_passes_run: 0,
            policy_passes_reused: 0,
            policy_errors: 0,
            policy_warnings: 0,
            compiled_hits: 0,
            compile_ns: 0,
            snapshot_compiles: 0,
            snapshot_compile_ns: 0,
            layer_totals: LayerTimings::default(),
            latency: LatencyHistogram {
                buckets: [0; LATENCY_BUCKETS],
                count: 0,
                sum_ns: 0,
            },
            per_shard,
        }
    }

    /// The one mapping from counters to fields: every cumulative field,
    /// paired with the [`Counter`] that fills it. Every L2 hit is a cache
    /// hit and every miss builds one view from the compiled tables, so
    /// `l2_hits` reads `CacheHits` and `compiled_hits` reads
    /// `CacheMisses`. `None` marks a field filled from elsewhere (the
    /// per-shard lock-wait sums, the analysis memo's finding tallies) that
    /// [`MetricsSnapshot::delta`] still subtracts.
    fn cumulative(&mut self) -> [(Option<Counter>, &mut dyn Tally); 39] {
        use Counter as C;
        [
            (Some(C::Requests), &mut self.requests),
            (Some(C::Allowed), &mut self.allowed),
            (Some(C::Denied), &mut self.denied),
            (Some(C::Errors), &mut self.errors),
            (Some(C::Enforced), &mut self.enforced),
            (Some(C::AdmittedUnchecked), &mut self.admitted_unchecked),
            (Some(C::CacheHits), &mut self.cache_hits),
            (Some(C::CacheHits), &mut self.l2_hits),
            (Some(C::CacheMisses), &mut self.cache_misses),
            (Some(C::CacheMisses), &mut self.compiled_hits),
            (Some(C::Coalesced), &mut self.coalesced),
            (Some(C::WorkerPanics), &mut self.worker_panics),
            (Some(C::DeadlineExceeded), &mut self.deadline_exceeded),
            (Some(C::Shed), &mut self.shed),
            (Some(C::Retries), &mut self.retries),
            (Some(C::FaultsInjected), &mut self.faults_injected),
            (Some(C::SessionsEstablished), &mut self.sessions_established),
            (Some(C::SessionReuses), &mut self.session_reuses),
            (Some(C::AnalysisPassesRun), &mut self.analysis_passes_run),
            (
                Some(C::AnalysisPassesReused),
                &mut self.analysis_passes_reused,
            ),
            (Some(C::GateDenials), &mut self.gate_denials),
            (Some(C::PolicyPassesRun), &mut self.policy_passes_run),
            (Some(C::PolicyPassesReused), &mut self.policy_passes_reused),
            (Some(C::CompileNs), &mut self.compile_ns),
            (Some(C::SnapshotCompiles), &mut self.snapshot_compiles),
            (Some(C::SnapshotCompileNs), &mut self.snapshot_compile_ns),
            (Some(C::ChannelNs), &mut self.layer_totals.channel_ns),
            (Some(C::RdfNs), &mut self.layer_totals.rdf_ns),
            (Some(C::XmlNs), &mut self.layer_totals.xml_ns),
            (Some(C::GateNs), &mut self.layer_totals.gate_ns),
            (Some(C::CompileNs), &mut self.layer_totals.compile_ns),
            (Some(C::LatencyCount), &mut self.latency.count),
            (Some(C::LatencySumNs), &mut self.latency.sum_ns),
            (None, &mut self.session_lock_waits),
            (None, &mut self.cache_lock_waits),
            (None, &mut self.analysis_errors),
            (None, &mut self.analysis_warnings),
            (None, &mut self.policy_errors),
            (None, &mut self.policy_warnings),
        ]
    }
}

/// A cumulative snapshot field: a `u64` tally or a `u128` layer total.
trait Tally {
    fn get(&self) -> u128;
    fn set(&mut self, value: u128);
}

impl Tally for u64 {
    fn get(&self) -> u128 {
        u128::from(*self)
    }

    fn set(&mut self, value: u128) {
        *self = u64::try_from(value).unwrap_or(u64::MAX);
    }
}

impl Tally for u128 {
    fn get(&self) -> u128 {
        *self
    }

    fn set(&mut self, value: u128) {
        *self = value;
    }
}

/// Every cumulative serving counter. Each indexes the counter arrays of
/// [`LocalMetrics`] and [`MetricsInner`]; [`MetricsSnapshot::cumulative`]
/// names the field it fills, which documents it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    Requests,
    Allowed,
    Denied,
    Errors,
    Enforced,
    AdmittedUnchecked,
    CacheHits,
    CacheMisses,
    Coalesced,
    WorkerPanics,
    DeadlineExceeded,
    Shed,
    Retries,
    FaultsInjected,
    SessionsEstablished,
    SessionReuses,
    ChannelNs,
    RdfNs,
    XmlNs,
    GateNs,
    CompileNs,
    LatencySumNs,
    LatencyCount,
    AnalysisPassesRun,
    AnalysisPassesReused,
    GateDenials,
    PolicyPassesRun,
    PolicyPassesReused,
    SnapshotCompiles,
    SnapshotCompileNs,
}

/// Number of [`Counter`]s (the last variant's index plus one).
const COUNTERS: usize = Counter::SnapshotCompileNs as usize + 1;

/// Per-worker metric accumulator: plain integers, owned by one thread, so
/// recording a request outcome touches no shared cache line. Flushed into
/// [`MetricsInner`] once per batch worker (or per request on the
/// single-request [`crate::server::StackServer::serve`] path).
#[derive(Debug)]
pub(crate) struct LocalMetrics {
    counts: [u64; COUNTERS],
    latency: [u64; LATENCY_BUCKETS],
}

impl Default for LocalMetrics {
    fn default() -> Self {
        LocalMetrics {
            counts: [0; COUNTERS],
            latency: [0; LATENCY_BUCKETS],
        }
    }
}

impl LocalMetrics {
    /// Adds `n` to `counter` (saturating).
    pub fn add(&mut self, counter: Counter, n: u64) {
        let count = &mut self.counts[counter as usize];
        *count = count.saturating_add(n);
    }

    /// Counts one occurrence of `counter`.
    pub fn bump(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// The local value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    fn record_latency(&mut self, total_ns: u128) {
        let ns = u64::try_from(total_ns).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket] += 1;
        self.add(Counter::LatencySumNs, ns);
        self.bump(Counter::LatencyCount);
    }

    /// Accounts one request outcome (coalesced responses count as requests
    /// too: every position in a batch is a served request).
    pub fn record_outcome(&mut self, result: &Result<QueryResponse, Error>) {
        use Counter as C;
        self.bump(C::Requests);
        match result {
            Ok(response) => {
                self.bump(C::Allowed);
                self.bump(match response.decision {
                    Decision::Enforced => C::Enforced,
                    Decision::AdmittedUnchecked => C::AdmittedUnchecked,
                });
                match response.cache {
                    CacheStatus::Hit => self.bump(C::CacheHits),
                    CacheStatus::Miss => self.bump(C::CacheMisses),
                    CacheStatus::Coalesced => self.bump(C::Coalesced),
                    CacheStatus::Bypass => {}
                }
                let t = &response.timings;
                for (counter, ns) in [
                    (C::ChannelNs, t.channel_ns),
                    (C::RdfNs, t.rdf_ns),
                    (C::XmlNs, t.xml_ns),
                    (C::GateNs, t.gate_ns),
                    (C::CompileNs, t.compile_ns),
                ] {
                    self.add(counter, u64::try_from(ns).unwrap_or(u64::MAX));
                }
                self.record_latency(t.total_ns());
            }
            Err(Error::ClearanceViolation) => {
                self.bump(C::Denied);
                // A denial is the *result* of full enforcement.
                self.bump(C::Enforced);
            }
            Err(Error::DeadlineExceeded(_)) => {
                self.bump(C::Errors);
                self.bump(C::DeadlineExceeded);
            }
            Err(Error::Overloaded(_)) => {
                self.bump(C::Errors);
                self.bump(C::Shed);
            }
            Err(_) => self.bump(C::Errors),
        }
    }
}

/// Lock-free cumulative counters (the mutable twin of [`MetricsSnapshot`]).
/// Every counter shares one counter-role class: the detector never models
/// counter atomics.
pub(crate) struct MetricsInner {
    counts: [TrackedAtomicU64; COUNTERS],
    latency: [TrackedAtomicU64; LATENCY_BUCKETS],
}

impl Default for MetricsInner {
    fn default() -> Self {
        MetricsInner {
            counts: std::array::from_fn(|_| TrackedAtomicU64::counter("server.metrics.counter", 0)),
            latency: std::array::from_fn(|_| {
                TrackedAtomicU64::counter("server.metrics.latency", 0)
            }),
        }
    }
}

impl MetricsInner {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The cumulative value of `counter`. Monotonic totals: a read needs
    /// no stronger order.
    ///
    /// This is the one read of every counter, the gate-fed `shed` and
    /// `faults_injected` included. Relaxed is enough for those too: the
    /// caller of `serve_batch` absorbs each worker's tallies itself, after
    /// joining that worker and before returning, so a benchmark gate that
    /// reads after a batch sees the batch's whole total.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// Folds a worker's local accumulator into the cumulative store.
    pub fn absorb(&self, local: &LocalMetrics) {
        let atomics = self.counts.iter().chain(&self.latency);
        for (atomic, &n) in atomics.zip(local.counts.iter().chain(&local.latency)) {
            if n != 0 {
                atomic.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Materializes the snapshot over the caller's per-shard statistics.
    /// The analysis memo's finding tallies stay zero here; the server
    /// fills them in.
    pub fn snapshot(&self, per_shard: Vec<ShardStats>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::zeroed(per_shard);
        for (counter, field) in snap.cumulative() {
            if let Some(counter) = counter {
                field.set(u128::from(self.get(counter)));
            }
        }
        for (slot, bucket) in snap.latency.buckets.iter_mut().zip(&self.latency) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        snap
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

        let inner = MetricsInner::default();
        inner.absorb(&local);
        let snap = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 3,
            session_lock_waits: 1,
            cache_lock_waits: 2,
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
        assert_eq!(snap.l2_hits, 1, "every cache hit is an L2 hit");
        assert_eq!(snap.sessions_open, 3);
        assert_eq!(snap.cached_views, 4);
        assert_eq!(snap.session_lock_waits, 1);
        assert_eq!(snap.cache_lock_waits, 2);
        assert_eq!(snap.latency.count, 3);
        assert_eq!(
            snap.layer_totals.total_ns(),
            300,
            "compile_ns attributes, not adds"
        );
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
            cached_views: 12,
        }]);
        let later = inner.snapshot(vec![ShardStats {
            shard: 0,
            sessions_open: 2,
            session_lock_waits: 0,
            cache_lock_waits: 0,
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

    /// The test's own copy of the counter-to-field mapping: every
    /// counter-backed public field, in declaration order, with the
    /// counter it must hold.
    fn counter_fields(s: &MetricsSnapshot) -> [(u128, Counter); 33] {
        use Counter as C;
        let n = u128::from;
        [
            (n(s.requests), C::Requests),
            (n(s.allowed), C::Allowed),
            (n(s.denied), C::Denied),
            (n(s.errors), C::Errors),
            (n(s.enforced), C::Enforced),
            (n(s.admitted_unchecked), C::AdmittedUnchecked),
            (n(s.cache_hits), C::CacheHits),
            (n(s.cache_misses), C::CacheMisses),
            (n(s.l2_hits), C::CacheHits),
            (n(s.coalesced), C::Coalesced),
            (n(s.worker_panics), C::WorkerPanics),
            (n(s.deadline_exceeded), C::DeadlineExceeded),
            (n(s.shed), C::Shed),
            (n(s.retries), C::Retries),
            (n(s.faults_injected), C::FaultsInjected),
            (n(s.sessions_established), C::SessionsEstablished),
            (n(s.session_reuses), C::SessionReuses),
            (n(s.analysis_passes_run), C::AnalysisPassesRun),
            (n(s.analysis_passes_reused), C::AnalysisPassesReused),
            (n(s.gate_denials), C::GateDenials),
            (n(s.policy_passes_run), C::PolicyPassesRun),
            (n(s.policy_passes_reused), C::PolicyPassesReused),
            (n(s.compiled_hits), C::CacheMisses),
            (n(s.compile_ns), C::CompileNs),
            (n(s.snapshot_compiles), C::SnapshotCompiles),
            (n(s.snapshot_compile_ns), C::SnapshotCompileNs),
            (s.layer_totals.channel_ns, C::ChannelNs),
            (s.layer_totals.rdf_ns, C::RdfNs),
            (s.layer_totals.xml_ns, C::XmlNs),
            (s.layer_totals.gate_ns, C::GateNs),
            (s.layer_totals.compile_ns, C::CompileNs),
            (n(s.latency.count), C::LatencyCount),
            (n(s.latency.sum_ns), C::LatencySumNs),
        ]
    }

    /// Counter `i` holds `100 * (i + 1) - below` and latency bucket `i`
    /// holds `7 * (i + 1) - below`, so no two counters share a value.
    fn distinct_counts(below: u64) -> MetricsSnapshot {
        let mut local = LocalMetrics::default();
        for (i, count) in local.counts.iter_mut().enumerate() {
            *count = 100 * (i as u64 + 1) - below;
        }
        for (i, count) in local.latency.iter_mut().enumerate() {
            *count = 7 * (i as u64 + 1) - below;
        }
        let inner = MetricsInner::default();
        inner.absorb(&local);
        inner.snapshot(Vec::new())
    }

    #[test]
    fn every_counter_reaches_its_field() {
        let snap = distinct_counts(0);
        for (i, (value, counter)) in counter_fields(&snap).into_iter().enumerate() {
            let expected = 100 * (counter as u128 + 1);
            assert_eq!(value, expected, "field {i} does not hold {counter:?}");
        }
        assert_eq!(snap.l2_hits, snap.cache_hits);
        assert_eq!(snap.compiled_hits, snap.cache_misses);
        assert_eq!(snap.l1_hits, 0);
        for (i, &bucket) in snap.latency.buckets.iter().enumerate() {
            assert_eq!(bucket, 7 * (i as u64 + 1), "latency bucket {i}");
        }

        let d = snap.delta(&distinct_counts(1));
        for (i, (value, counter)) in counter_fields(&d).into_iter().enumerate() {
            assert_eq!(value, 1, "delta of field {i} ({counter:?})");
        }
        assert!(
            d.latency.buckets.iter().all(|&b| b == 1),
            "{:?}",
            d.latency.buckets
        );
    }
}
