//! Load generation: seeded arrival schedules, the open-loop dispatcher and
//! the closed-loop capacity client, plus the hashed outcome every served
//! read is checked by.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use websec_core::prelude::*;
use websec_core::BatchStats;

use crate::trace::{Recorder, SpanId};

/// What a read answered, reduced to what the oracle compares: the bytes'
/// FNV-1a hash and length, or the WS error code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// A view was served.
    Bytes {
        /// FNV-1a of the response XML.
        hash: u64,
        /// Length of the response XML.
        len: usize,
    },
    /// The request was refused with this code.
    Refused(&'static str),
}

impl Outcome {
    /// Reduces a served result.
    pub fn of(result: &Result<QueryResponse, Error>) -> Outcome {
        match result {
            Ok(response) => Outcome::Bytes {
                hash: fnv1a(response.xml.as_bytes()),
                len: response.xml.len(),
            },
            Err(error) => Outcome::Refused(error.code()),
        }
    }

    /// Response bytes (0 for a refusal).
    pub fn bytes(self) -> usize {
        match self {
            Outcome::Bytes { len, .. } => len,
            Outcome::Refused(_) => 0,
        }
    }
}

/// FNV-1a over `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Due times (ns after the phase starts) of a Poisson arrival process at
/// `rate` per second over `window`.
pub fn poisson_schedule(rng: &mut SecureRng, rate: f64, window: Duration) -> Vec<u64> {
    let end = window.as_nanos() as f64;
    let mut due = Vec::with_capacity((rate * window.as_secs_f64() * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= end {
            return due;
        }
        due.push(t as u64);
    }
}

/// Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks (n ≥ 1).
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SecureRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut SecureRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Monotonic clock for one phase.
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts the clock now.
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the start.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Blocks until `due_ns`: sleeps while far away, then yields, so the
    /// dispatcher neither oversleeps a due time nor holds a core spinning.
    pub fn wait_until(&self, due_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            let left = due_ns - now;
            if left > 300_000 {
                std::thread::sleep(Duration::from_nanos(left - 200_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One `serve_batch` call as the dispatcher saw it.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Index of the batch's first read in the phase's read list.
    pub first: usize,
    /// Reads in the batch.
    pub len: usize,
    /// When the call was made (ns since the phase started).
    pub dispatch_ns: u64,
    /// When the call returned.
    pub done_ns: u64,
    /// Update-counter values read just before and just after the call
    /// (odd while an update is in flight).
    pub versions: (u64, u64),
    /// The server's per-batch scheduler statistics.
    pub stats: BatchStats,
}

/// Everything a read phase produced.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Outcome of read `i`.
    pub outcomes: Vec<Outcome>,
    /// Latency of read `i` in µs (open loop: from its due time).
    pub latency_us: Vec<f64>,
    /// Due time of read `i` (ns since the phase started).
    pub due_ns: Vec<u64>,
    /// Every batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Time spent serving, in seconds.
    pub elapsed_s: f64,
}

impl ReadLog {
    /// The batch record each read belongs to, index-aligned with the reads.
    pub fn batch_of_each(&self) -> Vec<usize> {
        let mut out = vec![0; self.outcomes.len()];
        for (b, batch) in self.batches.iter().enumerate() {
            for slot in &mut out[batch.first..batch.first + batch.len] {
                *slot = b;
            }
        }
        out
    }

    /// Appends the log of the slice that follows this one.
    pub fn append(&mut self, slice: ReadLog) {
        self.outcomes.extend(slice.outcomes);
        self.latency_us.extend(slice.latency_us);
        self.due_ns.extend(slice.due_ns);
        self.batches.extend(slice.batches);
        self.elapsed_s += slice.elapsed_s;
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_one_batch(
    server: &StackServer,
    reads: &[QueryRequest],
    workers: usize,
    clock: &Clock,
    versions: &AtomicU64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    first: usize,
) -> (BatchRecord, Vec<Outcome>) {
    let before = versions.load(Ordering::SeqCst);
    let span = rec.start("server.serve_batch", parent, first as u64);
    let dispatch_ns = clock.now_ns();
    let response = server.serve_batch(&BatchRequest::new(reads.to_vec()).workers(workers));
    let done_ns = clock.now_ns();
    rec.end(span);
    let after = versions.load(Ordering::SeqCst);
    let outcomes = response.results.iter().map(Outcome::of).collect();
    (
        BatchRecord {
            first,
            len: reads.len(),
            dispatch_ns,
            done_ns,
            versions: (before, after),
            stats: response.stats,
        },
        outcomes,
    )
}

/// Open loop: one dispatcher hands every read already due to a single
/// `serve_batch` call, and times each read from its due time until that
/// call returns. `reads` are the slice's reads, `first` the index of the
/// first of them in the workload's read list.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &StackServer,
    reads: &[QueryRequest],
    due_ns: &[u64],
    first: usize,
    workers: usize,
    versions: &AtomicU64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> ReadLog {
    let clock = Clock::start();
    let mut log = ReadLog {
        outcomes: Vec::with_capacity(reads.len()),
        latency_us: Vec::with_capacity(reads.len()),
        due_ns: due_ns.to_vec(),
        ..ReadLog::default()
    };
    let mut next = 0;
    while next < reads.len() {
        clock.wait_until(due_ns[next]);
        let now = clock.now_ns();
        let end = next + due_ns[next..].partition_point(|&d| d <= now);
        let (record, outcomes) = serve_one_batch(
            server,
            &reads[next..end],
            workers,
            &clock,
            versions,
            rec,
            parent,
            first + next,
        );
        for due in &due_ns[next..end] {
            log.latency_us
                .push(record.done_ns.saturating_sub(*due) as f64 / 1e3);
        }
        log.outcomes.extend(outcomes);
        log.batches.push(record);
        next = end;
    }
    log.elapsed_s = clock.now_ns() as f64 / 1e9;
    log
}

/// Closed loop: one batch of `batch` reads in flight at a time, drawn in
/// order from `pool` starting at position `start` (wrapping around when
/// `cycle`), until `window` has passed or a non-cycled pool is used up.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    server: &StackServer,
    pool: &[QueryRequest],
    start: usize,
    batch: usize,
    cycle: bool,
    workers: usize,
    window: Duration,
    versions: &AtomicU64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> ReadLog {
    let clock = Clock::start();
    let mut log = ReadLog::default();
    let mut next = start;
    while (cycle || next < pool.len()) && clock.now_ns() < window.as_nanos() as u64 {
        let end = if cycle {
            next + batch
        } else {
            (next + batch).min(pool.len())
        };
        let reads: Vec<QueryRequest> = (next..end).map(|k| pool[k % pool.len()].clone()).collect();
        let (record, outcomes) =
            serve_one_batch(server, &reads, workers, &clock, versions, rec, parent, next);
        let took = (record.done_ns - record.dispatch_ns) as f64 / 1e3;
        log.latency_us.extend(std::iter::repeat_n(took, end - next));
        log.due_ns
            .extend(std::iter::repeat_n(record.dispatch_ns, end - next));
        log.outcomes.extend(outcomes);
        log.batches.push(record);
        next = end;
    }
    log.elapsed_s = clock.now_ns() as f64 / 1e9;
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_and_draws_repeat_for_a_seed() {
        let a = poisson_schedule(&mut SecureRng::seeded(4), 1000.0, Duration::from_secs(2));
        let b = poisson_schedule(&mut SecureRng::seeded(4), 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 2000 expected arrivals; a Poisson count this far off is ~10 sigma.
        assert!((1550..2450).contains(&a.len()), "{}", a.len());
        let c = poisson_schedule(&mut SecureRng::seeded(5), 1000.0, Duration::from_secs(2));
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100);
        let mut rng = SecureRng::seeded(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(100) ≈ 0.193; P(rank 99) ≈ 0.0019.
        assert!((3300..4400).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v = shuffled(50, &mut SecureRng::seeded(3));
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
