//! Order statistics for one run (latency percentiles) and across runs
//! (median and quartiles of a metric's per-run values).
//!
//! Within a run, percentiles use the nearest-rank definition: the p-th
//! percentile of `n` sorted samples is the sample at rank `ceil(p/100 · n)`
//! (1-based), and the samples "beyond" it are the `n - rank` samples ranked
//! after it. Ties therefore count by rank, not by value. A failed operation
//! is recorded as `f64::INFINITY`, so it ranks above every measured latency.
//!
//! Across runs, quartiles follow Python's `statistics.quantiles(values,
//! n=4)` (the default "exclusive" method), so the spread the benchmark
//! reports is the spread an outside checker computes from the same values.

/// Percentiles tried, in increasing order, when looking for the highest one
/// that still has at least [`TAIL_SAMPLES`] samples beyond it.
const LADDER: [f64; 8] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps a product like 0.9 * 100 = 90.000…01 from rounding
    // up a rank that is exact on paper.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n))
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples (failed operations included).
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// The highest percentile of [`LADDER`] with at least
    /// [`TAIL_SAMPLES`] samples beyond it, and its value; `None` when even
    /// the median has fewer (n < 20).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = LADDER
            .iter()
            .rev()
            .find(|&&p| rank(n, p).is_some_and(|r| n - r >= TAIL_SAMPLES))
            .and_then(|&p| percentile(&sorted, p).map(|v| (p, v)));
        Some(Summary {
            count: n,
            p50: percentile(&sorted, 50.0)?,
            p90: percentile(&sorted, 90.0)?,
            tail,
        })
    }
}

/// The interquartile mean: the mean of the middle half of `values` (a
/// quarter of them, rounded down, is left out at each end); `None` when
/// empty.
///
/// A run's per-round values mix rounds the host left alone with rounds it
/// slowed down. Where a median jumps from one group to the other as their
/// shares pass one half, this mean moves with the shares by degrees, and
/// it still ignores the outlying rounds at either end.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// a metric's bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_uniform_ramp() {
        let s = Summary::of(&ramp(100)).expect("samples");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        // p90 of 100 has exactly ten samples beyond it; p95 has five.
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }

    #[test]
    fn exact_boundaries_pick_the_highest_qualifying_percentile() {
        // n = 1000: p99 leaves ten beyond (rank 990), p99.5 leaves five.
        let s = Summary::of(&ramp(1000)).expect("samples");
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // n = 10_000: p99.9 leaves exactly ten.
        let s = Summary::of(&ramp(10_000)).expect("samples");
        assert_eq!(s.tail, Some((99.9, 9990.0)));
        // n = 19: even the median (rank 10) has only nine beyond it.
        let s = Summary::of(&ramp(19)).expect("samples");
        assert_eq!(s.tail, None);
        // n = 20: the median (rank 10) has exactly ten beyond it.
        let s = Summary::of(&ramp(20)).expect("samples");
        assert_eq!(s.tail, Some((50.0, 10.0)));
    }

    #[test]
    fn small_samples_still_report_median_and_p90() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).expect("samples");
        assert_eq!((s.p50, s.p90, s.tail), (3.0, 5.0, None));
        let one = Summary::of(&[7.0]).expect("one sample");
        assert_eq!((one.p50, one.p90), (7.0, 7.0));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn ties_count_by_rank_not_by_value() {
        // 95 equal samples then five larger ones: p90 sits inside the tie
        // and still counts ten samples beyond it.
        let mut samples = vec![2.0; 95];
        samples.extend([9.0; 5]);
        let s = Summary::of(&samples).expect("samples");
        assert_eq!((s.p50, s.p90), (2.0, 2.0));
        assert_eq!(s.tail, Some((90.0, 2.0)));
    }

    #[test]
    fn failures_rank_above_every_latency() {
        let mut samples = ramp(9);
        samples.push(f64::INFINITY);
        let s = Summary::of(&samples).expect("samples");
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p90, 9.0);
        samples.push(f64::INFINITY);
        assert!(Summary::of(&samples).expect("samples").p90.is_infinite());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // clamped ends extrapolate past the data.
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        // Ties collapse the spread.
        assert_eq!(quartiles(&[4.0; 6]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn interquartile_mean_keeps_the_middle_half() {
        // Eight values: two are left out at each end, 3..=6 remain.
        let v = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&v), Some(4.5));
        // Outliers at either end do not move it.
        let w = [8000.0, 0.001, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&w), Some(4.5));
        // Fewer than four values: nothing is left out.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Two groups: the mean follows their shares by degrees, where the
        // median jumps once the slow group passes one half.
        let mut mix = vec![1.0; 9];
        mix.extend([2.0; 11]);
        assert_eq!(median(&mix), Some(2.0));
        assert_eq!(interquartile_mean(&mix), Some(1.6));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn median_and_spread_across_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // (8.25 - 2.75) / 5.5 = 1.0
        assert_eq!(spread(&ramp(10)), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
