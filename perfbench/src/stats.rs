//! Order statistics for the benchmark's reported figures.
//!
//! Percentiles are nearest-rank over every attempted operation. A failed or
//! refused operation enters as `f64::INFINITY`, so it counts as missing any
//! latency limit instead of vanishing from the sample. A percentile is only
//! reported when at least ten samples lie beyond it (the "ten samples
//! beyond" rule): p50 needs 20 samples, p99 needs 1000.
//!
//! [`Histogram`] holds latencies in a fixed number of log-spaced buckets,
//! so a client that records millions of requests uses the same memory as
//! one that records a thousand.

/// Samples that must lie strictly beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or `None` when
/// fewer than [`BEYOND`] samples would lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = nearest_rank(n, p)?;
    if n - rank < BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    // `p * n` first: integral percentiles of integral counts stay exact.
    Some(((p * n as f64 / 100.0).ceil() as usize).clamp(1, n))
}

/// The smallest sample count for which percentile `p` is reportable.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| nearest_rank(n, p).is_some_and(|rank| n - rank >= BEYOND)).unwrap_or(usize::MAX)
}

/// Median of `values` without the beyond rule (used for medians of a few
/// repeated set-up timings), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Smallest latency a [`Histogram`] resolves, in ms: smaller values share
/// the first bucket.
const LOWEST_MS: f64 = 1e-3;
/// Width ratio of consecutive buckets: 0.1% resolution.
const RATIO: f64 = 1.001;
/// Buckets from 1 µs up to 100 s (`ln(1e8) / ln(RATIO)`, rounded up).
const BUCKETS: usize = 18_430;

/// Latencies in ms, in log-spaced buckets of 0.1% width. Percentiles are
/// nearest-rank over every recorded value, failures included as +∞, and
/// read as the geometric middle of the bucket that holds the rank.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    failed: u64,
    len: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], failed: 0, len: 0 }
    }
}

impl Histogram {
    /// Record one latency; a non-finite one is a failure.
    pub fn record(&mut self, ms: f64) {
        self.len += 1;
        if !ms.is_finite() {
            self.failed += 1;
            return;
        }
        let at = ((ms / LOWEST_MS).ln() / RATIO.ln()).floor();
        // NaN (a negative latency) and -∞ (zero) land in the first bucket.
        let at = if at >= 0.0 { (at as usize).min(BUCKETS - 1) } else { 0 };
        self.counts[at] += 1;
    }

    /// Add every value `other` recorded.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.failed += other.failed;
        self.len += other.len;
    }

    /// Values recorded, failures included.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Failures recorded.
    pub fn failed(&self) -> usize {
        self.failed as usize
    }

    /// Nearest-rank percentile `p`, under the same rule as [`percentile`].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.len();
        let rank = nearest_rank(n, p)?;
        if n - rank < BEYOND {
            return None;
        }
        let mut seen = 0usize;
        for (at, &count) in self.counts.iter().enumerate() {
            seen += count as usize;
            if seen >= rank {
                return Some(LOWEST_MS * RATIO.powf(at as f64 + 0.5));
            }
        }
        Some(f64::INFINITY)
    }
}

/// Arithmetic mean, or 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        // rank ceil(0.5 * 40) = 20 -> value 20.
        assert_eq!(percentile(&values, 50.0), Some(20.0));
        // rank ceil(0.75 * 40) = 30, ten beyond it.
        assert_eq!(percentile(&values, 75.0), Some(30.0));
        // The sample order does not matter.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 50.0), Some(20.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), None, "999 samples leave only 9 beyond p99");
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), Some(990.0));
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(percentile(&values[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_rank_as_infinitely_slow() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Eleven failures: p99 is now a failure.
        values.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(percentile(&values, 99.0), Some(f64::INFINITY));
        // Failures also push the median up, never down.
        assert_eq!(percentile(&values, 50.0), Some(506.0));
        let mut all_failed = vec![f64::INFINITY; 30];
        all_failed.push(1.0);
        assert_eq!(percentile(&all_failed, 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn the_histogram_reads_the_nearest_rank_within_its_resolution() {
        let values: Vec<f64> = (1..=2000).map(|i| f64::from(i) * 0.0137).collect();
        let mut histogram = Histogram::default();
        // Recorded out of order, and split over two merged halves.
        let mut other = Histogram::default();
        for (i, &v) in values.iter().rev().enumerate() {
            if i % 2 == 0 {
                histogram.record(v)
            } else {
                other.record(v)
            }
        }
        histogram.merge(&other);
        assert_eq!(histogram.len(), 2000);
        for p in [50.0, 90.0, 99.0] {
            let exact = percentile(&values, p).unwrap();
            let read = histogram.percentile(p).unwrap();
            assert!((read / exact - 1.0).abs() <= 0.001, "p{p}: {read} vs {exact}");
        }
        // The ten-samples-beyond rule holds as for exact percentiles.
        let mut small = Histogram::default();
        (1..=999).for_each(|i| small.record(f64::from(i)));
        assert_eq!(small.percentile(99.0), None);
        small.record(1000.0);
        assert!(small.percentile(99.0).is_some());
        // Values outside the resolved range stay countable.
        let mut edges = Histogram::default();
        [0.0, -1.0, 1e-9, 1e9].into_iter().for_each(|v| edges.record(v));
        assert_eq!((edges.len(), edges.failed()), (4, 0));
    }

    #[test]
    fn the_histogram_ranks_failures_as_infinitely_slow() {
        let mut histogram = Histogram::default();
        (1..=1000).for_each(|i| histogram.record(f64::from(i)));
        (0..11).for_each(|_| histogram.record(f64::INFINITY));
        assert_eq!(histogram.failed(), 11);
        assert_eq!(histogram.percentile(99.0), Some(f64::INFINITY));
        let median = histogram.percentile(50.0).unwrap();
        assert!((median / 506.0 - 1.0).abs() <= 0.001, "failures push the median up: {median}");
    }

    #[test]
    fn median_and_mean_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
