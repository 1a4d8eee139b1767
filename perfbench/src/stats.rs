//! Order statistics shared by every metric the benchmark prints.

/// Exact nearest-rank percentile of ascending-sorted `sorted`: the
/// smallest sample such that at least `p` percent of the samples are
/// less than or equal to it (rank `ceil(p/100 · n)`, 1-based). No
/// interpolation: the result is always one of the measured samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples beyond the nearest-rank `p` percentile of `n` samples. Every
/// window of a [`windowed_tail`] keeps at least ten beyond its percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// A set of timings in one unit, sorted on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Nanosecond durations converted to microseconds.
    pub fn from_ns_as_us(ns: &[u64]) -> Samples {
        Samples::new(ns.iter().map(|&v| v as f64 / 1e3).collect())
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile; NaN when there are no samples, so an
    /// empty series cannot pass for a measurement.
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        percentile(&self.sorted, p)
    }

    pub fn median(&self) -> f64 {
        self.p(50.0)
    }
}

/// Nearest-rank median of a few values (set-up repetitions, batches).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// Most windows a run's tail is split into.
pub const TAIL_WINDOWS: usize = 32;

/// Windows [`windowed_tail`] splits `n` samples into: up to
/// [`TAIL_WINDOWS`], as many as leave every window ten samples beyond
/// `p`, and at least one.
pub fn tail_windows(n: usize, p: f64) -> usize {
    (2..=TAIL_WINDOWS)
        .rev()
        .find(|&k| beyond(n / k, p) >= 10)
        .unwrap_or(1)
}

/// The `p` tail of a run, from its samples in the order they were taken:
/// the samples are split into [`tail_windows`] consecutive windows of
/// (near) equal length, and the result is the interquartile mean of the
/// windows' nearest-rank `p` percentiles: the lowest and the highest
/// quarter of the windows are dropped and the rest averaged. A burst of
/// host noise in one stretch of the run then moves a dropped window, not
/// the reported tail; a tail that grows as the output grows is averaged
/// over the run instead of read at one point of it. NaN when there are
/// no samples.
pub fn windowed_tail(in_order: &[f64], p: f64) -> f64 {
    let n = in_order.len();
    if n == 0 {
        return f64::NAN;
    }
    let k = tail_windows(n, p);
    let mut per_window: Vec<f64> = (0..k)
        .map(|i| Samples::new(in_order[i * n / k..(i + 1) * n / k].to_vec()).p(p))
        .collect();
    per_window.sort_by(f64::total_cmp);
    let kept = &per_window[k / 4..k - k / 4];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 10.1), 2.0);
        // Odd count: the middle sample, never an average.
        assert_eq!(percentile(&[1.0, 2.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 4.0, 8.0], 50.0), 2.0);
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_sample_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        // 8 windows of 1000; the third holds a burst of 100 slow samples.
        let mut v: Vec<f64> = (0..8000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[2000..2100] {
            *x = 1e6;
        }
        assert_eq!(tail_windows(v.len(), 99.0), 8);
        assert_eq!(windowed_tail(&v, 99.0), 989.0);
        // The whole-run p99 lands in the burst.
        assert_eq!(Samples::new(v).p(99.0), 1e6);
    }

    #[test]
    fn windowed_tail_averages_a_growing_tail() {
        // Window w holds 0..1000 shifted up by 100·w: its p99 is
        // 989 + 100·w. The middle four windows (w = 2..=5) are kept.
        let v: Vec<f64> = (0..8000)
            .map(|i| f64::from(i % 1000 + 100 * (i / 1000)))
            .collect();
        assert_eq!(windowed_tail(&v, 99.0), 989.0 + 350.0);
    }

    #[test]
    fn tail_windows_keep_ten_samples_beyond() {
        assert_eq!(tail_windows(100_000, 99.0), 32);
        assert_eq!(tail_windows(3000, 99.0), 3);
        assert_eq!(tail_windows(999, 99.0), 1);
        assert_eq!(tail_windows(630, 90.0), 6);
        assert!(windowed_tail(&[], 99.0).is_nan());
        // Fewer than four windows: nothing is dropped. One window: the
        // plain nearest-rank percentile.
        let v: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        assert_eq!(windowed_tail(&v, 99.0), 495.0);
    }

    #[test]
    fn samples_sort_their_input() {
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.p(100.0), 3.0);
        assert_eq!(Samples::from_ns_as_us(&[1500, 500]).median(), 0.5);
    }
}
