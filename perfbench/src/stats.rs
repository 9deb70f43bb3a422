//! Order statistics over latency samples.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the printed percentiles (p50, p90, p99, p99.9) that has
/// at least ten samples beyond it among `n` — the tail a run of `n`
/// requests can state honestly.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    assert!(n > 0, "geometric mean of no values");
    (sum / n as f64).exp()
}

/// Latency samples of one run, sorted once.
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The fastest sample, 0 for none.
    pub fn min(&self) -> f64 {
        self.0.first().copied().unwrap_or(0.0)
    }

    pub fn p(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.0, q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Exactly ten samples lie beyond p90 of 100.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.9)).count(), 10);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Latencies::new(vec![3.0, 1.0, 2.0]).min(), 1.0);
    }
}
