//! Seeded input generation: the only source of randomness in the
//! benchmark, so one `--seed` always yields one request stream.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose of one seed (`salt` names the
    /// purpose), so adding a draw in one place never shifts another.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Multiplicative jitter in `[1 - eps, 1 + eps]`.
    pub fn jitter(&mut self, eps: f64) -> f64 {
        1.0 + eps * (2.0 * self.unit() - 1.0)
    }

    /// Exponential inter-arrival gap of a Poisson process with `rate`
    /// events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf-distributed ranks over `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn prob(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets (seconds from the start) inside `[0, horizon)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, horizon: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 16);
    let mut t = rng.exp_gap(rate);
    while t < horizon {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = Rng::stream(seed, 7);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // Salts separate purposes of one seed.
        let mut a = Rng::stream(1, 7);
        let mut b = Rng::stream(1, 8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zipf_hits_its_target_mean() {
        let n = 32;
        let z = Zipf::new(n, 1.1);
        let expected: f64 = (0..n).map(|k| k as f64 * z.prob(k)).sum();
        let mut rng = Rng::new(42);
        let draws = 200_000;
        let mean = (0..draws).map(|_| z.sample(&mut rng) as f64).sum::<f64>() / draws as f64;
        assert!(
            (mean - expected).abs() < 0.02 * expected,
            "Zipf mean {mean} vs expected {expected}"
        );
        // Rank 0 is the most popular, by the model's ratio.
        assert!((z.prob(0) / z.prob(1) - 2f64.powf(1.1)).abs() < 1e-9);
    }

    #[test]
    fn poisson_hits_its_target_rate_and_gap() {
        let mut rng = Rng::new(9);
        let rate = 500.0;
        let horizon = 200.0;
        let t = poisson_arrivals(&mut rng, rate, horizon);
        let count_rate = t.len() as f64 / horizon;
        assert!((count_rate - rate).abs() < 0.01 * rate, "rate {count_rate}");
        let mean_gap = t.windows(2).map(|w| w[1] - w[0]).sum::<f64>() / (t.len() - 1) as f64;
        assert!((mean_gap * rate - 1.0).abs() < 0.01, "gap {mean_gap}");
        assert!(t.windows(2).all(|w| w[0] <= w[1]) && t.iter().all(|&x| x < horizon));
    }
}
