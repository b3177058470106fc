//! Random variates used by the workload generators.
//!
//! Each distribution implements [`Sample`], drawing from a caller-owned
//! [`Rng64`] so components can keep independent streams. All samplers are
//! implemented from first principles (inverse-CDF, Box–Muller,
//! rejection-inversion) to keep the workspace free of external sampling
//! dependencies and bit-reproducible.

use crate::rng::Rng64;

/// A distribution over `f64` (or an index for [`Zipf`]) that draws using
/// an explicit RNG.
pub trait Sample {
    /// The type of values produced.
    type Output;
    /// Draws one value.
    fn sample(&self, rng: &mut Rng64) -> Self::Output;
}

/// Exponential distribution with the given mean (i.e. rate `1/mean`).
///
/// The paper's synthetic RAID study (§7.3) uses exponential inter-arrival
/// times with means 8 ms / 4 ms / 1 ms.
///
/// ```
/// use simkit::{Exponential, Rng64, Sample};
/// let d = Exponential::with_mean(4.0);
/// let mut rng = Rng64::new(1);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        Exponential { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Sample for Exponential {
    type Output = f64;
    fn sample(&self, rng: &mut Rng64) -> f64 {
        -self.mean * rng.f64_open().ln()
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRange {
    lo: f64,
    hi: f64,
}

impl UniformRange {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        UniformRange { lo, hi }
    }
}

impl Sample for UniformRange {
    type Output = f64;
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Bernoulli { p }
    }
}

impl Sample for Bernoulli {
    type Output = bool;
    fn sample(&self, rng: &mut Rng64) -> bool {
        rng.chance(self.p)
    }
}

/// Log-normal distribution parameterized by the mean and coefficient of
/// variation *of the resulting variate* (more intuitive for trace
/// modelling than `mu`/`sigma`).
///
/// Used for bursty inter-arrival times in the commercial-trace profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal whose variate has the given `mean` and
    /// coefficient of variation `cv` (`stddev / mean`).
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `cv > 0`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        assert!(cv.is_finite() && cv > 0.0, "invalid cv: {cv}");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    fn standard_normal(rng: &mut Rng64) -> f64 {
        // Box–Muller; one of the pair is discarded for simplicity.
        let u1 = rng.f64_open();
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Sample for LogNormal {
    type Output = f64;
    fn sample(&self, rng: &mut Rng64) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha` —
/// heavy-tailed request sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn bounded(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "bad support [{lo}, {hi}]");
        assert!(alpha > 0.0, "bad shape {alpha}");
        Pareto { lo, hi, alpha }
    }
}

impl Sample for Pareto {
    type Output = f64;
    fn sample(&self, rng: &mut Rng64) -> f64 {
        // Inverse CDF of the bounded Pareto.
        let u = rng.f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s` — spatial
/// locality over extents ("hot spots").
///
/// Sampling uses rejection-inversion (Hörmann & Derflinger), O(1)
/// per draw independent of `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    dominating_mass: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` items with exponent `s`.
    /// Any finite `s > 0` is accepted, including `s = 1`.
    ///
    /// # Panics
    /// Panics if `n == 0`, or if `s` is not finite or not greater than
    /// zero (NaN, ±infinity, zero or negative).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!(s.is_finite() && s > 0.0, "bad exponent {s}");
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        Zipf {
            n,
            s,
            h_x1,
            h_n,
            dominating_mass: h_n - h_x1,
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s)) - 1.0
        }
    }
}

impl Sample for Zipf {
    type Output = u64;
    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    fn sample(&self, rng: &mut Rng64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.h_x1 + rng.f64() * self.dominating_mass;
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // Acceptance test (simplified Hörmann–Derflinger).
            let h_k = {
                let s = self.s;
                if (s - 1.0).abs() < 1e-12 {
                    (k + 0.5).ln() - (k - 0.5).ln()
                } else {
                    ((k + 0.5).powf(1.0 - s) - (k - 0.5).powf(1.0 - s)) / (1.0 - s)
                }
            };
            let p_k = k.powf(-self.s);
            if rng.f64() * h_k <= p_k {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0);
        let mut rng = Rng64::new(1);
        let m = mean_of(200_000, || d.sample(&mut rng));
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_nonnegative() {
        let d = Exponential::with_mean(0.5);
        let mut rng = Rng64::new(2);
        assert!((0..10_000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = UniformRange::new(2.0, 6.0);
        let mut rng = Rng64::new(3);
        let mut m = 0.0;
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
            m += x;
        }
        m /= 50_000.0;
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn bernoulli_frequency() {
        let d = Bernoulli::new(0.6);
        let mut rng = Rng64::new(4);
        let hits = (0..100_000).filter(|_| d.sample(&mut rng)).count();
        assert!((59_000..=61_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn lognormal_mean_and_cv() {
        let d = LogNormal::with_mean_cv(8.0, 1.5);
        let mut rng = Rng64::new(5);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        let cv = var.sqrt() / m;
        assert!((m - 8.0).abs() / 8.0 < 0.05, "mean {m}");
        assert!((cv - 1.5).abs() / 1.5 < 0.10, "cv {cv}");
    }

    #[test]
    fn pareto_support() {
        let d = Pareto::bounded(1.0, 64.0, 1.2);
        let mut rng = Rng64::new(6);
        for _ in 0..20_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=64.0 + 1e-9).contains(&x), "{x}");
        }
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let d = Zipf::new(1000, 1.0);
        let mut rng = Rng64::new(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..200_000 {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // For s=1, p(rank0)/p(rank9) should be ~10.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!((5.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_in_range() {
        for &(n, s) in &[(1u64, 0.8), (2, 1.0), (10, 0.5), (1_000_000, 1.2)] {
            let d = Zipf::new(n, s);
            let mut rng = Rng64::new(8);
            for _ in 0..5_000 {
                assert!(d.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn zipf_single_item() {
        let d = Zipf::new(1, 1.0);
        let mut rng = Rng64::new(9);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn zipf_new_panics_exactly_where_documented() {
        let panics = |n: u64, s: f64| std::panic::catch_unwind(|| Zipf::new(n, s)).is_err();
        assert!(panics(0, 1.0), "n = 0");
        for s in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(panics(10, s), "s = {s}");
        }
        for s in [1e-9, 0.5, 1.0, 1.45, 1e6] {
            assert!(!panics(10, s), "s = {s}");
        }
    }
}
