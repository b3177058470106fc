//! A small, fast, reproducible pseudo-random number generator.
//!
//! The workspace deliberately implements its own generator
//! (xoshiro256++ seeded via SplitMix64) instead of relying on an
//! external crate's default: simulation results must be bit-identical
//! across runs, platforms, and dependency upgrades, because the
//! experiment suite asserts *quantitative* relationships between
//! configurations.
//!
//! [`Rng64`] supports `fork()`-style stream splitting so that each
//! simulated component (arrival process, request sizes, locality, ...)
//! draws from an independent stream and adding a consumer does not
//! perturb the draws seen by the others.

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators with different seeds produce statistically
    /// independent streams (the seed is expanded through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Derives an independent child stream, advancing `self`.
    ///
    /// Useful for giving each simulated component its own stream.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe to pass to `ln()`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng64::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = r.below(10) as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow 10% slack.
            assert!((9_000..=11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(11);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1, c2);
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(17);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
