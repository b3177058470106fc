//! Arrival processes.
//!
//! The §7.3 synthetic study uses a Poisson process ("an exponential
//! distribution models a purely random Poisson process and depicts a
//! scenario where there is a steady stream of requests"). The
//! commercial traces are burstier; their stand-ins use either a
//! log-normal inter-arrival distribution or a two-state Markov-modulated
//! Poisson process ([`Mmpp`]) that alternates between a quiet and a
//! burst regime — the mechanism behind the long response-time tails of
//! Figure 2.

use simkit::{Exponential, LogNormal, Rng64, Sample};

/// A two-state MMPP: arrivals are Poisson within a state; after each
/// arrival the process may switch state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmpp {
    /// Mean inter-arrival time in the quiet state (ms).
    pub quiet_mean_ms: f64,
    /// Mean inter-arrival time in the burst state (ms).
    pub burst_mean_ms: f64,
    /// Probability of leaving the quiet state after an arrival.
    pub enter_burst: f64,
    /// Probability of leaving the burst state after an arrival.
    pub leave_burst: f64,
}

impl Mmpp {
    /// Long-run mean inter-arrival time (ms).
    ///
    /// The stationary fraction of arrivals generated in the burst state
    /// is `enter_burst / (enter_burst + leave_burst)`.
    pub fn mean_ms(&self) -> f64 {
        let pb = self.enter_burst / (self.enter_burst + self.leave_burst);
        pb * self.burst_mean_ms + (1.0 - pb) * self.quiet_mean_ms
    }
}

/// An arrival process generating successive inter-arrival gaps.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given mean inter-arrival time (ms).
    Exponential {
        /// Mean gap in milliseconds.
        mean_ms: f64,
    },
    /// Log-normal inter-arrival times: moderately bursty.
    LogNormal {
        /// Mean gap in milliseconds.
        mean_ms: f64,
        /// Coefficient of variation (1.0 ≈ exponential-like; larger is
        /// burstier).
        cv: f64,
    },
    /// Two-state Markov-modulated Poisson process: heavy bursts.
    Mmpp(Mmpp),
}

impl ArrivalProcess {
    /// The long-run mean inter-arrival time (ms).
    pub fn mean_ms(&self) -> f64 {
        match self {
            ArrivalProcess::Exponential { mean_ms } => *mean_ms,
            ArrivalProcess::LogNormal { mean_ms, .. } => *mean_ms,
            ArrivalProcess::Mmpp(m) => m.mean_ms(),
        }
    }

    /// Creates the stateful gap generator.
    pub fn sampler(&self) -> ArrivalSampler {
        match self {
            ArrivalProcess::Exponential { mean_ms } => {
                ArrivalSampler::Exponential(Exponential::with_mean(*mean_ms))
            }
            ArrivalProcess::LogNormal { mean_ms, cv } => {
                ArrivalSampler::LogNormal(LogNormal::with_mean_cv(*mean_ms, *cv))
            }
            ArrivalProcess::Mmpp(m) => {
                assert!(
                    m.quiet_mean_ms > 0.0 && m.burst_mean_ms > 0.0,
                    "MMPP means must be positive"
                );
                assert!(
                    (0.0..=1.0).contains(&m.enter_burst) && (0.0..=1.0).contains(&m.leave_burst),
                    "MMPP switch probabilities must be in [0,1]"
                );
                ArrivalSampler::Mmpp {
                    quiet: Exponential::with_mean(m.quiet_mean_ms),
                    burst: Exponential::with_mean(m.burst_mean_ms),
                    enter_burst: m.enter_burst,
                    leave_burst: m.leave_burst,
                    in_burst: false,
                }
            }
        }
    }
}

/// Stateful inter-arrival gap generator; see
/// [`ArrivalProcess::sampler`].
#[derive(Debug, Clone)]
pub enum ArrivalSampler {
    /// Poisson gaps.
    Exponential(Exponential),
    /// Log-normal gaps.
    LogNormal(LogNormal),
    /// Two-state MMPP gaps.
    Mmpp {
        /// Quiet-state gap distribution.
        quiet: Exponential,
        /// Burst-state gap distribution.
        burst: Exponential,
        /// P(quiet → burst) per arrival.
        enter_burst: f64,
        /// P(burst → quiet) per arrival.
        leave_burst: f64,
        /// Current state.
        in_burst: bool,
    },
}

impl ArrivalSampler {
    /// Draws the next inter-arrival gap in milliseconds.
    pub fn next_gap_ms(&mut self, rng: &mut Rng64) -> f64 {
        match self {
            ArrivalSampler::Exponential(d) => d.sample(rng),
            ArrivalSampler::LogNormal(d) => d.sample(rng),
            ArrivalSampler::Mmpp {
                quiet,
                burst,
                enter_burst,
                leave_burst,
                in_burst,
            } => {
                let gap = if *in_burst {
                    burst.sample(rng)
                } else {
                    quiet.sample(rng)
                };
                let switch = if *in_burst {
                    *leave_burst
                } else {
                    *enter_burst
                };
                if rng.chance(switch) {
                    *in_burst = !*in_burst;
                }
                gap
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed_mean(p: &ArrivalProcess, n: usize) -> f64 {
        let mut rng = Rng64::new(42);
        let mut s = p.sampler();
        (0..n).map(|_| s.next_gap_ms(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let p = ArrivalProcess::Exponential { mean_ms: 4.0 };
        assert!((observed_mean(&p, 200_000) - 4.0).abs() < 0.05);
        assert_eq!(p.mean_ms(), 4.0);
    }

    #[test]
    fn lognormal_mean() {
        let p = ArrivalProcess::LogNormal {
            mean_ms: 8.76,
            cv: 1.2,
        };
        assert!((observed_mean(&p, 300_000) - 8.76).abs() < 0.15);
    }

    #[test]
    fn mmpp_mean_matches_formula() {
        let m = Mmpp {
            quiet_mean_ms: 20.0,
            burst_mean_ms: 0.5,
            enter_burst: 0.02,
            leave_burst: 0.01,
        };
        let p = ArrivalProcess::Mmpp(m);
        let analytic = m.mean_ms();
        let got = observed_mean(&p, 400_000);
        assert!(
            (got - analytic).abs() / analytic < 0.10,
            "got {got}, analytic {analytic}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare squared coefficient of variation of gaps.
        let cv2 = |p: &ArrivalProcess| {
            let mut rng = Rng64::new(7);
            let mut s = p.sampler();
            let xs: Vec<f64> = (0..200_000).map(|_| s.next_gap_ms(&mut rng)).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v / (m * m)
        };
        let poisson = ArrivalProcess::Exponential { mean_ms: 5.0 };
        let mmpp = ArrivalProcess::Mmpp(Mmpp {
            quiet_mean_ms: 20.0,
            burst_mean_ms: 0.5,
            enter_burst: 0.02,
            leave_burst: 0.01,
        });
        assert!(cv2(&mmpp) > 2.0 * cv2(&poisson));
    }

    #[test]
    fn gaps_nonnegative() {
        for p in [
            ArrivalProcess::Exponential { mean_ms: 1.0 },
            ArrivalProcess::LogNormal {
                mean_ms: 1.0,
                cv: 2.0,
            },
            ArrivalProcess::Mmpp(Mmpp {
                quiet_mean_ms: 5.0,
                burst_mean_ms: 0.2,
                enter_burst: 0.1,
                leave_burst: 0.1,
            }),
        ] {
            let mut rng = Rng64::new(3);
            let mut s = p.sampler();
            assert!((0..10_000).all(|_| s.next_gap_ms(&mut rng) >= 0.0));
        }
    }
}
