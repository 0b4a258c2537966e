//! Request, arrival-time, and service-time generation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vc_des::SimTime;
use vc_model::workload::RequestProfile;
use vc_model::Request;

/// A virtual-cluster request with its timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloudRequest {
    /// Dense id (submission order).
    pub id: u64,
    /// The VM counts requested.
    pub request: Request,
    /// Submission time.
    pub arrival: SimTime,
    /// How long the cluster is held once provisioned.
    pub service_time: SimTime,
}

/// Service-time distributions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceTime {
    /// Every job holds its cluster this long.
    Fixed(SimTime),
    /// Uniform in `[lo, hi]` milliseconds.
    UniformMs(u64, u64),
    /// Exponential with the given mean in milliseconds.
    ExpMeanMs(u64),
}

impl ServiceTime {
    /// Draw one service time.
    ///
    /// # Panics
    /// Panics if a uniform range is inverted or an exponential mean is 0.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> SimTime {
        match *self {
            Self::Fixed(t) => t,
            Self::UniformMs(lo, hi) => {
                assert!(lo <= hi, "inverted service-time range");
                SimTime::from_millis(rng.gen_range(lo..=hi))
            }
            Self::ExpMeanMs(mean) => {
                assert!(mean > 0, "exponential mean must be positive");
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimTime::from_secs_f64(-(u.ln()) * mean as f64 / 1000.0)
            }
        }
    }
}

/// Poisson arrivals of requests drawn from a [`RequestProfile`].
#[derive(Debug, Clone, Copy)]
pub struct ArrivalProcess {
    /// Mean arrivals per second.
    pub rate_per_s: f64,
    /// Request-size distribution.
    pub profile: RequestProfile,
    /// Service-time distribution.
    pub service: ServiceTime,
}

impl ArrivalProcess {
    /// The paper's simulation setup: twenty random requests, moderate
    /// load.
    pub fn paper_standard() -> Self {
        Self {
            rate_per_s: 0.5,
            profile: RequestProfile::standard(),
            service: ServiceTime::UniformMs(10_000, 60_000),
        }
    }

    /// Generate `count` requests over `m` VM types with exponential
    /// inter-arrival gaps.
    ///
    /// # Panics
    /// Panics if `rate_per_s` is not positive.
    pub fn generate(&self, count: usize, m: usize, rng: &mut impl Rng) -> Vec<CloudRequest> {
        assert!(self.rate_per_s > 0.0, "arrival rate must be positive");
        let mut t = SimTime::ZERO;
        (0..count)
            .map(|i| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let gap = -(u.ln()) / self.rate_per_s;
                t += SimTime::from_secs_f64(gap);
                CloudRequest {
                    id: i as u64,
                    request: self.profile.sample(m, rng),
                    arrival: t,
                    service_time: self.service.sample(rng),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arrivals_monotone_and_sized() {
        let mut rng = StdRng::seed_from_u64(1);
        let reqs = ArrivalProcess::paper_standard().generate(20, 3, &mut rng);
        assert_eq!(reqs.len(), 20);
        for w in reqs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(!r.request.is_zero());
            assert!(r.service_time > SimTime::ZERO);
        }
    }

    #[test]
    fn mean_interarrival_close_to_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = ArrivalProcess {
            rate_per_s: 2.0,
            ..ArrivalProcess::paper_standard()
        };
        let reqs = p.generate(2000, 3, &mut rng);
        let total = reqs.last().unwrap().arrival.as_secs_f64();
        let mean_gap = total / 2000.0;
        assert!((mean_gap - 0.5).abs() < 0.05, "mean gap {mean_gap}");
    }

    #[test]
    fn service_time_dists() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            ServiceTime::Fixed(SimTime::from_secs(5)).sample(&mut rng),
            SimTime::from_secs(5)
        );
        for _ in 0..100 {
            let t = ServiceTime::UniformMs(10, 20).sample(&mut rng);
            assert!(t >= SimTime::from_millis(10) && t <= SimTime::from_millis(20));
        }
        let mean = (0..2000)
            .map(|_| ServiceTime::ExpMeanMs(1000).sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 1.0).abs() < 0.1, "exp mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            ArrivalProcess::paper_standard().generate(10, 3, &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_uniform_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = ServiceTime::UniformMs(20, 10).sample(&mut rng);
    }
}
