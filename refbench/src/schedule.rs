//! The open-loop arrival schedule: a Poisson process fixed by the seed
//! before the first request is sent, so a slow service cannot slow its
//! own load down.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Arrival offsets, in nanoseconds from the start of the phase, of a
/// Poisson process with `rate` arrivals per second over `seconds`:
/// exponential gaps drawn from a generator seeded with `seed`. The same
/// arguments always give the same schedule, bit for bit.
pub fn poisson(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "rate and duration must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 53 random bits mapped onto (0, 1], so the logarithm is finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return arrivals;
        }
        arrivals.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        let a = poisson(7, 1000.0, 2.0);
        let b = poisson(7, 1000.0, 2.0);
        let bytes = |s: &[u64]| s.iter().flat_map(|t| t.to_le_bytes()).collect::<Vec<u8>>();
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(a, poisson(8, 1000.0, 2.0));
    }

    #[test]
    fn arrivals_are_ordered_and_inside_the_window() {
        let s = poisson(3, 500.0, 1.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| t < 1_000_000_000));
    }

    #[test]
    fn arrival_count_stays_within_four_sigma_of_rate_times_duration() {
        // A Poisson count has variance equal to its mean.
        for seed in 0..20 {
            for (rate, seconds) in [(1000.0, 15.0), (1500.0, 5.0), (200.0, 1.0)] {
                let expected: f64 = rate * seconds;
                let n = poisson(seed, rate, seconds).len() as f64;
                assert!(
                    (n - expected).abs() <= 4.0 * expected.sqrt(),
                    "seed {seed}: {n} arrivals, expected {expected}"
                );
            }
        }
    }
}
