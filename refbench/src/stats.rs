//! The sample statistics the benchmark reports: nearest-rank percentiles
//! of its own timers, medians, the best-of-rounds sum, and the quartiles
//! the comparison rule reads.

use std::time::Duration;

/// The nearest-rank `q`-quantile of `sorted` (ascending): the value at
/// 1-based rank ⌈q·n⌉ — the definition `refstate_serve::SloPercentiles`
/// uses, so every benchmark-timer percentile is a measured sample, never
/// an interpolation or a histogram bucket edge.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `durations` and returns their nearest-rank `q`-quantiles, in
/// milliseconds (0 for an empty sample).
pub fn percentiles_ms(durations: &mut [Duration], qs: &[f64]) -> Vec<f64> {
    durations.sort_unstable();
    qs.iter()
        .map(|&q| {
            if durations.is_empty() {
                0.0
            } else {
                nearest_rank(durations, q).as_secs_f64() * 1e3
            }
        })
        .collect()
}

/// Mean of `durations` in microseconds (0 for an empty sample).
pub fn mean_us(durations: &[Duration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    durations.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6 / durations.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sum over positions of the least value any round recorded there:
/// `rounds[r][i]` is round `r`'s time for piece `i` of the same work. A
/// piece's least time is its cost when nothing else on the host got in
/// its way, so the sum is the whole round's cost on a quiet host.
///
/// # Panics
///
/// Panics if `rounds` is empty or the rounds differ in length.
pub fn best_sum(rounds: &[Vec<f64>]) -> f64 {
    let (first, rest) = rounds.split_first().expect("best of no rounds");
    assert!(
        rest.iter().all(|r| r.len() == first.len()),
        "rounds of different work"
    );
    (0..first.len())
        .map(|i| rest.iter().fold(first[i], |best, r| best.min(r[i])))
        .sum()
}

/// First and third quartiles, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them, so the comparison tool and an external reader of the
/// same runs agree on every spread. A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative near the ends of tiny samples, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample_at_rank_ceil_qn() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.5), 50);
        assert_eq!(nearest_rank(&hundred, 0.9), 90);
        assert_eq!(nearest_rank(&hundred, 0.99), 99);
        assert_eq!(nearest_rank(&hundred, 1.0), 100);
        // Two samples: the median is the lower one, not an average.
        assert_eq!(nearest_rank(&[1u64, 2], 0.5), 1);
        assert_eq!(nearest_rank(&[7u64], 0.9), 7);
    }

    #[test]
    fn reported_p50_and_p90_are_nearest_rank_samples() {
        // 1..=10 ms shuffled: p50 is the 5th sample and p90 the 9th, each
        // an observed value (interpolation would give 5.5 and 9.1).
        let mut durations: Vec<Duration> = [7u64, 3, 10, 1, 9, 2, 8, 5, 4, 6]
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        let p = percentiles_ms(&mut durations, &[0.5, 0.9]);
        assert_eq!(p, vec![5.0, 9.0]);
        assert_eq!(percentiles_ms(&mut [], &[0.5]), vec![0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn best_sum_takes_each_piece_from_its_fastest_round() {
        let rounds = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]];
        assert_eq!(best_sum(&rounds), 2.0 + 1.0 + 5.0);
        assert_eq!(best_sum(&rounds[..1]), 9.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
