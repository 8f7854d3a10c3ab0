//! Order statistics used by every metric: percentiles of a sample,
//! quartiles of a set of runs, and the median-of-kept-blocks rule that
//! turns a run's blocks into one reported value.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample by the
/// nearest-rank rule; 0 for an empty sample.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn percentile<T: Copy + Ord + Into<f64>>(samples: &mut [T], q: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method) so the numbers match the ones the acceptance check derives.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, linearly interpolated
        // and clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The benchmark's spread figure: inter-quartile distance as a share of
/// the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Largest `|v - median| / median` over `values`.
pub fn max_rel_deviation(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    values.iter().map(|v| (v - m).abs() / m).fold(0.0, f64::max)
}

/// The share of a metric's blocks the noise guard must leave: it drops
/// the disturbed ones only while this many remain (four of six in the
/// issue's terms). When more are disturbed the machine was busy for
/// most of the run, no subset measured the program, and every block
/// counts.
pub const MIN_KEPT_SHARE: f64 = 2.0 / 3.0;

/// A metric's value from its per-block values: the median over the
/// blocks the noise guard kept. Returns the value and how many blocks
/// were dropped.
pub fn median_of_kept(values: &[f64], disturbed: &[bool]) -> (f64, usize) {
    let kept: Vec<f64> = values
        .iter()
        .zip(disturbed)
        .filter(|(_, &d)| !d)
        .map(|(&v, _)| v)
        .collect();
    if kept.len() as f64 >= values.len() as f64 * MIN_KEPT_SHARE {
        (median(&kept), values.len() - kept.len())
    } else {
        (median(values), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), 50.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7u32], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q2, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((q1, q2, q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q2, q3), (0.75, 1.5, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_blocks_ignores_one_disturbed_second() {
        // Six blocks, one of them hit by a busy neighbour: the median
        // does not move whether or not the guard saw it.
        let values = [100.0, 101.0, 40.0, 99.0, 102.0, 100.0];
        let none = [false; 6];
        assert_eq!(median_of_kept(&values, &none), (100.0, 0));
        let mut flags = none;
        flags[2] = true;
        assert_eq!(median_of_kept(&values, &flags), (100.0, 1));
    }

    #[test]
    fn guard_drops_by_flag_and_only_while_two_thirds_remain() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // Two of six flagged: dropped, whatever their values.
        let flags = [true, true, false, false, false, false];
        assert_eq!(median_of_kept(&values, &flags), (4.5, 2));
        // Three of six flagged: fewer than four would remain, so all
        // six count.
        let flags = [true, true, true, false, false, false];
        assert_eq!(median_of_kept(&values, &flags), (3.5, 0));
        assert_eq!(median_of_kept(&[], &[]), (0.0, 0));
    }

    #[test]
    fn max_rel_deviation_is_relative_to_the_median() {
        assert!((max_rel_deviation(&[90.0, 100.0, 120.0]) - 0.2).abs() < 1e-12);
        assert_eq!(max_rel_deviation(&[]), 0.0);
    }
}
