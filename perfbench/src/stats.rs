//! Order statistics over timing samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, interpolating
/// linearly between the two closest ranks (the "type 7" rule of R and
/// NumPy's default). Returns `None` for an empty slice or a `p` outside
/// `0..=100`; NaN samples are rejected the same way.
///
/// Quartiles are `percentile(v, 25.0)` and `percentile(v, 75.0)`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The mean of the medians of the non-empty windows of samples (`None`
/// when every window is empty).
///
/// On a host whose speed swings between a fast and a slow state for a
/// fraction of a second up to tens of seconds, samples are bimodal: the
/// median of all samples, or the lowest window median, jumps from one mode
/// to the other with the share of time a run spends in each, while the mean
/// of window medians moves in proportion to that share.
pub fn mean_of_medians(windows: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = windows.iter().filter_map(|w| median(w)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&v, 75.0), Some(3.25));
        // 1..=10: rank 0.9 · 9 = 8.1 → 9.1.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&ten, 90.0).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0, 7.0]), Some(4.0));
        assert_eq!(median(&[2.5]), Some(2.5));
    }

    #[test]
    fn quartiles_of_a_known_sample() {
        // statistics.quantiles([1..=9], n=4, method="inclusive") = [3, 5, 7].
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&nine, 25.0), Some(3.0));
        assert_eq!(percentile(&nine, 50.0), Some(5.0));
        assert_eq!(percentile(&nine, 75.0), Some(7.0));
    }

    #[test]
    fn rejects_empty_nan_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], -1.0), None);
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
    }

    #[test]
    fn mean_of_medians_skips_empty_windows() {
        let windows = vec![vec![2.0, 2.4, 2.2], vec![], vec![1.2, 1.0, 1.1, 9.0], vec![3.0]];
        let mean = mean_of_medians(&windows).unwrap();
        assert!((mean - (2.2 + 1.15 + 3.0) / 3.0).abs() < 1e-12, "{mean}");
        assert_eq!(mean_of_medians(&[vec![4.0]]), Some(4.0));
        assert_eq!(mean_of_medians(&[]), None);
        assert_eq!(mean_of_medians(&[vec![], vec![]]), None);
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = [9.0, 2.0, 7.0, 4.0, 5.0];
        let mut b = a;
        b.reverse();
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }
}
